package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lce"
	"lce/internal/interp"
	"lce/internal/synth"
)

// guardWindow is how long the load-generator CPU guard drives the
// production stack.
const guardWindow = 2 * time.Second

// probePrograms is how many programs the serial allocation probe runs.
const probePrograms = 20

// traced is the per-layer run: the workload's stack assembled in this
// process with timers on the seams between layers. It first checks the
// assembly answers the workload's first program exactly as the
// production binaries do.
func (r *run) traced() error {
	if err := r.setupLayers(); err != nil {
		return err
	}
	logf, err := os.Create(filepath.Join(r.dir, "inproc.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	rec := newRecorder()
	in, err := buildStack(rec, r.w, r.dir, logf)
	if err != nil {
		return err
	}
	defer in.close()
	if err := waitReady(in.entry(), time.Now(), 10*time.Second); err != nil {
		return err
	}

	inSessions := newSessions(r.w, r.seed)
	if err := r.parityAndGuard(in.entry(), inSessions[0]); err != nil {
		return err
	}

	f := newFleet(r.w, in.entry(), inSessions, rec)
	defer f.close()
	f.warm()
	hits0, misses0, evict0 := in.poolStats()
	conns0 := in.accepted()
	bytes0, err := dirBytes(in.dataDir)
	if err != nil {
		return err
	}
	rec.on.Store(true)
	f.drive(r.seconds)
	rec.on.Store(false)
	hits1, misses1, evict1 := in.poolStats()
	conns1 := in.accepted()
	bytes1, err := dirBytes(in.dataDir)
	if err != nil {
		return err
	}
	if !r.w.dataDir && evict1 > 0 {
		r.fail("in-memory pool evicted %d sessions", evict1)
	}

	// Serial allocation probe: one client, so the counts around each
	// handler and invoke are that call's alone.
	rec.probing.Store(true)
	for k := 0; k < probePrograms; k++ {
		f.step(0, f.callers[0])
	}
	rec.probing.Store(false)
	r.tally.add(f.tally())

	for l := range rec.spans {
		sortSpans(rec.spans[l])
	}
	sp := rec.spans
	calls := len(sp[layerClient])
	if calls == 0 {
		return fmt.Errorf("no calls in the traced window")
	}
	perCall := func(x float64) float64 { return x / float64(calls) }
	us := func(ns float64) float64 { return ns / 1e3 }

	backend := append(append([]span(nil), sp[layerJournaled]...), sp[layerInvoke]...)
	sortSpans(backend)
	handlerSelf := selfTimes(sp[layerNode], backend)
	p99, err := quantileNs(handlerSelf, 0.99)
	if err != nil {
		r.fail("httpapi.self_p99_us: %v", err)
	}
	v := r.values
	v["interp.invoke_us"] = us(meanNs(durations(sp[layerInvoke])))
	v["httpapi.self_us"] = us(meanNs(handlerSelf))
	v["httpapi.self_p99_us"] = us(float64(p99))
	v["wire.us"] = us(meanNs(selfTimes(sp[layerClient], sp[layerNode])))
	v["tenant.hit_rate"] = float64(hits1-hits0) / float64(max(1, hits1-hits0+misses1-misses0))
	v["tenant.misses_per_kcall"] = 1000 * perCall(float64(misses1-misses0))
	v["tenant.factory_us"] = us(meanNs(durations(sp[layerFactory])))
	v["durable.adopt_us"] = us(meanNs(durations(sp[layerAdopt])))
	v["durable.spill_us"] = us(meanNs(durations(sp[layerSpill])))
	v["durable.spill_bytes"] = 0
	if n := len(sp[layerSpill]); n > 0 {
		v["durable.spill_bytes"] = float64(rec.spillBytes) / float64(n)
	}
	v["durable.journal_us"] = us(meanNs(selfTimes(sp[layerJournaled], sp[layerInvoke])))
	v["durable.bytes_per_call"] = perCall(float64(bytes1 - bytes0))
	v["cluster.router_self_us"] = us(meanNs(selfTimes(sp[layerRouter], sp[layerNode])))
	v["cluster.node_conns_per_kcall"] = 0
	if n := len(sp[layerRouter]); n > 0 {
		v["cluster.node_conns_per_kcall"] = 1000 * float64(conns1-conns0) / float64(n)
	}
	v["interp.allocs_per_call"] = ratio(rec.invokeAllocs.Load(), rec.invokeProbes.Load())
	v["httpapi.allocs_per_call"] = ratio(rec.nodeAllocs.Load(), rec.nodeProbeCalls.Load()) - v["interp.allocs_per_call"]
	fmt.Printf("traced %d calls: %d node, %d router, %d invoke, %d journaled, %d adopt, %d spill, %d factory spans; %d evictions\n",
		calls, len(sp[layerNode]), len(sp[layerRouter]), len(sp[layerInvoke]), len(sp[layerJournaled]),
		len(sp[layerAdopt]), len(sp[layerSpill]), len(sp[layerFactory]), evict1-evict0)
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setupLayers times the two set-up steps every server process pays:
// synthesizing the EC2 spec from documentation, and compiling it.
func (r *run) setupLayers() error {
	doc, err := lce.Documentation("ec2")
	if err != nil {
		return err
	}
	var syn, comp []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		svc, _, err := synth.Synthesize(doc, lce.PerfectOptions())
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := interp.NewMode(svc, "compiled"); err != nil {
			return err
		}
		syn = append(syn, ms(t1.Sub(t0)))
		comp = append(comp, ms(time.Since(t1)))
	}
	r.values["synth.synthesize_ms"] = medianFloat(syn)
	r.values["interp.compile_ms"] = medianFloat(comp)
	return nil
}

// parityAndGuard starts the production stack and runs the workload's
// first program (after provisioning) on it and on the in-process
// assembly at inEntry, whose first session is in0; the two must answer
// alike. It then drives the production stack briefly to measure the
// load generator's own CPU per call: the guard that a run is not
// client-bound.
func (r *run) parityAndGuard(inEntry string, in0 *session) error {
	prod, err := startProd(r.bin, r.w, "learned", filepath.Join(r.dir, "prod"))
	if err != nil {
		return err
	}
	defer prod.stop()
	prodSessions := newSessions(r.w, r.seed)
	var logs [2][]exchange
	for i, side := range []struct {
		base string
		s    *session
	}{{prod.entry(), prodSessions[0]}, {inEntry, in0}} {
		c := newCaller(side.base)
		c.log = &logs[i]
		if r.w.provision != nil {
			r.w.provision(c, side.s)
			side.s.provisioned = true
		}
		r.w.program(c, side.s)
		c.close()
		r.tally.add(c.tally)
	}
	if err := sameExchanges(logs[0], logs[1]); err != nil {
		r.fail("traced assembly answers differently from the production binaries: %v", err)
	}

	f := newFleet(r.w, prod.entry(), prodSessions, nil)
	defer f.close()
	f.provision()
	f.programs((r.w.sessions + clients - 1) / clients)
	before := f.tally()
	cpu0, err := cpuTime("self")
	if err != nil {
		return err
	}
	f.drive(guardWindow)
	cpu1, err := cpuTime("self")
	if err != nil {
		return err
	}
	after := f.tally()
	r.tally.add(after)
	ok := (after.attempted - before.attempted) - (after.failed - before.failed)
	if ok == 0 {
		return fmt.Errorf("no call succeeded in the load-generator guard")
	}
	r.values["loadgen.cpu_us_per_call"] = float64((cpu1 - cpu0).Microseconds()) / float64(ok)
	return nil
}
