// Package align implements the automated alignment loop (§4.3): run
// symbolically derived traces against both the learned emulator and
// the cloud oracle, diff the outcomes, localize each divergence to a
// spec element, and repair it — by re-reading the documentation for
// the implicated resource, or, when the documentation itself is out of
// sync with the cloud, by adopting the error code the cloud was
// observed to return. The loop iterates until the emulator aligns or
// the round budget is spent.
//
// The comparison phase of each round — one differential trace replay
// per seed — is embarrassingly parallel and dominates wall-clock time,
// so it fans out over a bounded worker pool (Options.Workers). Each
// worker owns a private emulator instance (forked from one emulator
// rebuilt and compiled from the shared spec, which is read-only during
// comparison) and a private oracle instance (stamped out by a
// cloudapi.BackendFactory), so no mutable state crosses goroutines;
// per-trace reports are merged back in trace order, which makes a
// parallel round's Result byte-identical to a serial one's. The repair
// phase stays single-goroutine: it mutates the spec.
package align

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"lce/internal/cloudapi"
	"lce/internal/docs"
	"lce/internal/interp"
	"lce/internal/obsv"
	"lce/internal/retry"
	"lce/internal/spec"
	"lce/internal/symexec"
	"lce/internal/synth"
	"lce/internal/trace"
)

// Divergence causes: a divergence is *semantic* when emulator and
// oracle genuinely disagree about the request, and
// *exhausted-transient* when the failing side carries a transient
// infrastructure code — an injected (or real-cloud) fault that
// survived the retry budget, which says nothing about behavioural
// alignment and must not drive spec repairs.
const (
	CauseSemantic           = "semantic"
	CauseExhaustedTransient = "exhausted-transient"
)

// Cause classifies one divergence as CauseSemantic or
// CauseExhaustedTransient, keyed on the same transient-code set the
// retry layer uses (cloudapi.IsTransientCode).
func Cause(d trace.StepDiff) string {
	if outcomeTransient(d.Subject) || outcomeTransient(d.Against) {
		return CauseExhaustedTransient
	}
	return CauseSemantic
}

func outcomeTransient(o *trace.Outcome) bool {
	return o != nil && !o.OK && !o.Broken && cloudapi.IsTransientCode(o.Code)
}

// Repair describes one fix the engine applied.
type Repair struct {
	Kind   string // "redocument-sm" | "adopt-cloud-code"
	Target string // SM name or "action/code"
	Reason string
}

// Round summarizes one alignment iteration.
type Round struct {
	Round      int
	Aligned    int
	Total      int
	Divergence []trace.StepDiff
	Repairs    []Repair
	// Semantic counts divergences caused by genuine emulator/cloud
	// disagreement; ExhaustedTransient counts divergences caused by
	// transient oracle faults that outlasted the retry budget (zero
	// whenever the retry policy covers the fault injector's worst
	// case). Semantic + ExhaustedTransient == len(Divergence).
	Semantic           int
	ExhaustedTransient int
}

// Result is the outcome of an alignment run.
type Result struct {
	Rounds []Round
	// Converged reports whether every trace aligned by the end.
	Converged bool
	// Final is the aligned (or best-effort) emulator.
	Final *interp.Emulator
	// Stats aggregates run-wide counters (comparisons, divergences,
	// repairs). Deterministic for a given workload at any worker count,
	// except the retry and transient-fault tallies of a chaos run,
	// which follow worker scheduling.
	Stats Stats
}

// Options tunes the loop.
type Options struct {
	MaxRounds int
	// GenerateViolations adds symexec-derived single-violation traces
	// to the seed suite.
	GenerateViolations bool
	// Workers bounds the comparison-phase worker pool. 0 (the default)
	// means GOMAXPROCS; 1 forces the serial path. Against a
	// deterministic oracle any setting yields an identical Result —
	// parallelism only changes wall-clock time.
	Workers int
	// Retry, when non-nil, wraps every worker's oracle in a resilient
	// client with this policy: transient oracle faults (throttling,
	// 5xx, timeouts) are retried — counted in the run's Stats —
	// instead of surfacing as spurious divergences. Each worker's
	// wrapper draws a derived jitter seed so backoff schedules stay
	// deterministic per worker.
	Retry *retry.Policy
	// Obs, when non-nil, records the run's observability: one root
	// span per trace comparison (keyed by round and trace index, so
	// trace IDs are identical across runs and worker counts), nested
	// replay and per-call spans, fault/retry span events, per-op
	// latency histograms, and the run counters published into the
	// registry. Tracing never changes the Result — a traced run is
	// byte-identical to an untraced one.
	Obs *obsv.Obs
}

// errNilFactory rejects a missing oracle factory up front: every
// comparison worker draws its own oracle instance from it.
var errNilFactory = errors.New("align: nil backend factory")

// Run executes the alignment loop over svc, mutating it in place. Each
// comparison worker draws its own oracle instance from factory, so no
// oracle state is shared across goroutines.
func Run(svc *spec.Service, brief *docs.ServiceDoc, factory cloudapi.BackendFactory, seeds []trace.Trace, opts Options) (*Result, error) {
	if factory == nil {
		return nil, errNilFactory
	}
	// Draw and discard one oracle before round 1. Chaos factories number
	// their instances, and the fault schedule a chaos seed produces is
	// defined with this draw in place: round 1's workers get instances
	// 1..N.
	factory()
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = len(svc.SMs) + 2
	}
	traces := append([]trace.Trace{}, seeds...)
	if opts.GenerateViolations {
		traces = append(traces, symexec.ViolationTraces(svc, seeds)...)
	}
	workers := poolSize(opts.Workers, len(traces))

	res := &Result{}
	counters := &Counters{}
	// One keyed-ID epoch per run: reusing an Obs across runs keeps
	// trace IDs unique without losing run-to-run determinism.
	epoch := opts.Obs.TracerOrNil().NextEpoch()
	// Publish whatever the run counted — converged, stuck, or errored —
	// into the registry on the way out.
	defer func() {
		if opts.Obs != nil {
			res.Stats.PublishTo(opts.Obs.Registry)
		}
	}()
	// adopted records cloud error codes already grafted onto actions so
	// a stale-doc divergence is only "fixed from observation" once.
	adopted := map[string]bool{}
	// redocumented records SMs already re-extracted; if a divergence
	// persists on a redocumented SM, the docs themselves are wrong and
	// the cloud's observed behaviour wins.
	redocumented := map[string]bool{}

	for round := 1; round <= opts.MaxRounds; round++ {
		reports, emu, err := compareRound(svc, factory, traces, workers, opts.Retry, counters, epoch, round, opts.Obs)
		if err != nil {
			return res, err
		}
		res.Final = emu
		r := Round{Round: round, Total: len(traces)}
		implicated := map[string]trace.StepDiff{}
		var wrongCodes []trace.StepDiff
		// reports is ordered by trace index, so this loop observes the
		// suite exactly as the serial engine did.
		for _, rep := range reports {
			if rep.Aligned() {
				r.Aligned++
				continue
			}
			d := *rep.FirstDiff()
			r.Divergence = append(r.Divergence, d)
			// An exhausted-transient divergence is an oracle fault that
			// outlasted the retry budget, not a spec bug: report it but
			// never let it drive a repair — redocumenting an SM or
			// adopting "Throttling" as the documented error code would
			// corrupt the spec.
			if Cause(d) == CauseExhaustedTransient {
				r.ExhaustedTransient++
				continue
			}
			r.Semantic++
			smName := localize(svc, d.Action)
			if smName != "" {
				if _, seen := implicated[smName]; !seen {
					implicated[smName] = d
				}
			}
			if d.Kind == trace.DiffWrongCode {
				wrongCodes = append(wrongCodes, d)
			}
		}
		counters.RoundFinished()
		if r.Aligned == r.Total {
			res.Rounds = append(res.Rounds, r)
			res.Converged = true
			res.Stats = counters.Snapshot()
			return res, nil
		}

		// Repair phase (single-goroutine: mutates the spec). First
		// preference: re-read the docs for each implicated SM
		// (deterministic order).
		names := make([]string, 0, len(implicated))
		for n := range implicated {
			names = append(names, n)
		}
		sort.Strings(names)
		progressed := false
		for _, n := range names {
			if redocumented[n] {
				continue
			}
			if err := synth.RepairSM(svc, brief, n); err != nil {
				return res, fmt.Errorf("align: repair of %s failed: %w", n, err)
			}
			redocumented[n] = true
			progressed = true
			r.Repairs = append(r.Repairs, Repair{
				Kind:   "redocument-sm",
				Target: n,
				Reason: fmt.Sprintf("divergence at %s (%s)", implicated[n].Action, implicated[n].Kind),
			})
		}
		// Second preference: a wrong-code divergence that survived
		// redocumentation means the documentation disagrees with the
		// cloud; adopt the observed code (§4.3 — error codes must match
		// the cloud exactly).
		if !progressed {
			for _, d := range wrongCodes {
				key := d.Action + "/" + d.Against.Code
				if adopted[key] {
					continue
				}
				if synth.SetAssertCode(svc, d.Action, d.Subject.Code, d.Against.Code) {
					adopted[key] = true
					progressed = true
					r.Repairs = append(r.Repairs, Repair{
						Kind:   "adopt-cloud-code",
						Target: key,
						Reason: fmt.Sprintf("documentation says %s, cloud returns %s", d.Subject.Code, d.Against.Code),
					})
				}
			}
		}
		counters.RepairsApplied(len(r.Repairs))
		res.Rounds = append(res.Rounds, r)
		if !progressed {
			res.Stats = counters.Snapshot()
			return res, nil // stuck: report best effort
		}
	}
	res.Stats = counters.Snapshot()
	return res, nil
}

// poolSize resolves the effective worker count: requested (or
// GOMAXPROCS when unset), clamped to the number of traces, floored at 1.
func poolSize(requested, traces int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > traces {
		w = traces
	}
	if w < 1 {
		w = 1
	}
	return w
}

// CompareSuite replays every trace differentially — a spec-built
// emulator versus a factory-drawn oracle — across a pool of `workers`
// goroutines, returning reports in suite order together with the
// run's comparison, retry and transient-fault totals. It is one
// alignment round's comparison phase, exported for the speedup and
// chaos benchmarks and for callers that want bulk differential replay
// without the repair loop. A non-nil policy wraps every worker's
// oracle in the resilient client; a non-nil obs roots one span per
// comparison, keyed by trace index, with per-call child spans and
// fault/retry events, and records per-op latencies in its registry.
func CompareSuite(svc *spec.Service, factory cloudapi.BackendFactory, traces []trace.Trace, workers int, policy *retry.Policy, obs *obsv.Obs) ([]trace.Report, Stats, error) {
	if factory == nil {
		return nil, Stats{}, errNilFactory
	}
	counters := &Counters{}
	epoch := obs.TracerOrNil().NextEpoch()
	reports, _, err := compareRound(svc, factory, traces, poolSize(workers, len(traces)), policy, counters, epoch, 0, obs)
	return reports, counters.Snapshot(), err
}

// compareRound runs the comparison phase of one round and returns the
// per-trace reports in trace order plus the first worker's emulator
// (the round's representative Final). Worker w owns emus[w] and its
// own oracle for the whole phase; the spec is shared read-only. The
// first emulator is built and compiled (repairs mutate the spec, so
// every round recompiles) up front because spec indexing mutates the
// service's lookup maps; remaining workers fork it, sharing the
// immutable compiled program so the spec is lowered once per round,
// not once per worker. A non-nil retry policy wraps each worker's
// oracle in a resilient client (derived jitter seed per worker) so
// transient oracle faults are retried inside the worker instead of
// surfacing as divergences. A non-nil obs roots one span per
// comparison, keyed by (epoch, round, index) so trace IDs never depend
// on which worker drew which trace.
func compareRound(svc *spec.Service, factory cloudapi.BackendFactory, traces []trace.Trace, workers int, policy *retry.Policy, counters *Counters, epoch int64, round int, obs *obsv.Obs) ([]trace.Report, *interp.Emulator, error) {
	emus := make([]*interp.Emulator, workers)
	oracles := make([]cloudapi.Backend, workers)
	base, err := interp.NewCompiled(svc)
	if err != nil {
		return nil, nil, fmt.Errorf("align: emulator rebuild failed: %w", err)
	}
	for w := 0; w < workers; w++ {
		if w == 0 {
			emus[w] = base
		} else {
			emus[w] = base.Fork().(*interp.Emulator)
		}
		oracles[w] = factory()
		if policy != nil {
			p := *policy
			p.Seed = policy.Seed ^ int64(w+1)*0x9E3779B9
			oracles[w] = retry.Wrap(oracles[w], p, counters)
		}
	}

	// Per-cause divergence counters, labelled with the service under
	// alignment ({service,cause}) so a multi-service process attributes
	// each divergence. Pre-created once per round; nil (no-op) without a
	// registry, which keeps the uninstrumented path untouched.
	var cDivSemantic, cDivTransient *obsv.Counter
	if obs != nil && obs.Registry != nil {
		cDivSemantic = obs.Registry.Counter(obsv.MetricAlignDivergences,
			"service", svc.Name, "cause", CauseSemantic)
		cDivTransient = obs.Registry.Counter(obsv.MetricAlignDivergences,
			"service", svc.Name, "cause", CauseExhaustedTransient)
	}
	countDivergence := func(d *trace.StepDiff) {
		if d == nil || cDivSemantic == nil {
			return
		}
		if Cause(*d) == CauseSemantic {
			cDivSemantic.Inc()
		} else {
			cDivTransient.Inc()
		}
	}

	// Without a tracer the root span is nil, every span call below is a
	// no-op, and ctx carries no span, so the comparison is untraced.
	tracer := obs.TracerOrNil()
	compare := func(emu *interp.Emulator, ora cloudapi.Backend, i int) trace.Report {
		ctx := obs.Context(context.Background())
		ctx, root := tracer.StartRootKeyed(ctx, obsv.SpanAlignTrace, rootKey(epoch, round, i))
		root.SetAttr("service", svc.Name)
		root.SetAttr("trace", traces[i].Name)
		root.SetAttrInt("index", int64(i))
		root.SetAttrInt("round", int64(round))
		rep := trace.CompareIndexed(ctx, emu, ora, i, traces[i])
		counters.TraceCompared(!rep.Aligned())
		if d := rep.FirstDiff(); d != nil {
			root.SetAttr("aligned", "false")
			root.SetAttr("diff.action", d.Action)
			root.SetAttr("diff.kind", d.Kind.String())
			root.SetAttr("diff.cause", Cause(*d))
			root.SetError(d.Kind.String())
			countDivergence(d)
		} else {
			root.SetAttr("aligned", "true")
		}
		root.End()
		return rep
	}

	reports := make([]trace.Report, len(traces))
	if workers == 1 {
		for i := range traces {
			reports[i] = compare(emus[0], oracles[0], i)
		}
		return reports, emus[0], nil
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(emu *interp.Emulator, ora cloudapi.Backend) {
			defer wg.Done()
			for i := range jobs {
				// Disjoint index writes: no lock needed on the slice.
				reports[i] = compare(emu, ora, i)
			}
		}(emus[w], oracles[w])
	}
	for i := range traces {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return reports, emus[0], nil
}

// rootKey packs (epoch, round, trace index) into the deterministic key
// the per-comparison root span's trace ID derives from: 16 bits of
// epoch, 16 of round, 32 of index.
func rootKey(epoch int64, round, index int) int64 {
	return epoch<<48 | int64(uint16(round))<<32 | int64(uint32(index))
}

// localize maps a diverging action to the SM that owns it — the
// paper's "track down the source of errors to a specific SM
// implementation".
func localize(svc *spec.Service, action string) string {
	sm, _, ok := svc.Action(action)
	if !ok {
		return ""
	}
	return sm.Name
}
