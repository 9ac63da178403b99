// Command e2ebench is the repository's benchmark: DevOps programs
// driving the real serving stack over loopback, measured from the
// client. See README.md for the workloads and metrics. Run it through
// run.sh, which builds lce-server and lce-router from the checkout and
// passes their directory as --bin:
//
//	bash e2ebench/run.sh --workload hot --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// metricDef declares one reported metric; BENCHMARK.json lists the
// same names and units (TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"calls_per_s", "1/s"},
	{"call_p50_ms", "ms"},
	{"call_p99_ms", "ms"},
	{"program_p50_ms", "ms"},
	{"cpu_us_per_call", "us"},
	{"rss_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"interp.invoke_us", "us"},
	{"interp.allocs_per_call", "allocs"},
	{"interp.compile_ms", "ms"},
	{"synth.synthesize_ms", "ms"},
	{"httpapi.self_us", "us"},
	{"httpapi.self_p99_us", "us"},
	{"httpapi.allocs_per_call", "allocs"},
	{"wire.us", "us"},
	{"tenant.hit_rate", "ratio"},
	{"tenant.misses_per_kcall", "1/kcall"},
	{"tenant.factory_us", "us"},
	{"durable.adopt_us", "us"},
	{"durable.spill_us", "us"},
	{"durable.spill_bytes", "B"},
	{"durable.journal_us", "us"},
	{"durable.bytes_per_call", "B"},
	{"cluster.router_self_us", "us"},
	{"cluster.node_conns_per_kcall", "1/kcall"},
	{"loadgen.cpu_us_per_call", "us"},
}

// setupRepeats is how many times a run sets its stack up; setup_s is
// the median, which keeps one slow exec from moving the figure.
const setupRepeats = 7

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run carries one invocation's settings and what it has found so far.
type run struct {
	w       workload
	seed    int64
	seconds time.Duration
	bin     string
	dir     string // private scratch directory, removed at exit

	tally    tally    // every call made against the learned stack
	problems []string // reasons the run is not correct
	values   map[string]float64
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot | churn | routed")
		seed    = flag.Int64("seed", 1, "input seed: session names and address ranges")
		seconds = flag.Int("seconds", 10, "measured seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end run against the production binaries; 1: traced in-process run, per-layer metrics")
		bin     = flag.String("bin", "", "directory holding lce-server and lce-router")
		work    = flag.String("work", ".bench_build/runs", "parent of the run's scratch directory")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || *bin == "" || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload hot|churn|routed --seed N --seconds S --trace 0|1 --bin DIR")
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, w.name+"-")
	if err != nil {
		fatal(err)
	}
	r := &run{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, bin: *bin, dir: dir, values: map[string]float64{}}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
		err = r.traced()
	} else {
		err = r.endToEnd()
	}
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	os.Exit(r.report(defs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// report prints the human-readable table and the JSON result line,
// and returns the exit code: 0 when every check passed.
func (r *run) report(defs []metricDef) int {
	if r.tally.failed > 0 {
		r.fail("%d of %d calls failed, first: %v", r.tally.failed, r.tally.attempted, r.tally.firstErr)
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.tally.attempted, Failed: r.tally.failed, Metrics: map[string]metric{}}
	fmt.Printf("workload %s seed %d: %d calls attempted, %d failed, error_rate %.6f\n",
		r.w.name, r.seed, r.tally.attempted, r.tally.failed, r.tally.errorRate())
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || !validName(d.name) || !validUnit(d.unit) {
			res.Correct = false
			r.fail("metric %s missing or misnamed", d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("  %-30s %14.4f %s\n", d.name, v, d.unit)
	}
	for _, p := range r.problems {
		fmt.Println("NOT CORRECT:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// fleet is a set of callers, one per client, each bound to its dealt
// sessions.
type fleet struct {
	w       workload
	callers [clients]*caller
	dealt   [clients][]*session
	next    [clients]int
}

func newFleet(w workload, base string, sessions []*session, rec *recorder) *fleet {
	f := &fleet{w: w, dealt: deal(sessions)}
	for i := range f.callers {
		f.callers[i] = newCaller(base)
		f.callers[i].trace = rec
	}
	return f
}

func (f *fleet) close() {
	for _, c := range f.callers {
		c.close()
	}
}

// each runs fn concurrently, once per client, and waits.
func (f *fleet) each(fn func(i int, c *caller)) {
	var wg sync.WaitGroup
	for i, c := range f.callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			fn(i, c)
		}(i, c)
	}
	wg.Wait()
}

// provision prepares every session not yet provisioned.
func (f *fleet) provision() {
	if f.w.provision == nil {
		return
	}
	f.each(func(i int, c *caller) {
		for _, s := range f.dealt[i] {
			if !s.provisioned {
				f.w.provision(c, s)
				s.provisioned = true
			}
		}
	})
}

// programs runs n programs per client, cycling over its sessions.
func (f *fleet) programs(n int) {
	f.each(func(i int, c *caller) {
		for k := 0; k < n; k++ {
			f.step(i, c)
		}
	})
}

func (f *fleet) step(i int, c *caller) {
	ss := f.dealt[i]
	c.run(f.w, ss[f.next[i]%len(ss)])
	f.next[i]++
}

// drive runs programs closed loop for d, timing every call and
// program, and returns the time until the last client finished its
// last program.
func (f *fleet) drive(d time.Duration) time.Duration {
	for _, c := range f.callers {
		c.measuring = true
	}
	t0 := time.Now()
	until := t0.Add(d)
	f.each(func(i int, c *caller) {
		for time.Now().Before(until) {
			f.step(i, c)
		}
	})
	elapsed := time.Since(t0)
	for _, c := range f.callers {
		c.measuring = false
	}
	return elapsed
}

// warm brings the stack to steady state before measuring: one program
// on every session (so churn's next program on each starts spilled),
// then a second of programs.
func (f *fleet) warm() {
	f.provision()
	f.programs((f.w.sessions + clients - 1) / clients)
	f.each(func(i int, c *caller) {
		for until := time.Now().Add(time.Second); time.Now().Before(until); {
			f.step(i, c)
		}
	})
}

func (f *fleet) tally() tally {
	var t tally
	for _, c := range f.callers {
		t.add(c.tally)
	}
	return t
}

// samples merges the clients' call and program latencies.
func (f *fleet) samples() (calls, programs []time.Duration) {
	for _, c := range f.callers {
		calls = append(calls, c.lat...)
		programs = append(programs, c.programs...)
	}
	return calls, programs
}

// endToEnd measures the production binaries: set-up time over fresh
// stacks, then the closed loop on the last one.
func (r *run) endToEnd() error {
	if err := r.checkBites(); err != nil {
		return err
	}
	var setups []float64
	var st *prodStack
	for k := 0; k < setupRepeats; k++ {
		if st != nil {
			st.stop()
		}
		var err error
		if st, err = startProd(r.bin, r.w, "learned", filepath.Join(r.dir, fmt.Sprintf("stack-%d", k))); err != nil {
			return err
		}
		setups = append(setups, st.setup().Seconds())
	}
	defer st.stop()
	r.values["setup_s"] = medianFloat(setups)

	f := newFleet(r.w, st.entry(), newSessions(r.w, r.seed), nil)
	defer f.close()
	f.warm()
	before := f.tally()
	cpu0, err := st.serverCPU()
	if err != nil {
		return err
	}
	elapsed := f.drive(r.seconds)
	cpu1, err := st.serverCPU()
	if err != nil {
		return err
	}
	after := f.tally()
	r.tally.add(after)
	ok := float64((after.attempted - before.attempted) - (after.failed - before.failed))
	if ok == 0 {
		return fmt.Errorf("no call succeeded in the measured interval")
	}

	calls, programs := f.samples()
	if !tailSupported(len(calls), 0.99) {
		r.fail("only %d call samples: p99 needs %d beyond it", len(calls), minTail)
	}
	fmt.Printf("measured %d calls and %d programs in %.2fs\n", len(calls), len(programs), elapsed.Seconds())
	sorted := sortedCopy(calls)
	r.values["calls_per_s"] = ok / elapsed.Seconds()
	r.values["call_p50_ms"] = ms(quantile(sorted, 0.5))
	r.values["call_p99_ms"] = ms(quantile(sorted, 0.99))
	r.values["program_p50_ms"] = ms(quantile(sortedCopy(programs), 0.5))
	r.values["cpu_us_per_call"] = float64((cpu1 - cpu0).Microseconds()) / ok
	if r.values["rss_mb"], err = st.peakRSS(); err != nil {
		return err
	}
	if !r.w.dataDir {
		n, err := st.evictions()
		if err != nil {
			return err
		}
		if n > 0 {
			r.fail("in-memory pool evicted %d sessions", n)
		}
	}
	return nil
}

// checkBites runs the hot provisioning and one program against the
// direct-to-code baseline, whose lost tenancy inheritance the checks
// must flag; a check that passes it proves nothing.
func (r *run) checkBites() error {
	hot := workloads["hot"]
	st, err := startProd(r.bin, hot, "d2c", filepath.Join(r.dir, "d2c"))
	if err != nil {
		return err
	}
	defer st.stop()
	c := newCaller(st.entry())
	defer c.close()
	s := newSessions(hot, r.seed)[0]
	hot.provision(c, s)
	hot.program(c, s)
	fmt.Printf("d2c baseline: %d of %d calls flagged (error_rate %.3f)\n", c.tally.failed, c.tally.attempted, c.tally.errorRate())
	if c.tally.failed == 0 {
		r.fail("the correctness checks passed the direct-to-code baseline")
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// dirBytes sums the sizes of the regular files under dir (0 for "").
func dirBytes(dir string) (int64, error) {
	var n int64
	if dir == "" {
		return 0, nil
	}
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // a journal segment removed by compaction mid-walk
			}
			return err
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n, err
}

// sameExchanges compares two call logs by action, status and body,
// ignoring the server-minted RequestId.
func sameExchanges(a, b []exchange) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d calls vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := stripRequestID(a[i].body), stripRequestID(b[i].body)
		if a[i].action != b[i].action || a[i].status != b[i].status || x != y {
			return fmt.Errorf("call %d %s: production %d %s, traced %d %s", i, a[i].action, a[i].status, x, b[i].status, y)
		}
	}
	return nil
}

// stripRequestID removes the "RequestId":"..." member from a body.
func stripRequestID(body []byte) string {
	s := string(body)
	const key = `"RequestId":"`
	i := strings.Index(s, key)
	if i < 0 {
		return s
	}
	j := strings.IndexByte(s[i+len(key):], '"')
	if j < 0 {
		return s
	}
	end := i + len(key) + j + 1
	if end < len(s) && s[end] == ',' {
		end++
	}
	return s[:i] + s[end:]
}
