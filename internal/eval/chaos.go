package eval

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"lce/internal/align"
	"lce/internal/cloud/aws/dynamodb"
	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
	"lce/internal/fault"
	"lce/internal/metrics"
	"lce/internal/obsv"
	"lce/internal/retry"
	"lce/internal/scenarios"
	"lce/internal/spec"
	"lce/internal/trace"
)

// ChaosRow reports one chaos-bench cell: the alignment engine's
// comparison phase replayed against an oracle injecting transient
// faults at FaultRate, with the resilient client retrying them.
type ChaosRow struct {
	Service   string
	FaultRate float64
	Traces    int
	// Calls/Faults are the injector's totals: logical attempts that
	// reached the chaos layer and the faults it injected.
	Calls  int
	Faults int
	// Retries/TransientFaults are the resilient client's totals.
	Retries         int64
	TransientFaults int64
	// Semantic/ExhaustedTransient classify the divergent traces'
	// first diffs (align.Cause). With a retry policy that covers the
	// injector's consecutive-fault cap, both stay zero.
	Semantic           int
	ExhaustedTransient int
	Elapsed            time.Duration
	// P50/P99 are effective oracle call latencies: wall clock per
	// logical call including injected delays and retry backoff.
	P50, P99 time.Duration
}

// Throughput returns oracle calls per second.
func (r ChaosRow) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Calls) / r.Elapsed.Seconds()
}

// ChaosBench replays the EC2 and DynamoDB suites (replicated
// `replicas` times) through the parallel comparison phase at each
// fault rate, with the chaos layer wrapped around the oracle and the
// default retry policy (jitter stream seeded from `seed`) defending
// the replay. It measures what a flaky cloud costs: retry overhead,
// effective per-call latency, and whether any injected fault leaked
// through as a divergence.
func ChaosBench(workers, replicas int, seed int64, rates []float64) ([]ChaosRow, error) {
	return ChaosBenchObserved(workers, replicas, seed, rates, nil)
}

// ChaosBenchObserved is ChaosBench under an observability stack: each
// comparison records a root span whose events carry every injected
// fault and retry, and per-op latencies land in the registry. A nil
// obs is exactly ChaosBench.
func ChaosBenchObserved(workers, replicas int, seed int64, rates []float64, obs *obsv.Obs) ([]ChaosRow, error) {
	if workers <= 1 {
		workers = 8
	}
	if replicas < 1 {
		replicas = 1
	}
	cases := []struct {
		service string
		suite   []trace.Trace
		factory cloudapi.BackendFactory
	}{
		{"ec2", append(scenarios.EC2Fig3(), scenarios.EC2Extended()...), ec2.Factory()},
		{"dynamodb", scenarios.DynamoDB(), dynamodb.Factory()},
	}
	var rows []ChaosRow
	for _, c := range cases {
		svc, err := speedupSpec(c.service)
		if err != nil {
			return nil, fmt.Errorf("eval: chaos synthesis of %s: %w", c.service, err)
		}
		traces := replicate(c.suite, replicas)
		for _, rate := range rates {
			row, err := chaosCell(svc, c.factory, traces, workers, rate, seed, obs)
			if err != nil {
				return nil, fmt.Errorf("eval: chaos bench %s@%.0f%%: %w", c.service, 100*rate, err)
			}
			row.Service = c.service
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func chaosCell(svc *spec.Service, base cloudapi.BackendFactory, traces []trace.Trace, workers int, rate float64, seed int64, obs *obsv.Obs) (ChaosRow, error) {
	counters := &align.Counters{}
	recorder := &metrics.LatencyRecorder{}
	policy := retry.DefaultPolicy()
	policy.Seed = seed

	var mu sync.Mutex
	var injectors []*fault.Injector
	factory := func() cloudapi.Backend {
		mu.Lock()
		n := int64(len(injectors))
		mu.Unlock()
		cfg := fault.Uniform(rate, seed+n*0x9E3779B9)
		inj := fault.New(base(), cfg)
		mu.Lock()
		injectors = append(injectors, inj)
		mu.Unlock()
		p := policy
		p.Seed = seed ^ (n+1)*0x5DEECE66D
		var b cloudapi.Backend = retry.Wrap(inj, p, counters)
		return &timedBackend{inner: b, rec: recorder}
	}

	start := time.Now()
	reports, _, err := align.CompareSuite(svc, factory, traces, workers, nil, obs)
	if err != nil {
		return ChaosRow{}, err
	}
	row := ChaosRow{FaultRate: rate, Traces: len(traces), Elapsed: time.Since(start)}
	for _, rep := range reports {
		if rep.Aligned() {
			continue
		}
		if align.Cause(*rep.FirstDiff()) == align.CauseExhaustedTransient {
			row.ExhaustedTransient++
		} else {
			row.Semantic++
		}
	}
	for _, inj := range injectors {
		s := inj.Stats()
		row.Calls += s.Calls
		row.Faults += s.Faults
	}
	stats := counters.Snapshot()
	row.Retries, row.TransientFaults = stats.Retries, stats.TransientFaults
	row.P50, row.P99 = recorder.Percentile(50), recorder.Percentile(99)
	return row, nil
}

// timedBackend samples the wall-clock cost of each logical oracle
// call at the outermost layer — injected latency and retry backoff
// included — into a shared recorder.
type timedBackend struct {
	inner cloudapi.Backend
	rec   *metrics.LatencyRecorder
}

func (t *timedBackend) Service() string   { return t.inner.Service() }
func (t *timedBackend) Actions() []string { return t.inner.Actions() }
func (t *timedBackend) Reset()            { t.inner.Reset() }

func (t *timedBackend) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	start := time.Now()
	res, err := t.inner.Invoke(req)
	t.rec.Record(time.Since(start))
	return res, err
}

// FormatChaos renders the chaos-bench table.
func FormatChaos(rows []ChaosRow) string {
	var b strings.Builder
	b.WriteString("Alignment under chaos: flaky oracle + resilient client (per comparison round)\n")
	fmt.Fprintf(&b, "%-12s %6s %8s %8s %8s %9s %10s %10s %9s %10s\n",
		"Service", "rate", "traces", "faults", "retries", "semantic", "exhausted", "p50", "p99", "calls/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %5.0f%% %8d %8d %8d %9d %10d %10s %9s %10.0f\n",
			r.Service, 100*r.FaultRate, r.Traces, r.Faults, r.Retries, r.Semantic, r.ExhaustedTransient,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.Throughput())
	}
	return b.String()
}
