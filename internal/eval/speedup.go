package eval

import (
	"fmt"
	"strings"
	"time"

	"lce/internal/align"
	"lce/internal/cloud/aws/dynamodb"
	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloud/aws/netfw"
	"lce/internal/cloud/azure"
	"lce/internal/cloudapi"
	"lce/internal/docs/corpus"
	"lce/internal/scenarios"
	"lce/internal/spec"
	"lce/internal/synth"
	"lce/internal/trace"
)

// SpeedupRow reports the serial-vs-parallel wall-clock cost of one
// alignment comparison round (the engine's hot phase) for one service.
type SpeedupRow struct {
	Service   string
	Traces    int
	Workers   int
	OracleRTT time.Duration
	Serial    time.Duration
	Parallel  time.Duration
}

// Speedup returns Serial/Parallel (1.0 means no gain).
func (r SpeedupRow) Speedup() float64 {
	if r.Parallel <= 0 {
		return 0
	}
	return float64(r.Serial) / float64(r.Parallel)
}

// AlignSpeedup measures the alignment engine's comparison phase at 1
// worker versus `workers` workers over the multi-service scenario
// (EC2, DynamoDB, Network Firewall, Azure). Each service's standard
// trace suite is replicated `replicas` times to model a large scenario
// sweep, and each timing is the best of `reps` passes to damp
// scheduler noise. The final row aggregates all services — the
// headline parallel-vs-serial number.
//
// oracleRTT simulates the per-call network round trip the real
// deployment pays: the paper's oracle is the actual cloud, reached
// over a WAN, while this reproduction's oracles are in-process and
// answer in microseconds. With a latency-bearing oracle the pool's
// speedup comes from overlapping waits (visible even on one core);
// with oracleRTT = 0 the measurement is pure CPU scaling and needs
// multiple cores to show gains.
func AlignSpeedup(workers, replicas, reps int, oracleRTT time.Duration) ([]SpeedupRow, error) {
	if workers <= 1 {
		workers = 8
	}
	if replicas < 1 {
		replicas = 1
	}
	if reps < 1 {
		reps = 1
	}
	cases := []struct {
		service string
		suite   []trace.Trace
		factory cloudapi.BackendFactory
	}{
		{"ec2", append(scenarios.EC2Fig3(), scenarios.EC2Extended()...), ec2.Factory()},
		{"dynamodb", scenarios.DynamoDB(), dynamodb.Factory()},
		{"network-firewall", scenarios.NetworkFirewall(), netfw.Factory()},
		{"azure-network", scenarios.AzureFig3(), azure.Factory()},
	}

	var rows []SpeedupRow
	total := SpeedupRow{Service: "all-services", Workers: workers, OracleRTT: oracleRTT}
	for _, c := range cases {
		svc, err := speedupSpec(c.service)
		if err != nil {
			return nil, fmt.Errorf("eval: speedup synthesis of %s: %w", c.service, err)
		}
		factory := cloudapi.LatencyFactory(c.factory, oracleRTT)
		traces := replicate(c.suite, replicas)
		serial, err := timeCompare(svc, factory, traces, 1, reps)
		if err != nil {
			return nil, err
		}
		parallel, err := timeCompare(svc, factory, traces, workers, reps)
		if err != nil {
			return nil, err
		}
		row := SpeedupRow{Service: c.service, Traces: len(traces), Workers: workers, OracleRTT: oracleRTT, Serial: serial, Parallel: parallel}
		rows = append(rows, row)
		total.Traces += row.Traces
		total.Serial += row.Serial
		total.Parallel += row.Parallel
	}
	rows = append(rows, total)
	return rows, nil
}

// speedupSpec synthesizes a zero-noise spec for the service so the
// benchmark measures trace replay, not repair churn.
func speedupSpec(service string) (*spec.Service, error) {
	opts := synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained}
	switch service {
	case "ec2":
		svc, _, err := synth.SynthesizeFromBrief(corpus.EC2(), opts)
		return svc, err
	case "dynamodb":
		svc, _, err := synth.SynthesizeFromBrief(corpus.DynamoDB(), opts)
		return svc, err
	case "network-firewall":
		svc, _, err := synth.SynthesizeFromBrief(corpus.NetworkFirewall(), opts)
		return svc, err
	case "azure-network":
		svc, _, err := synth.SynthesizeFromBrief(corpus.Azure(), opts)
		return svc, err
	default:
		return nil, fmt.Errorf("eval: no speedup case for %q", service)
	}
}

func replicate(suite []trace.Trace, n int) []trace.Trace {
	out := make([]trace.Trace, 0, len(suite)*n)
	for i := 0; i < n; i++ {
		out = append(out, suite...)
	}
	return out
}

func timeCompare(svc *spec.Service, factory cloudapi.BackendFactory, traces []trace.Trace, workers, reps int) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, _, err := align.CompareSuite(svc, factory, traces, workers, nil, nil); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}

// FormatSpeedup renders the speedup table.
func FormatSpeedup(rows []SpeedupRow) string {
	var b strings.Builder
	rtt := time.Duration(0)
	if len(rows) > 0 {
		rtt = rows[0].OracleRTT
	}
	if rtt > 0 {
		fmt.Fprintf(&b, "Alignment comparison phase: serial vs parallel (per round; simulated oracle RTT %s)\n", rtt)
	} else {
		b.WriteString("Alignment comparison phase: serial vs parallel (per round; in-process oracle, pure CPU)\n")
	}
	fmt.Fprintf(&b, "%-20s %8s %9s %12s %12s %9s\n", "Service", "traces", "workers", "serial", "parallel", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %8d %9d %12s %12s %8.2fx\n",
			r.Service, r.Traces, r.Workers, r.Serial.Round(time.Microsecond), r.Parallel.Round(time.Microsecond), r.Speedup())
	}
	return b.String()
}
