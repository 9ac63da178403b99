package align

import (
	"reflect"
	"testing"

	"lce/internal/cloud/aws/dynamodb"
	"lce/internal/cloud/aws/ec2"
	"lce/internal/docs/corpus"
	"lce/internal/scenarios"
	"lce/internal/spec"
	"lce/internal/synth"
)

// synthPreliminary rebuilds the noisy spec fresh for each engine run;
// synthesis is seeded, so both runs start from identical specs.
func synthPreliminary(t *testing.T, service string) *spec.Service {
	t.Helper()
	var svc *spec.Service
	var err error
	switch service {
	case "ec2":
		svc, _, err = synth.SynthesizeFromBrief(corpus.EC2(), synth.Options{Noise: synth.Preliminary, Decoding: synth.Constrained})
	case "dynamodb":
		svc, _, err = synth.SynthesizeFromBrief(corpus.DynamoDB(), synth.Options{Noise: synth.Preliminary, Decoding: synth.Constrained})
	default:
		t.Fatalf("no brief for %q", service)
	}
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// assertIdenticalResults requires two alignment Results to match in
// everything observable: convergence, per-round counts, divergences
// (order included), repairs (order included), and run stats.
func assertIdenticalResults(t *testing.T, serial, parallel *Result) {
	t.Helper()
	if serial.Converged != parallel.Converged {
		t.Fatalf("converged: serial %v, parallel %v", serial.Converged, parallel.Converged)
	}
	if len(serial.Rounds) != len(parallel.Rounds) {
		t.Fatalf("rounds: serial %d, parallel %d", len(serial.Rounds), len(parallel.Rounds))
	}
	for i := range serial.Rounds {
		s, p := serial.Rounds[i], parallel.Rounds[i]
		if s.Round != p.Round || s.Aligned != p.Aligned || s.Total != p.Total {
			t.Fatalf("round %d header: serial %+v, parallel %+v", i+1, s, p)
		}
		if !reflect.DeepEqual(s.Repairs, p.Repairs) {
			t.Fatalf("round %d repairs diverge:\n serial  %+v\n parallel %+v", i+1, s.Repairs, p.Repairs)
		}
		if !reflect.DeepEqual(s.Divergence, p.Divergence) {
			t.Fatalf("round %d divergences differ (len %d vs %d)", i+1, len(s.Divergence), len(p.Divergence))
		}
	}
	if serial.Stats != parallel.Stats {
		t.Fatalf("stats: serial %+v, parallel %+v", serial.Stats, parallel.Stats)
	}
}

// TestParallelDeterminismEC2 is the engine's core guarantee: an
// 8-worker run must produce a Result byte-identical to the serial run
// on the EC2 seed suite (the paper's full Fig. 3 + extended workload,
// preliminary noise so real repairs happen).
func TestParallelDeterminismEC2(t *testing.T) {
	seeds := append(scenarios.EC2Fig3(), scenarios.EC2Extended()...)

	serial, err := Run(synthPreliminary(t, "ec2"), corpus.EC2(), ec2.Factory(), seeds,
		Options{GenerateViolations: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(synthPreliminary(t, "ec2"), corpus.EC2(), ec2.Factory(), seeds,
		Options{GenerateViolations: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Converged {
		t.Fatal("serial EC2 alignment no longer converges; determinism comparison is vacuous")
	}
	assertIdenticalResults(t, serial, parallel)
}

// TestParallelDeterminismDynamoDB repeats the guarantee on the second
// seed suite.
func TestParallelDeterminismDynamoDB(t *testing.T) {
	seeds := scenarios.DynamoDB()

	serial, err := Run(synthPreliminary(t, "dynamodb"), corpus.DynamoDB(), dynamodb.Factory(), seeds,
		Options{GenerateViolations: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(synthPreliminary(t, "dynamodb"), corpus.DynamoDB(), dynamodb.Factory(), seeds,
		Options{GenerateViolations: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalResults(t, serial, parallel)
}

// TestCompareSuiteOrdering verifies the deterministic merge: reports
// come back in suite order with their trace index stamped, regardless
// of which worker ran them.
func TestCompareSuiteOrdering(t *testing.T) {
	svc, _, err := synth.SynthesizeFromBrief(corpus.EC2(), synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		t.Fatal(err)
	}
	traces := append(scenarios.EC2Fig3(), scenarios.EC2Extended()...)
	reports, _, err := CompareSuite(svc, ec2.Factory(), traces, 8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(traces) {
		t.Fatalf("got %d reports for %d traces", len(reports), len(traces))
	}
	for i, rep := range reports {
		if rep.TraceIndex != i {
			t.Fatalf("report %d carries trace index %d", i, rep.TraceIndex)
		}
		if rep.Trace.Name != traces[i].Name {
			t.Fatalf("report %d is for trace %q, want %q", i, rep.Trace.Name, traces[i].Name)
		}
	}
}

// TestPoolSizeFallbacks pins the worker-resolution rules: clamp to the
// trace count, floor at 1.
func TestPoolSizeFallbacks(t *testing.T) {
	cases := []struct {
		requested, traces, want int
	}{
		{8, 3, 3},
		{0, 1, 1},
		{1, 50, 1},
		{2, 50, 2},
		{4, 0, 1},
	}
	for _, c := range cases {
		if got := poolSize(c.requested, c.traces); got != c.want {
			t.Errorf("poolSize(%d, %d) = %d, want %d", c.requested, c.traces, got, c.want)
		}
	}
}

// TestNilFactoryRejected: both engine entry points refuse a nil oracle
// factory with an error instead of panicking in a worker.
func TestNilFactoryRejected(t *testing.T) {
	svc, _, err := synth.SynthesizeFromBrief(corpus.EC2(), synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := Run(svc, corpus.EC2(), nil, scenarios.EC2Fig3(), Options{}); err == nil || res != nil {
		t.Errorf("Run with nil factory = (%v, %v), want (nil, error)", res, err)
	}
	if reports, _, err := CompareSuite(svc, nil, scenarios.EC2Fig3(), 4, nil, nil); err == nil || reports != nil {
		t.Errorf("CompareSuite with nil factory = (%d reports, %v), want error", len(reports), err)
	}
}
