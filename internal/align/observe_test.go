package align

import (
	"reflect"
	"testing"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/docs/corpus"
	"lce/internal/fault"
	"lce/internal/obsv"
	"lce/internal/scenarios"
	"lce/internal/synth"
)

// TestTracingDoesNotChangeResults is the observability subsystem's
// acceptance bar: a full alignment run (noisy synthesis, repair loop
// engaged) with the tracer and registry on must produce rounds,
// convergence and stats byte-identical to the untraced run.
func TestTracingDoesNotChangeResults(t *testing.T) {
	brief := corpus.EC2()
	suite := scenarios.EC2Fig3()
	run := func(obs *obsv.Obs) *Result {
		svc, _, err := synth.SynthesizeFromBrief(brief, synth.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(svc, brief, ec2.Factory(), suite, Options{Workers: 4, Obs: obs})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(nil)
	obs := obsv.New(42, 0)
	traced := run(obs)

	if !reflect.DeepEqual(plain.Rounds, traced.Rounds) {
		t.Errorf("rounds differ with tracing on:\nplain:  %+v\ntraced: %+v", plain.Rounds, traced.Rounds)
	}
	if plain.Converged != traced.Converged {
		t.Errorf("converged: plain=%v traced=%v", plain.Converged, traced.Converged)
	}
	if !reflect.DeepEqual(plain.Stats, traced.Stats) {
		t.Errorf("stats differ: plain=%+v traced=%+v", plain.Stats, traced.Stats)
	}

	// The traced run actually recorded: root spans, nested replays,
	// per-call spans, and a valid parent structure.
	spans := obs.Tracer.Snapshot()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	if err := obsv.Validate(spans); err != nil {
		t.Errorf("span snapshot invalid: %v", err)
	}
	var roots, replays, calls int
	for _, sp := range spans {
		switch {
		case sp.Name == obsv.SpanAlignTrace:
			roots++
		case sp.Name == obsv.SpanReplayPfx+"emulator", sp.Name == obsv.SpanReplayPfx+"oracle":
			replays++
		case len(sp.Name) > len(obsv.SpanCallPfx) && sp.Name[:len(obsv.SpanCallPfx)] == obsv.SpanCallPfx:
			calls++
		}
	}
	if roots == 0 || replays != 2*roots || calls == 0 {
		t.Errorf("span taxonomy off: %d roots, %d replays (want %d), %d calls",
			roots, replays, 2*roots, calls)
	}
	// And the registry saw the run: counters published, op latencies in.
	if got := obs.Registry.Counter("lce_align_comparisons_total").Value(); got != traced.Stats.TracesCompared {
		t.Errorf("registry comparisons = %d, stats say %d", got, traced.Stats.TracesCompared)
	}
	if obs.Registry.Histogram(obsv.MetricBackendOpSeconds, "action", "RunInstances", "role", "oracle").Count() == 0 {
		t.Error("no oracle op latencies recorded")
	}
}

// TestTraceIDsIgnoreWorkerCount: root trace IDs are keyed by (round,
// index), so the same suite traced at different worker counts yields
// identical ID sets — a parallel chaos run's trace is greppable by the
// IDs a serial repro run prints.
func TestTraceIDsIgnoreWorkerCount(t *testing.T) {
	suite := scenarios.EC2Fig3()
	ids := func(workers int) map[string]string {
		svc := perfectSpec(t, "ec2")
		obs := obsv.New(7, 0)
		if _, _, err := CompareSuite(svc, ec2.Factory(), suite, workers, nil, obs); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, sp := range obs.Tracer.Snapshot() {
			if sp.Root() {
				out[sp.Attrs["index"]] = sp.TraceID
			}
		}
		return out
	}
	serial, parallel := ids(1), ids(4)
	if len(serial) != len(suite) {
		t.Fatalf("expected %d roots, got %d", len(suite), len(serial))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("trace IDs depend on worker count:\nserial:   %v\nparallel: %v", serial, parallel)
	}
}

// TestChaosTraceIsComplete is the ISSUE's acceptance scenario: under
// chaos without retries, every divergence in the reports is findable
// by trace ID via DivergenceTraces, every injected fault appears as a
// span event, and the whole snapshot validates.
func TestChaosTraceIsComplete(t *testing.T) {
	suite := scenarios.EC2Fig3()
	svc := perfectSpec(t, "ec2")
	obs := obsv.New(99, 0)
	flaky := fault.Factory(ec2.Factory(), fault.Uniform(0.10, 99))
	reports, stats, err := CompareSuite(svc, flaky, suite, 4, nil, obs)
	if err != nil {
		t.Fatal(err)
	}

	spans := obs.Tracer.Snapshot()
	if err := obsv.Validate(spans); err != nil {
		t.Fatalf("chaos snapshot invalid: %v", err)
	}

	refs := DivergenceTraces(spans)
	byIndex := map[int]DivergenceRef{}
	for _, r := range refs {
		byIndex[r.Index] = r
	}
	diverged := 0
	for i, rep := range reports {
		if rep.Aligned() {
			if _, ok := byIndex[i]; ok {
				t.Errorf("trace %d aligned but flagged divergent in the span snapshot", i)
			}
			continue
		}
		diverged++
		ref, ok := byIndex[i]
		if !ok {
			t.Errorf("divergence at trace %d has no trace ID", i)
			continue
		}
		d := rep.FirstDiff()
		if ref.Action != d.Action || ref.Cause != Cause(*d) || ref.Trace != suite[i].Name {
			t.Errorf("trace %d ref mismatch: %s vs diff %+v", i, ref, d)
		}
	}
	if diverged == 0 {
		t.Fatal("no divergences at 10% faults without retries — the test is vacuous")
	}

	// Every injected fault the chaos layer logged shows up as an event
	// on some span, and the carrying trace IDs are real roots.
	faultIDs := FaultTraces(spans)
	if len(faultIDs) == 0 {
		t.Fatal("chaos injected faults but no fault.injected events were recorded")
	}
	roots := map[string]bool{}
	for _, sp := range spans {
		if sp.Root() {
			roots[sp.TraceID] = true
		}
	}
	for _, id := range faultIDs {
		if !roots[id] {
			t.Errorf("fault event on trace %s which has no root span", id)
		}
	}
	var injectedEvents int
	for _, sp := range spans {
		for _, e := range sp.Events {
			if e.Name == obsv.EventFault {
				injectedEvents++
				if e.Attrs["code"] == "" {
					t.Errorf("fault event missing code: %+v", e)
				}
			}
		}
	}
	if injectedEvents == 0 {
		t.Error("no fault.injected events recorded")
	}
	if stats.TracesCompared != int64(len(suite)) {
		t.Errorf("stats saw %d comparisons, want %d", stats.TracesCompared, len(suite))
	}
}

// BenchmarkCompareSuiteObserved measures the nil-tracer overhead: the
// disabled path must cost a nil check per layer and nothing else.
// Compare the untraced sub-benchmark's ns/op against traced.
func BenchmarkCompareSuiteObserved(b *testing.B) {
	for _, bc := range []struct {
		name string
		obs  *obsv.Obs
	}{
		{"untraced", nil},
		{"traced", obsv.New(1, 0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			svc, _, err := synth.SynthesizeFromBrief(corpus.EC2(), synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
			if err != nil {
				b.Fatal(err)
			}
			suite := scenarios.EC2Fig3()
			factory := ec2.Factory()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := CompareSuite(svc, factory, suite, 1, nil, bc.obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
