package align

import (
	"reflect"
	"testing"

	"lce/internal/cloud/aws/dynamodb"
	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
	"lce/internal/docs/corpus"
	"lce/internal/fault"
	"lce/internal/retry"
	"lce/internal/scenarios"
	"lce/internal/spec"
	"lce/internal/synth"
	"lce/internal/trace"
)

// chaosCase is one end-to-end degraded-mode scenario: a service's
// standard suite replayed against its oracle behind the chaos layer.
type chaosCase struct {
	service string
	suite   []trace.Trace
	factory cloudapi.BackendFactory
}

func chaosCases(t *testing.T) []chaosCase {
	t.Helper()
	return []chaosCase{
		{"ec2", append(scenarios.EC2Fig3(), scenarios.EC2Extended()...), ec2.Factory()},
		{"dynamodb", scenarios.DynamoDB(), dynamodb.Factory()},
	}
}

func perfectSpec(t *testing.T, service string) *spec.Service {
	t.Helper()
	opts := synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained}
	var brief = corpus.EC2()
	if service == "dynamodb" {
		brief = corpus.DynamoDB()
	}
	svc, _, err := synth.SynthesizeFromBrief(brief, opts)
	if err != nil {
		t.Fatalf("synthesis of %s: %v", service, err)
	}
	return svc
}

// retryPolicy returns a zero-delay policy whose attempt budget covers
// the injector's consecutive-fault cap, so every injected fault is
// guaranteed to be retried to success.
func retryPolicy(seed int64) *retry.Policy {
	return &retry.Policy{MaxAttempts: fault.DefaultMaxConsecutive + 2, Seed: seed}
}

// TestChaosWithRetriesIsByteIdenticalToFaultFree is the subsystem's
// acceptance bar: at a 10% transient-fault rate with the retry policy
// on, a seeded suite replay over EC2 and DynamoDB produces reports
// byte-identical to the fault-free run — zero semantic divergences,
// zero divergences at all.
func TestChaosWithRetriesIsByteIdenticalToFaultFree(t *testing.T) {
	for _, c := range chaosCases(t) {
		for _, workers := range []int{1, 4} {
			svc := perfectSpec(t, c.service)
			clean, _, err := CompareSuite(svc, c.factory, c.suite, workers, nil, nil)
			if err != nil {
				t.Fatal(err)
			}

			svc = perfectSpec(t, c.service)
			flaky := fault.Factory(c.factory, fault.Uniform(0.10, 1234))
			chaotic, stats, err := CompareSuite(svc, flaky, c.suite, workers, retryPolicy(1234), nil)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(clean, chaotic) {
				t.Errorf("%s@%dw: chaos+retry reports differ from fault-free run", c.service, workers)
				for i := range chaotic {
					if !reflect.DeepEqual(clean[i], chaotic[i]) {
						t.Errorf("  first differing trace: %s", trace.FormatReport(chaotic[i]))
						break
					}
				}
			}
			for _, rep := range chaotic {
				if !rep.Aligned() {
					t.Errorf("%s@%dw: divergence under chaos+retry: %s", c.service, workers, trace.FormatReport(rep))
				}
			}
			if stats.TransientFaults == 0 || stats.Retries == 0 {
				t.Errorf("%s@%dw: chaos at 10%% injected no faults (stats: %s) — the test is vacuous", c.service, workers, stats)
			}
			if stats.TracesCompared != int64(len(c.suite)) || stats.Divergent != 0 {
				t.Errorf("%s@%dw: stats %s, want %d comparisons and none divergent", c.service, workers, stats, len(c.suite))
			}
		}
	}
}

// TestChaosWithoutRetriesClassifiesExhaustedTransient: with retries
// off, injected faults leak into the reports — and every resulting
// divergence must classify as exhausted-transient, never semantic.
func TestChaosWithoutRetriesClassifiesExhaustedTransient(t *testing.T) {
	for _, c := range chaosCases(t) {
		svc := perfectSpec(t, c.service)
		flaky := fault.Factory(c.factory, fault.Uniform(0.10, 99))
		reports, _, err := CompareSuite(svc, flaky, c.suite, 4, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		diverged := 0
		for _, rep := range reports {
			if rep.Aligned() {
				continue
			}
			diverged++
			d := *rep.FirstDiff()
			if got := Cause(d); got != CauseExhaustedTransient {
				t.Errorf("%s: injected fault classified %q: %s", c.service, got, trace.FormatReport(rep))
			}
		}
		if diverged == 0 {
			t.Errorf("%s: no divergences at 10%% faults without retries — the test is vacuous", c.service)
		}
	}
}

// TestAlignRunUnderChaosMatchesFaultFree runs the full alignment loop
// (repair phase included) from a noisy synthesis against a flaky
// oracle with retries: rounds, repairs and convergence must be
// byte-identical to the fault-free run, and no round may report a
// fault-caused divergence.
func TestAlignRunUnderChaosMatchesFaultFree(t *testing.T) {
	brief := corpus.EC2()
	opts := synth.DefaultOptions()
	suite := scenarios.EC2Fig3()

	synthRun := func() *spec.Service {
		svc, _, err := synth.SynthesizeFromBrief(brief, opts)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}

	clean, err := Run(synthRun(), brief, ec2.Factory(), suite, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	flaky := fault.Factory(ec2.Factory(), fault.Uniform(0.10, 7))
	chaotic, err := Run(synthRun(), brief, flaky, suite, Options{Workers: 4, Retry: retryPolicy(7)})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(clean.Rounds, chaotic.Rounds) {
		t.Errorf("rounds differ under chaos+retry:\nclean:   %+v\nchaotic: %+v", clean.Rounds, chaotic.Rounds)
	}
	if clean.Converged != chaotic.Converged {
		t.Errorf("converged: clean=%v chaotic=%v", clean.Converged, chaotic.Converged)
	}
	for _, r := range chaotic.Rounds {
		if r.ExhaustedTransient != 0 {
			t.Errorf("round %d: %d exhausted-transient divergences leaked past retries", r.Round, r.ExhaustedTransient)
		}
		if r.Semantic != len(r.Divergence) {
			t.Errorf("round %d: cause counts inconsistent: %d semantic of %d", r.Round, r.Semantic, len(r.Divergence))
		}
	}
	if chaotic.Stats.TransientFaults == 0 {
		t.Error("chaos injected nothing during the alignment run — the test is vacuous")
	}
	// Comparison totals stay deterministic; retry stats ride along.
	if clean.Stats.TracesCompared != chaotic.Stats.TracesCompared || clean.Stats.Repairs != chaotic.Stats.Repairs {
		t.Errorf("stats diverged: clean=%s chaotic=%s", clean.Stats, chaotic.Stats)
	}
}

// TestChaosWithoutRetriesNeverRepairsFromFaults: a transient-caused
// divergence must not drive spec repairs (redocumenting an SM or
// adopting "Throttling" as a documented error code would corrupt the
// spec). With a perfect spec and a flaky oracle, the loop must apply
// zero repairs and report only exhausted-transient causes.
func TestChaosWithoutRetriesNeverRepairsFromFaults(t *testing.T) {
	brief := corpus.EC2()
	svc, _, err := synth.SynthesizeFromBrief(brief, synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		t.Fatal(err)
	}
	flaky := fault.Factory(ec2.Factory(), fault.Uniform(0.10, 5))
	res, err := Run(svc, brief, flaky, scenarios.EC2Fig3(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		if len(r.Repairs) != 0 {
			t.Errorf("round %d: %d repairs driven by injected faults: %+v", r.Round, len(r.Repairs), r.Repairs)
		}
		if r.Semantic != 0 {
			t.Errorf("round %d: %d injected faults misclassified as semantic", r.Round, r.Semantic)
		}
	}
	if res.Stats.Repairs != 0 {
		t.Errorf("stats report %d repairs", res.Stats.Repairs)
	}
}

// TestCause covers the classifier on synthetic diffs.
func TestCause(t *testing.T) {
	ok := &trace.Outcome{OK: true}
	throttled := &trace.Outcome{Code: cloudapi.CodeThrottling}
	invalid := &trace.Outcome{Code: cloudapi.CodeInvalidParameter}
	broken := &trace.Outcome{Broken: true, Message: "boom"}
	cases := []struct {
		name string
		d    trace.StepDiff
		want string
	}{
		{"oracle throttled", trace.StepDiff{Subject: ok, Against: throttled}, CauseExhaustedTransient},
		{"subject throttled", trace.StepDiff{Subject: throttled, Against: ok}, CauseExhaustedTransient},
		{"semantic mismatch", trace.StepDiff{Subject: invalid, Against: ok}, CauseSemantic},
		{"both semantic", trace.StepDiff{Subject: invalid, Against: invalid}, CauseSemantic},
		{"broken backend", trace.StepDiff{Subject: broken, Against: ok}, CauseSemantic},
		{"nil outcomes", trace.StepDiff{}, CauseSemantic},
	}
	for _, c := range cases {
		if got := Cause(c.d); got != c.want {
			t.Errorf("%s: Cause = %q, want %q", c.name, got, c.want)
		}
	}
}
