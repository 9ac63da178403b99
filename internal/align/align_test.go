package align

import (
	"testing"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloud/azure"
	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/scenarios"
	"lce/internal/synth"
	"lce/internal/trace"
)

func TestAlignmentConvergesEC2(t *testing.T) {
	brief := corpus.EC2()
	svc, _, err := synth.SynthesizeFromBrief(brief, synth.Options{Noise: synth.Preliminary, Decoding: synth.Constrained})
	if err != nil {
		t.Fatal(err)
	}
	seeds := append(scenarios.EC2Fig3(), scenarios.EC2Extended()...)
	res, err := Run(svc, brief, ec2.Factory(), seeds, Options{GenerateViolations: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		last := res.Rounds[len(res.Rounds)-1]
		t.Fatalf("alignment did not converge after %d rounds (%d/%d aligned); first residual: %+v",
			len(res.Rounds), last.Aligned, last.Total, last.Divergence[0])
	}
	if len(res.Rounds) < 2 {
		t.Errorf("converged in %d rounds: the noisy spec had nothing to repair?", len(res.Rounds))
	}
	// Accuracy must be monotone non-decreasing across rounds (A1).
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].Aligned < res.Rounds[i-1].Aligned {
			t.Errorf("round %d aligned %d < round %d aligned %d",
				i+1, res.Rounds[i].Aligned, i, res.Rounds[i-1].Aligned)
		}
	}
	t.Logf("converged in %d rounds; repairs: %d", len(res.Rounds), totalRepairs(res))
}

func totalRepairs(res *Result) int {
	n := 0
	for _, r := range res.Rounds {
		n += len(r.Repairs)
	}
	return n
}

func TestAlignmentConvergesAzure(t *testing.T) {
	brief := corpus.Azure()
	svc, _, err := synth.SynthesizeFromBrief(brief, synth.Options{Noise: synth.Preliminary, Decoding: synth.Constrained})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(svc, brief, azure.Factory(), scenarios.AzureFig3(), Options{GenerateViolations: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		last := res.Rounds[len(res.Rounds)-1]
		t.Fatalf("azure alignment did not converge (%d/%d): %+v", last.Aligned, last.Total, last.Divergence)
	}
}

func TestAlignmentIsNoOpOnPerfectSpec(t *testing.T) {
	brief := corpus.EC2()
	svc, _, err := synth.SynthesizeFromBrief(brief, synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(svc, brief, ec2.Factory(), scenarios.EC2Fig3(), Options{GenerateViolations: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Rounds) != 1 {
		t.Errorf("perfect spec took %d rounds", len(res.Rounds))
	}
	if totalRepairs(res) != 0 {
		t.Errorf("perfect spec repaired %d times", totalRepairs(res))
	}
}

// TestAlignmentAdoptsCloudCode simulates stale documentation: the doc
// ships a wrong error code; redocumenting cannot fix it, so the engine
// must adopt the code the cloud was observed to return (§4.3).
func TestAlignmentAdoptsCloudCode(t *testing.T) {
	brief := corpus.EC2()
	// Stale doc: the VPC range constraint documents the wrong code.
	vpc := brief.Resource("Vpc")
	for ai := range vpc.APIs {
		a := &vpc.APIs[ai]
		if a.Name != "CreateVpc" {
			continue
		}
		for ci := range a.Clauses {
			if a.Clauses[ci].Error == "InvalidVpc.Range" {
				a.Clauses[ci].Error = "Stale.DocumentedCode"
			}
		}
	}
	svc, _, err := synth.SynthesizeFromBrief(brief, synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		t.Fatal(err)
	}
	staleTrace := trace.Trace{
		Name: "stale-code", Scenario: "edge-cases",
		Steps: []trace.Step{
			{Action: "CreateVpc", Params: map[string]trace.Arg{"cidrBlock": trace.S("10.0.0.0/8")}},
		},
	}
	res, err := Run(svc, brief, ec2.Factory(), []trace.Trace{staleTrace}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res.Rounds[len(res.Rounds)-1].Divergence)
	}
	adopted := false
	for _, r := range res.Rounds {
		for _, rep := range r.Repairs {
			if rep.Kind == "adopt-cloud-code" {
				adopted = true
			}
		}
	}
	if !adopted {
		t.Error("engine never adopted the observed cloud code")
	}
}

// TestLocalization verifies divergences map to the owning SM.
func TestLocalization(t *testing.T) {
	brief := corpus.EC2()
	svc, _, err := synth.SynthesizeFromBrief(brief, synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		t.Fatal(err)
	}
	if got := localize(svc, "CreateSubnet"); got != "Subnet" {
		t.Errorf("localize(CreateSubnet) = %q", got)
	}
	if got := localize(svc, "NoSuchAction"); got != "" {
		t.Errorf("localize(NoSuchAction) = %q", got)
	}
}

var _ = docs.Render
