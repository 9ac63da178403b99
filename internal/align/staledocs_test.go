package align

import (
	"testing"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/scenarios"
	"lce/internal/symexec"
	"lce/internal/synth"
)

// TestAlignmentRecoversFromDegradedDocs is the end-to-end stale-docs
// experiment: the documentation itself carries out-of-date error codes
// (§4.3/§6), so re-reading it cannot fix the divergences — the engine
// must fall back to adopting the codes the cloud was observed to
// return.
func TestAlignmentRecoversFromDegradedDocs(t *testing.T) {
	stale := docs.Degrade(corpus.EC2(), docs.Imperfection{Seed: 5, StaleCode: 0.15})
	svc, _, err := synth.SynthesizeFromBrief(stale, synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		t.Fatal(err)
	}
	seeds := append(scenarios.EC2Fig3(), scenarios.EC2Extended()...)
	// Sanity: the stale docs must actually cause wrong-code
	// divergences before alignment.
	preDiverged := 0
	checks := symexec.Checks(svc)
	for _, c := range checks {
		if len(c.Code) > 7 && c.Code[:7] == "Legacy." {
			preDiverged++
		}
	}
	if preDiverged == 0 {
		t.Fatal("degradation injected no stale codes")
	}
	res, err := Run(svc, stale, ec2.Factory(), seeds, Options{GenerateViolations: true, MaxRounds: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		last := res.Rounds[len(res.Rounds)-1]
		t.Fatalf("did not converge (%d/%d): %+v", last.Aligned, last.Total, last.Divergence)
	}
	adopted := 0
	for _, r := range res.Rounds {
		for _, rep := range r.Repairs {
			if rep.Kind == "adopt-cloud-code" {
				adopted++
			}
		}
	}
	if adopted == 0 {
		t.Error("no adopt-cloud-code repairs despite stale documentation")
	}
	t.Logf("stale codes in spec: %d; adopted from cloud observation: %d; rounds: %d",
		preDiverged, adopted, len(res.Rounds))
}

// TestAlignmentRecoversFromUnderspecifiedDocs drops documented
// constraints entirely (§6 "Underspecified Documentation"): the
// emulator then accepts calls the cloud rejects. Re-reading the same
// underspecified docs cannot restore the checks, so the loop is
// expected to stall on those — the paper's own limitation ("our
// emulator relies solely on the alignment phase to gather concrete
// resource behavior"; full repair would require observing the cloud's
// checks, which we surface as residual divergences).
func TestAlignmentRecoversFromUnderspecifiedDocs(t *testing.T) {
	under := docs.Degrade(corpus.EC2(), docs.Imperfection{Seed: 9, DropClause: 0.1})
	svc, _, err := synth.SynthesizeFromBrief(under, synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(svc, under, ec2.Factory(), scenarios.EC2Fig3(), Options{GenerateViolations: true})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Rounds[len(res.Rounds)-1]
	// The loop must terminate (no infinite repair churn) and must not
	// regress; full convergence is not guaranteed with missing clauses.
	if last.Aligned < res.Rounds[0].Aligned {
		t.Errorf("alignment regressed: %d -> %d", res.Rounds[0].Aligned, last.Aligned)
	}
	t.Logf("underspecified docs: %d/%d aligned after %d rounds (converged=%v)",
		last.Aligned, last.Total, len(res.Rounds), res.Converged)
}
