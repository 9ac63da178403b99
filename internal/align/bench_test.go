package align

import (
	"fmt"
	"testing"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/docs/corpus"
	"lce/internal/scenarios"
	"lce/internal/synth"
	"lce/internal/trace"
)

// BenchmarkCompareSuite measures one alignment round's comparison
// phase — the engine's hot loop — at several pool sizes over the EC2
// suite replicated 10x. sub-benchmark names expose the worker count so
// `benchstat` shows the scaling curve directly.
func BenchmarkCompareSuite(b *testing.B) {
	svc, _, err := synth.SynthesizeFromBrief(corpus.EC2(), synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
	if err != nil {
		b.Fatal(err)
	}
	suite := append(scenarios.EC2Fig3(), scenarios.EC2Extended()...)
	var traces []trace.Trace
	for i := 0; i < 10; i++ {
		traces = append(traces, suite...)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := CompareSuite(svc, ec2.Factory(), traces, workers, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunParallel measures the full alignment loop (compare +
// repair rounds) serial vs 8 workers on a noisy EC2 spec.
func BenchmarkRunParallel(b *testing.B) {
	seeds := append(scenarios.EC2Fig3(), scenarios.EC2Extended()...)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				svc, _, err := synth.SynthesizeFromBrief(corpus.EC2(), synth.Options{Noise: synth.Preliminary, Decoding: synth.Constrained})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := Run(svc, corpus.EC2(), ec2.Factory(), seeds, Options{GenerateViolations: true, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("alignment did not converge")
				}
			}
		})
	}
}
