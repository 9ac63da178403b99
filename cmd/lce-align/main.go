// Command lce-align runs the automated alignment loop for a service:
// synthesize a (noisy) emulator from documentation, then iteratively
// diff it against the cloud oracle on symbolically derived traces and
// repair the divergences:
//
//	lce-align -service ec2
//	lce-align -service ec2 -workers 8       # comparison-phase pool size
//	lce-align -service ec2 -chaos -fault-rate 0.1 -chaos-seed 7
//
// The comparison phase fans out across -workers goroutines (default:
// GOMAXPROCS). Without -chaos the result is identical at any worker
// count. Under -chaos each worker owns its own fault stream and traces
// reach workers in scheduling order: with retries the rounds stay
// identical but the retry tallies vary, and with -no-retry the rounds
// vary too. Only -workers 1 reproduces a chaos run exactly.
//
// With -chaos the oracle is wrapped in the deterministic fault
// injector and (unless -no-retry) each worker talks to it through the
// resilient retry client: injected throttling/5xx/timeout faults are
// retried away and the run must converge exactly as the fault-free
// one does — any *semantic* divergence under chaos is a real bug and
// fails the run. With -no-retry the injected faults surface in the
// report, classified as exhausted-transient, and never drive repairs.
//
// With -trace-out the run records a full hierarchical trace — one root
// span per comparison, nested replay and per-call spans, fault and
// retry events — and exports it as JSONL:
//
//	lce-align -service ec2 -chaos -no-retry -trace-out trace.jsonl
//
// Every divergence is then printed with its trace ID, so the replay
// that produced it (both sides' calls, every injected fault, every
// retry) is one grep away. Tracing never changes the result.
package main

import (
	"flag"
	"fmt"
	"os"

	"lce"
)

func main() {
	service := flag.String("service", "ec2", "service to align: ec2 | dynamodb | network-firewall | azure-network")
	workers := flag.Int("workers", 0, "comparison worker pool size (0 = GOMAXPROCS, 1 = serial); any size gives the same result without -chaos, but only 1 reproduces a -chaos run exactly (with -no-retry the rounds vary, with retries the retry tallies)")
	chaos := flag.Bool("chaos", false, "inject transient faults into the oracle")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the fault-injection stream")
	faultRate := flag.Float64("fault-rate", 0.1, "total per-call fault probability when -chaos is set")
	noRetry := flag.Bool("no-retry", false, "disable the resilient oracle client (chaos faults surface as exhausted-transient divergences)")
	perfect := flag.Bool("perfect", false, "synthesize without the noise model (faithful extraction); any divergence is then a real bug")
	traceOut := flag.String("trace-out", "", "record the run's spans and write them to this file as JSONL (empty = tracing off)")
	traceSeed := flag.Int64("trace-seed", 1, "seed for span/trace IDs when -trace-out is set (same seed = same IDs)")
	flag.Parse()

	opts := lce.DefaultOptions()
	if *perfect {
		opts = lce.PerfectOptions()
	}
	cfg := lce.AlignConfig{Workers: *workers}
	if *traceOut != "" {
		cfg.Obs = lce.NewObs(*traceSeed)
	}
	if *chaos {
		faults := lce.UniformFaults(*faultRate, *chaosSeed)
		cfg.Faults = &faults
		if !*noRetry {
			p := lce.DefaultRetryPolicy()
			p.Seed = *chaosSeed
			cfg.Retry = &p
		}
	}
	ob := cfg.Obs
	res, err := lce.Align(*service, opts, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lce-align:", err)
		os.Exit(1)
	}
	if ob != nil {
		writeTrace(*traceOut, ob)
	}
	// Divergences print with their trace IDs when tracing is on: refs
	// are ordered by (round, index), matching each round's Divergence
	// slice order, so position joins the two.
	refsByRound := map[int][]lce.DivergenceRef{}
	for _, ref := range lce.DivergenceTraces(ob) {
		refsByRound[ref.Round] = append(refsByRound[ref.Round], ref)
	}
	fmt.Printf("alignment of %s:\n", *service)
	semantic := 0
	for _, r := range res.Rounds {
		fmt.Printf("  round %d: %d/%d traces aligned", r.Round, r.Aligned, r.Total)
		if len(r.Divergence) > 0 {
			fmt.Printf(" (%d semantic, %d exhausted-transient)", r.Semantic, r.ExhaustedTransient)
		}
		if len(r.Repairs) > 0 {
			fmt.Printf("; repairs:")
			for _, rep := range r.Repairs {
				fmt.Printf(" [%s %s]", rep.Kind, rep.Target)
			}
		}
		fmt.Println()
		semantic += r.Semantic
		for i, d := range r.Divergence {
			fmt.Printf("    divergence: %s (%s): %s", d.Action, d.Kind, d.Detail)
			if refs := refsByRound[r.Round]; i < len(refs) {
				fmt.Printf(" [trace %s]", refs[i].TraceID)
			}
			fmt.Println()
		}
	}
	fmt.Printf("stats: %s\n", res.Stats)
	if s := ob.Summary(); s != "" {
		fmt.Println(s)
	}
	if res.Converged {
		fmt.Println("converged: the emulator is behaviourally aligned with the cloud")
		return
	}
	if *chaos && semantic == 0 {
		// Residual divergences exist but every one is an injected fault
		// that outlasted its retries — the emulator itself never
		// disagreed with the cloud.
		fmt.Println("did NOT converge, but all residual divergences are exhausted-transient (injected faults)")
		return
	}
	fmt.Println("did NOT converge; residual divergences remain")
	os.Exit(2)
}

// writeTrace exports the run's spans as JSONL (one span per line).
func writeTrace(path string, ob *lce.Obs) {
	f, err := os.Create(path)
	if err == nil {
		err = ob.Tracer.WriteJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lce-align: writing trace:", err)
		os.Exit(1)
	}
	fmt.Printf("trace: %d spans written to %s (%d recorded)\n",
		len(ob.Tracer.Snapshot()), path, ob.Tracer.Recorded())
}
