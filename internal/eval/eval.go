// Package eval regenerates every table and figure in the paper's
// evaluation (§5). Each experiment has one entry point returning
// structured rows plus a formatter that prints them in the paper's
// shape; bench_test.go and cmd/lce-bench drive these.
package eval

import (
	"fmt"
	"strings"
	"time"

	"lce/internal/align"
	"lce/internal/catalog"
	"lce/internal/cloud/aws/dynamodb"
	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloud/aws/eks"
	"lce/internal/cloud/aws/netfw"
	"lce/internal/cloud/azure"
	"lce/internal/cloudapi"
	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/interp"
	"lce/internal/manual"
	"lce/internal/metrics"
	"lce/internal/scenarios"
	"lce/internal/spec"
	"lce/internal/synth"
	"lce/internal/synth/d2c"
	"lce/internal/trace"
)

// ---------- Table 1 ----------

// CoverageRow is one row of Table 1.
type CoverageRow struct {
	Service  string
	APIs     int
	Emulated int
}

// Ratio returns the coverage fraction.
func (r CoverageRow) Ratio() float64 {
	if r.APIs == 0 {
		return 0
	}
	return float64(r.Emulated) / float64(r.APIs)
}

// Table1 computes the manual baseline's coverage over the full service
// catalogs — the paper's Table 1.
func Table1() []CoverageRow {
	rows := []CoverageRow{}
	add := func(label string, cat catalog.Catalog, baseline cloudapi.Backend) {
		n, _ := cat.Coverage(baseline.Actions())
		rows = append(rows, CoverageRow{Service: label, APIs: cat.Len(), Emulated: n})
	}
	add("Compute (ec2)", catalog.EC2(ec2.New().Actions()), manual.NewEC2())
	add("DB (dynamodb)", catalog.DynamoDB(dynamodb.New().Actions()), manual.NewDynamoDB())
	add("Network Firewall", catalog.NetworkFirewall(netfw.New().Actions()), manual.NewNetworkFirewall())
	add("Kubernetes (eks)", catalog.EKS(eks.New().Actions()), manual.NewEKS())
	total := CoverageRow{Service: "Overall (subset)"}
	for _, r := range rows {
		total.APIs += r.APIs
		total.Emulated += r.Emulated
	}
	rows = append(rows, total)
	return rows
}

// FormatTable1 renders the rows in the paper's layout.
func FormatTable1(rows []CoverageRow) string {
	var b strings.Builder
	b.WriteString("Table 1: coverage of the manual baseline (Moto-style)\n")
	fmt.Fprintf(&b, "%-18s %6s %9s %9s\n", "Services", "APIs", "Emulated", "Coverage")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %6d %9d %8.0f%%\n", r.Service, r.APIs, r.Emulated, 100*r.Ratio())
	}
	return b.String()
}

// ---------- Figure 3 ----------

// SystemAccuracy is one bar group of Fig. 3.
type SystemAccuracy struct {
	System string
	// PerScenario maps scenario -> aligned/total.
	PerScenario map[string][2]int
	Aligned     int
	Total       int
}

// Fig3Systems builds the three systems the figure compares on the EC2
// workload: direct-to-code, learned without alignment, learned with
// alignment.
func Fig3Systems() (map[string]cloudapi.Backend, error) {
	out := map[string]cloudapi.Backend{}

	d2cEmu, err := d2c.New(docs.Render(corpus.EC2()))
	if err != nil {
		return nil, fmt.Errorf("eval: d2c: %w", err)
	}
	out["direct-to-code"] = d2cEmu

	noAlign, _, err := synth.Synthesize(docs.Render(corpus.EC2()), synth.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("eval: learned: %w", err)
	}
	noAlignEmu, err := interp.New(noAlign)
	if err != nil {
		return nil, err
	}
	out["learned (no alignment)"] = noAlignEmu

	brief := corpus.EC2()
	alignedSvc, _, err := synth.SynthesizeFromBrief(brief, synth.DefaultOptions())
	if err != nil {
		return nil, err
	}
	seeds := append(scenarios.EC2Fig3(), scenarios.EC2Extended()...)
	res, err := align.Run(alignedSvc, brief, ec2.Factory(), seeds, align.Options{GenerateViolations: true})
	if err != nil {
		return nil, fmt.Errorf("eval: alignment: %w", err)
	}
	out["learned (aligned)"] = res.Final
	return out, nil
}

// Fig3 measures per-scenario trace alignment for each system against
// the EC2 oracle — the data behind Fig. 3.
func Fig3() ([]SystemAccuracy, error) {
	systems, err := Fig3Systems()
	if err != nil {
		return nil, err
	}
	order := []string{"direct-to-code", "learned (no alignment)", "learned (aligned)"}
	var out []SystemAccuracy
	for _, name := range order {
		acc := MeasureAccuracy(systems[name], ec2.New(), scenarios.EC2Fig3())
		acc.System = name
		out = append(out, acc)
	}
	return out, nil
}

// MeasureAccuracy runs a trace suite differentially and aggregates
// alignment per scenario.
func MeasureAccuracy(subject, oracle cloudapi.Backend, traces []trace.Trace) SystemAccuracy {
	acc := SystemAccuracy{PerScenario: map[string][2]int{}}
	for _, tr := range traces {
		rep := trace.Compare(subject, oracle, tr)
		cell := acc.PerScenario[tr.Scenario]
		cell[1]++
		acc.Total++
		if rep.Aligned() {
			cell[0]++
			acc.Aligned++
		}
		acc.PerScenario[tr.Scenario] = cell
	}
	return acc
}

// FormatFig3 renders the accuracy matrix.
func FormatFig3(rows []SystemAccuracy) string {
	var b strings.Builder
	b.WriteString("Figure 3: accuracy of learned emulators across scenarios (aligned traces / total)\n")
	scenariosOrder := []string{"provisioning", "state-updates", "edge-cases"}
	fmt.Fprintf(&b, "%-24s", "System")
	for _, s := range scenariosOrder {
		fmt.Fprintf(&b, " %14s", s)
	}
	fmt.Fprintf(&b, " %9s\n", "overall")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s", r.System)
		for _, s := range scenariosOrder {
			cell := r.PerScenario[s]
			fmt.Fprintf(&b, " %11d/%-2d", cell[0], cell[1])
		}
		fmt.Fprintf(&b, " %6d/%-2d\n", r.Aligned, r.Total)
	}
	return b.String()
}

// ---------- Figure 4 ----------

// Fig4Series is one service's complexity CDF.
type Fig4Series struct {
	Service string
	SMs     int
	Points  []metrics.CDFPoint
	Mean    float64
	Max     int
}

// Fig4 synthesizes the specs and computes the CDF of SM complexity for
// EC2, Network Firewall, and DynamoDB — the data behind Fig. 4.
func Fig4() ([]Fig4Series, error) {
	var out []Fig4Series
	for _, d := range []*docs.ServiceDoc{corpus.EC2(), corpus.NetworkFirewall(), corpus.DynamoDB()} {
		svc, _, err := synth.Synthesize(docs.Render(d), synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
		if err != nil {
			return nil, err
		}
		series := Fig4Series{Service: d.Service, SMs: len(svc.SMs), Points: metrics.CDF(svc)}
		total := 0
		for _, c := range metrics.Complexities(svc) {
			total += c.Total()
			if c.Total() > series.Max {
				series.Max = c.Total()
			}
		}
		series.Mean = float64(total) / float64(len(svc.SMs))
		out = append(out, series)
	}
	return out, nil
}

// FormatFig4 renders the CDF series as text.
func FormatFig4(series []Fig4Series) string {
	var b strings.Builder
	b.WriteString("Figure 4: CDF of SM complexity (states + transitions) across services\n")
	for _, s := range series {
		fmt.Fprintf(&b, "%s: %d SMs, mean complexity %.1f, max %d\n", s.Service, s.SMs, s.Mean, s.Max)
		fmt.Fprintf(&b, "  complexity: ")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "(%g, %.2f) ", p.X, p.Y)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------- §5 basic functionality ----------

// BasicResult records the §5 "basic functionality" demonstration.
type BasicResult struct {
	SynthesisTime time.Duration
	Aligned       bool
	Steps         int
}

// BasicFunctionality synthesizes the EC2 emulator, runs the paper's
// VPC→Subnet→ModifySubnetAttribute program, and reports whether the
// responses align with the cloud.
func BasicFunctionality() (BasicResult, error) {
	start := time.Now()
	svc, _, err := synth.Synthesize(docs.Render(corpus.EC2()), synth.Options{Noise: synth.Perfect, Decoding: synth.Free, MaxRePrompts: 8})
	if err != nil {
		return BasicResult{}, err
	}
	emu, err := interp.New(svc)
	if err != nil {
		return BasicResult{}, err
	}
	elapsed := time.Since(start)
	tr := scenarios.BasicFunctionality()
	rep := trace.Compare(emu, ec2.New(), tr)
	return BasicResult{SynthesisTime: elapsed, Aligned: rep.Aligned(), Steps: len(tr.Steps)}, nil
}

// ---------- §5 versus manual engineering ----------

// VersusManualRow compares learned vs baseline coverage of a service's
// modeled API surface.
type VersusManualRow struct {
	Service  string
	Surface  int
	Learned  int
	Baseline int
}

// VersusManual reproduces the coverage comparison: the learned
// emulator captures every documented action (45/45 for Network
// Firewall, full EC2 and DynamoDB surfaces); the Moto-style baseline
// captures 5/45, and partial subsets elsewhere.
func VersusManual() ([]VersusManualRow, error) {
	cases := []struct {
		label    string
		doc      *docs.ServiceDoc
		oracle   cloudapi.Backend
		baseline cloudapi.Backend
	}{
		{"ec2", corpus.EC2(), ec2.New(), manual.NewEC2()},
		{"dynamodb", corpus.DynamoDB(), dynamodb.New(), manual.NewDynamoDB()},
		{"network-firewall", corpus.NetworkFirewall(), netfw.New(), manual.NewNetworkFirewall()},
	}
	var out []VersusManualRow
	for _, c := range cases {
		svc, _, err := synth.Synthesize(docs.Render(c.doc), synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
		if err != nil {
			return nil, err
		}
		emu, err := interp.New(svc)
		if err != nil {
			return nil, err
		}
		surface := c.oracle.Actions()
		row := VersusManualRow{Service: c.label, Surface: len(surface)}
		learned := toSet(emu.Actions())
		baseline := toSet(c.baseline.Actions())
		for _, a := range surface {
			if learned[a] {
				row.Learned++
			}
			if baseline[a] {
				row.Baseline++
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatVersusManual renders the comparison.
func FormatVersusManual(rows []VersusManualRow) string {
	var b strings.Builder
	b.WriteString("Versus manual engineering: behavioural API surface captured\n")
	fmt.Fprintf(&b, "%-18s %8s %9s %10s\n", "Service", "Surface", "Learned", "Baseline")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %8d %6d/%-3d %6d/%-3d\n", r.Service, r.Surface, r.Learned, r.Surface, r.Baseline, r.Surface)
	}
	return b.String()
}

func toSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

// ---------- §5 D2C error taxonomy ----------

// TaxonomyRow counts D2C divergences per category.
type TaxonomyRow struct {
	Category string
	Count    int
	Examples []string
}

// D2CTaxonomy classifies every D2C divergence on the Fig. 3 workload
// into the paper's state-error / transition-error split.
func D2CTaxonomy() ([]TaxonomyRow, error) {
	b, err := d2c.New(docs.Render(corpus.EC2()))
	if err != nil {
		return nil, err
	}
	oracle := ec2.New()
	state := TaxonomyRow{Category: "state errors"}
	transition := TaxonomyRow{Category: "transition errors"}
	for _, tr := range scenarios.EC2Fig3() {
		rep := trace.Compare(b, oracle, tr)
		for _, d := range rep.Diffs {
			ex := fmt.Sprintf("%s: %s (%s)", tr.Name, d.Action, d.Detail)
			if d.Kind == trace.DiffResult {
				state.Count++
				if len(state.Examples) < 4 {
					state.Examples = append(state.Examples, ex)
				}
			} else {
				transition.Count++
				if len(transition.Examples) < 4 {
					transition.Examples = append(transition.Examples, ex)
				}
			}
		}
	}
	return []TaxonomyRow{state, transition}, nil
}

// ---------- §5 multi-cloud ----------

// MultiCloud replicates the Fig. 3 workflow on the Azure backend and
// reports the same three-system accuracy comparison.
func MultiCloud() ([]SystemAccuracy, error) {
	oracle := azure.New()
	traces := scenarios.AzureFig3()
	var out []SystemAccuracy

	d2cEmu, err := d2c.New(docs.Render(corpus.Azure()))
	if err != nil {
		return nil, err
	}
	acc := MeasureAccuracy(d2cEmu, oracle, traces)
	acc.System = "direct-to-code"
	out = append(out, acc)

	noAlign, _, err := synth.Synthesize(docs.Render(corpus.Azure()), synth.DefaultOptions())
	if err != nil {
		return nil, err
	}
	noAlignEmu, err := interp.New(noAlign)
	if err != nil {
		return nil, err
	}
	acc = MeasureAccuracy(noAlignEmu, oracle, traces)
	acc.System = "learned (no alignment)"
	out = append(out, acc)

	brief := corpus.Azure()
	alignedSvc, _, err := synth.SynthesizeFromBrief(brief, synth.DefaultOptions())
	if err != nil {
		return nil, err
	}
	res, err := align.Run(alignedSvc, brief, azure.Factory(), traces, align.Options{GenerateViolations: true})
	if err != nil {
		return nil, err
	}
	acc = MeasureAccuracy(res.Final, oracle, traces)
	acc.System = "learned (aligned)"
	out = append(out, acc)
	return out, nil
}

// ---------- A1: alignment convergence ----------

// ConvergenceRow is one alignment round.
type ConvergenceRow struct {
	Round   int
	Aligned int
	Total   int
	Repairs int
}

// AlignmentConvergence reports per-round accuracy of the alignment
// loop on the noisy EC2 spec.
func AlignmentConvergence() ([]ConvergenceRow, error) {
	brief := corpus.EC2()
	svc, _, err := synth.SynthesizeFromBrief(brief, synth.DefaultOptions())
	if err != nil {
		return nil, err
	}
	seeds := append(scenarios.EC2Fig3(), scenarios.EC2Extended()...)
	res, err := align.Run(svc, brief, ec2.Factory(), seeds, align.Options{GenerateViolations: true})
	if err != nil {
		return nil, err
	}
	var out []ConvergenceRow
	for _, r := range res.Rounds {
		out = append(out, ConvergenceRow{Round: r.Round, Aligned: r.Aligned, Total: r.Total, Repairs: len(r.Repairs)})
	}
	return out, nil
}

// ---------- A2: decoding ablation ----------

// DecodingRow compares free vs constrained decoding at one syntax
// noise level.
type DecodingRow struct {
	SyntaxNoise          float64
	FreeRePrompts        int
	ConstrainedRePrompts int
}

// DecodingAblation measures the re-prompt cost of free decoding as a
// function of syntax-noise rate; constrained decoding is structurally
// immune.
func DecodingAblation() ([]DecodingRow, error) {
	var out []DecodingRow
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75} {
		noise := synth.Noise{Seed: 11, SyntaxErr: p}
		_, repFree, err := synth.Synthesize(docs.Render(corpus.EC2()), synth.Options{Noise: noise, Decoding: synth.Free, MaxRePrompts: 64})
		if err != nil {
			return nil, err
		}
		_, repCon, err := synth.Synthesize(docs.Render(corpus.EC2()), synth.Options{Noise: noise, Decoding: synth.Constrained})
		if err != nil {
			return nil, err
		}
		out = append(out, DecodingRow{SyntaxNoise: p, FreeRePrompts: repFree.RePrompts, ConstrainedRePrompts: repCon.RePrompts})
	}
	return out, nil
}

// ---------- A3: complexity & anti-patterns ----------

// GraphReport bundles the §4.4 complexity metrics for every service.
func GraphReport() ([]metrics.GraphStats, []metrics.AntiPattern, error) {
	var stats []metrics.GraphStats
	var anti []metrics.AntiPattern
	for _, d := range []*docs.ServiceDoc{corpus.EC2(), corpus.NetworkFirewall(), corpus.DynamoDB(), corpus.Azure()} {
		svc, _, err := synth.Synthesize(docs.Render(d), synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
		if err != nil {
			return nil, nil, err
		}
		stats = append(stats, metrics.Graph(svc))
		anti = append(anti, metrics.AntiPatterns(svc)...)
	}
	return stats, anti, nil
}

// SynthesizeAll synthesizes every service's spec noise-free; helpers
// for benches and binaries.
func SynthesizeAll() (map[string]*spec.Service, error) {
	out := map[string]*spec.Service{}
	for _, d := range []*docs.ServiceDoc{corpus.EC2(), corpus.NetworkFirewall(), corpus.DynamoDB(), corpus.Azure()} {
		svc, _, err := synth.Synthesize(docs.Render(d), synth.Options{Noise: synth.Perfect, Decoding: synth.Constrained})
		if err != nil {
			return nil, err
		}
		out[d.Service] = svc
	}
	return out, nil
}
