// Package trace represents API call sequences and the differential
// comparison between two backends executing them. A trace "aligns"
// (§4.3) when, step by step, permissible calls produce the same effects
// on both backends and forbidden calls fail on both with identical
// error codes; error messages are for human consumption and are only
// compared fuzzily.
package trace

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"lce/internal/cloudapi"
	"lce/internal/obsv"
)

// Step is one API invocation in a trace. Parameters may reference the
// results of earlier steps through Bindings: a parameter value of the
// form Var("x") is substituted with the binding named x at run time,
// so a trace like [CreateVpc → $vpc, CreateSubnet(vpcId: $vpc)] runs
// identically on backends that allocate different IDs.
type Step struct {
	Action string
	Params map[string]Arg
	// Save maps result attribute names to binding names: after a
	// successful step, binding b := result[attr].
	Save map[string]string
	// Note documents what the step exercises (shown in reports).
	Note string
}

// Arg is a step parameter: either a literal value or a reference to a
// binding captured from an earlier step's result.
type Arg struct {
	Lit cloudapi.Value
	Var string // non-empty for binding references
}

// Val wraps a literal argument.
func Val(v cloudapi.Value) Arg { return Arg{Lit: v} }

// S is shorthand for a literal string argument.
func S(s string) Arg { return Arg{Lit: cloudapi.Str(s)} }

// I is shorthand for a literal int argument.
func I(i int64) Arg { return Arg{Lit: cloudapi.Int(i)} }

// B is shorthand for a literal bool argument.
func B(b bool) Arg { return Arg{Lit: cloudapi.Bool(b)} }

// Ref references a binding captured by an earlier step.
func Ref(name string) Arg { return Arg{Var: name} }

// Trace is a named sequence of steps.
type Trace struct {
	Name     string
	Scenario string // provisioning | state-updates | edge-cases (Fig. 3)
	Steps    []Step
}

// Outcome records what one backend did with one step.
type Outcome struct {
	OK      bool
	Result  cloudapi.Result
	Code    string // error code when !OK
	Message string
	// Broken marks a non-API failure (framework/backend malfunction).
	Broken bool
}

// Run executes the trace against a backend from a fresh state and
// returns per-step outcomes. Binding resolution failures surface as
// Broken outcomes.
func Run(b cloudapi.Backend, tr Trace) []Outcome {
	return runTraced(context.Background(), b, tr, "")
}

// runTraced is Run with observability: when ctx carries a span
// (obsv.SpanFrom), the replay opens a "replay.<role>" phase span and
// one "call.<Action>" span per step — error status set from the
// outcome — and records per-op durations into the registry carried by
// ctx (obsv.RegistryFrom). The per-call context rides to the backend
// on Request.Ctx so wrapper layers (retry, fault) can annotate the
// call span. With no span in ctx this is exactly Run: a nil-check per
// step and nothing else, so outcomes are identical either way.
func runTraced(ctx context.Context, b cloudapi.Backend, tr Trace, role string) []Outcome {
	traced := obsv.SpanFrom(ctx) != nil
	var reg *obsv.Registry
	var phase *obsv.Span
	if traced {
		ctx, phase = obsv.StartSpan(ctx, obsv.SpanReplayPfx+role)
		phase.SetAttr("trace", tr.Name)
		reg = obsv.RegistryFrom(ctx)
	}
	b.Reset()
	outcomes := make([]Outcome, len(tr.Steps))
	bindings := map[string]cloudapi.Value{}
	for i, step := range tr.Steps {
		params := cloudapi.Params{}
		bad := false
		// Resolve in sorted parameter order: when several bindings are
		// unresolved (a chaos fault swallowed the step that would have
		// captured them), the Broken outcome must name the same one on
		// every run — replays and differential comparisons depend on
		// outcome stability, and map order would pick at random.
		names := make([]string, 0, len(step.Params))
		for name := range step.Params {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			arg := step.Params[name]
			if arg.Var != "" {
				v, ok := bindings[arg.Var]
				if !ok {
					outcomes[i] = Outcome{Broken: true, Message: fmt.Sprintf("unresolved binding %q", arg.Var)}
					bad = true
					break
				}
				params[name] = v
			} else {
				params[name] = arg.Lit
			}
		}
		if bad {
			continue
		}
		req := cloudapi.Request{Action: step.Action, Params: params}
		var sp *obsv.Span
		if traced {
			req.Ctx, sp = obsv.StartSpan(ctx, obsv.SpanCallPfx+step.Action)
			sp.SetAttr("role", role)
			sp.SetAttrInt("step", int64(i))
		}
		res, err := b.Invoke(req)
		switch {
		case err == nil:
			outcomes[i] = Outcome{OK: true, Result: res}
			for attr, bind := range step.Save {
				bindings[bind] = res.Get(attr)
			}
		default:
			if ae, ok := cloudapi.AsAPIError(err); ok {
				outcomes[i] = Outcome{Code: ae.Code, Message: ae.Message}
				sp.SetError(ae.Code)
			} else {
				outcomes[i] = Outcome{Broken: true, Message: err.Error()}
				sp.SetError("broken: " + err.Error())
			}
		}
		if traced {
			sp.End()
			reg.Histogram(obsv.MetricBackendOpSeconds, "role", role, "action", step.Action).
				ObserveDuration(sp.Duration())
		}
	}
	phase.End()
	return outcomes
}

// StepDiff describes how two backends diverged on one step.
type StepDiff struct {
	Index   int
	Action  string
	Kind    DiffKind
	Subject *Outcome // the backend under test (the emulator)
	Against *Outcome // the oracle
	Detail  string
}

// DiffKind classifies a divergence; the alignment engine keys its
// repair strategy on it.
type DiffKind int

// Divergence kinds.
const (
	// DiffNone: the step aligned.
	DiffNone DiffKind = iota
	// DiffMissedFailure: the cloud rejected the call but the emulator
	// accepted it — the "dangerous state inconsistency" case.
	DiffMissedFailure
	// DiffSpuriousFailure: the emulator rejected a call the cloud
	// accepted.
	DiffSpuriousFailure
	// DiffWrongCode: both rejected, with different error codes.
	DiffWrongCode
	// DiffResult: both accepted, with different response payloads.
	DiffResult
	// DiffBroken: a backend malfunctioned (non-API error).
	DiffBroken
)

// String names the divergence kind.
func (k DiffKind) String() string {
	switch k {
	case DiffNone:
		return "aligned"
	case DiffMissedFailure:
		return "missed-failure"
	case DiffSpuriousFailure:
		return "spurious-failure"
	case DiffWrongCode:
		return "wrong-error-code"
	case DiffResult:
		return "result-mismatch"
	case DiffBroken:
		return "broken-backend"
	default:
		return fmt.Sprintf("diff(%d)", int(k))
	}
}

// Report summarizes a differential run of one trace.
type Report struct {
	// TraceIndex is the trace's position in the suite it was compared
	// as part of (0 when compared standalone). The parallel alignment
	// engine keys its deterministic merge on it: reports arrive from
	// worker goroutines in arbitrary order and are re-sequenced by
	// TraceIndex so parallel rounds reproduce serial ones exactly.
	TraceIndex int
	Trace      Trace
	Subject    []Outcome
	Oracle     []Outcome
	Diffs      []StepDiff
}

// Aligned reports whether every step matched.
func (r Report) Aligned() bool { return len(r.Diffs) == 0 }

// FirstDiff returns the first divergence, or nil.
func (r Report) FirstDiff() *StepDiff {
	if len(r.Diffs) == 0 {
		return nil
	}
	return &r.Diffs[0]
}

// Compare runs tr against both backends and diffs the outcomes step by
// step. Error codes must match exactly; error messages and result
// payloads are compared structurally (messages only need non-emptiness
// on both sides).
func Compare(subject, oracle cloudapi.Backend, tr Trace) Report {
	return CompareIndexed(context.Background(), subject, oracle, 0, tr)
}

// CompareIndexed is Compare for a trace that sits at position idx in a
// suite; the index is carried on the report so out-of-order (parallel)
// comparison results can be merged back into suite order. When ctx
// carries a span (the alignment engine's per-trace root), both replays
// nest under it, giving the full taxonomy align.trace →
// replay.{emulator,oracle} → call.<Action>. The report is identical
// with or without a span in ctx — tracing only records.
func CompareIndexed(ctx context.Context, subject, oracle cloudapi.Backend, idx int, tr Trace) Report {
	sub := runTraced(ctx, subject, tr, "emulator")
	ora := runTraced(ctx, oracle, tr, "oracle")
	rep := Report{TraceIndex: idx, Trace: tr, Subject: sub, Oracle: ora}
	for i := range tr.Steps {
		d := diffStep(i, tr.Steps[i].Action, &sub[i], &ora[i])
		if d.Kind != DiffNone {
			rep.Diffs = append(rep.Diffs, d)
		}
	}
	return rep
}

func diffStep(i int, action string, sub, ora *Outcome) StepDiff {
	d := StepDiff{Index: i, Action: action, Subject: sub, Against: ora}
	switch {
	case sub.Broken || ora.Broken:
		d.Kind = DiffBroken
		d.Detail = fmt.Sprintf("subject broken=%v oracle broken=%v (%s | %s)", sub.Broken, ora.Broken, sub.Message, ora.Message)
	case sub.OK && !ora.OK:
		d.Kind = DiffMissedFailure
		d.Detail = fmt.Sprintf("cloud failed with %s but emulator succeeded", ora.Code)
	case !sub.OK && ora.OK:
		d.Kind = DiffSpuriousFailure
		d.Detail = fmt.Sprintf("emulator failed with %s but cloud succeeded", sub.Code)
	case !sub.OK && !ora.OK:
		if sub.Code != ora.Code {
			d.Kind = DiffWrongCode
			d.Detail = fmt.Sprintf("error code %s, cloud returned %s", sub.Code, ora.Code)
		}
	default: // both OK
		if key, why, ok := resultDiff(sub.Result, ora.Result); !ok {
			d.Kind = DiffResult
			d.Detail = fmt.Sprintf("result attribute %q: %s", key, why)
		}
	}
	return d
}

// resultDiff compares two results, returning the first mismatching
// attribute. Results compare structurally after normalization.
func resultDiff(sub, ora cloudapi.Result) (key, why string, ok bool) {
	sub = cloudapi.NormalizeResult(sub)
	ora = cloudapi.NormalizeResult(ora)
	for k, ov := range ora {
		sv, present := sub[k]
		if !present {
			return k, "missing from emulator response", false
		}
		if !sv.Equal(ov) {
			return k, fmt.Sprintf("emulator %s, cloud %s", truncate(sv.String()), truncate(ov.String())), false
		}
	}
	for k := range sub {
		if _, present := ora[k]; !present {
			return k, "extra attribute in emulator response", false
		}
	}
	return "", "", true
}

func truncate(s string) string {
	if len(s) > 120 {
		return s[:117] + "..."
	}
	return s
}

// Summary renders a compact multi-trace alignment summary: "7/12".
func Summary(reports []Report) string {
	aligned := 0
	for _, r := range reports {
		if r.Aligned() {
			aligned++
		}
	}
	return fmt.Sprintf("%d/%d", aligned, len(reports))
}

// AlignedCount counts aligned traces.
func AlignedCount(reports []Report) int {
	n := 0
	for _, r := range reports {
		if r.Aligned() {
			n++
		}
	}
	return n
}

// FormatReport renders a human-readable account of a report's
// divergences.
func FormatReport(r Report) string {
	if r.Aligned() {
		return fmt.Sprintf("trace %s: aligned (%d steps)", r.Trace.Name, len(r.Trace.Steps))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: %d divergence(s)\n", r.Trace.Name, len(r.Diffs))
	for _, d := range r.Diffs {
		fmt.Fprintf(&b, "  step %d %s [%s]: %s\n", d.Index, d.Action, d.Kind, d.Detail)
	}
	return b.String()
}
