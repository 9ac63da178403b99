package obsv

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The phase taxonomy: every stage a request crosses on its way through
// httpapi → tenant → durable → interp. Phases are recorded as
// *self time* — a region's duration minus its nested regions — so the
// per-phase durations of one request tile its handler window without
// overlap: fsync time is not double-counted inside journal.append, and
// whatever no layer claimed lands in PhaseOther. That is the invariant
// lce-tracecheck enforces on exported spans (sum of phase.* attrs ≤
// span duration) and lce-bench -phases proves against the end-to-end
// histogram.
const (
	// PhaseDecode is request-body reading and JSON decoding.
	PhaseDecode = "decode"
	// PhaseSessionLookup is tenant-pool session resolution (shard
	// lock, LRU touch, and on a miss the backend factory).
	PhaseSessionLookup = "session.lookup"
	// PhaseRehydrate is the durable tier restoring on-disk state
	// (snapshot decode + journal replay) inside a session-lookup miss.
	PhaseRehydrate = "rehydrate"
	// PhaseDispatch is the learned emulator executing the action.
	PhaseDispatch = "interp.dispatch"
	// PhaseJournalAppend is write-ahead journaling of the call
	// (encode + frame + write), excluding the fsync below.
	PhaseJournalAppend = "journal.append"
	// PhaseFsync is the journal's file sync, under whichever policy.
	PhaseFsync = "fsync"
	// PhaseEncode is response-envelope encoding.
	PhaseEncode = "encode"
	// PhaseOther is the catch-all: handler time no named phase claimed
	// (routing glue, header writes, error paths).
	PhaseOther = "other"
)

// PhaseNames lists the taxonomy in canonical (request-path) order —
// the order Server-Timing headers and bench tables use.
var PhaseNames = [...]string{
	PhaseDecode, PhaseSessionLookup, PhaseRehydrate, PhaseDispatch,
	PhaseJournalAppend, PhaseFsync, PhaseEncode, PhaseOther,
}

// KnownPhase reports whether name is in the phase taxonomy.
func KnownPhase(name string) bool { return PhaseIndex(name) >= 0 }

// SpanAttrPhasePfx prefixes per-phase span attributes: a finished
// request span carries "phase.decode", "phase.encode", … with
// nanosecond self-time values.
const SpanAttrPhasePfx = "phase."

const numPhases = len(PhaseNames)

// maxPhaseDepth bounds region nesting; the request path nests at most
// four deep (other → session.lookup → rehydrate, or other →
// journal.append → fsync), so eight leaves headroom. Regions opened
// beyond the bound are dropped, never mis-accounted.
const maxPhaseDepth = 8

// PhaseIndex returns name's position in PhaseNames, or -1 for a name
// outside the taxonomy — the index per-phase instrument tables use.
func PhaseIndex(name string) int {
	switch name {
	case PhaseDecode:
		return 0
	case PhaseSessionLookup:
		return 1
	case PhaseRehydrate:
		return 2
	case PhaseDispatch:
		return 3
	case PhaseJournalAppend:
		return 4
	case PhaseFsync:
		return 5
	case PhaseEncode:
		return 6
	case PhaseOther:
		return 7
	default:
		return -1
	}
}

// phaseFrame is one open region on the timer's stack.
type phaseFrame struct {
	idx   int8
	start time.Time
	// child accumulates nested regions' wall time, subtracted from
	// this frame's elapsed at End so the parent records self time only.
	child time.Duration
}

// PhaseTimer attributes one request's latency to named phases. It is
// pooled (AcquirePhaseTimer/Release), allocation-free on the
// Start/End path (fixed arrays, value-type regions), and nil-safe:
// every method on a nil timer is a no-op, so un-instrumented paths
// thread a nil pointer and pay one pointer test per phase boundary.
//
// Regions must end in LIFO order on the goroutine that started them —
// true by construction for the HTTP request path, where regions are
// lexically scoped. The internal mutex keeps concurrent misuse safe
// (never corrupting memory), not meaningful.
type PhaseTimer struct {
	mu    sync.Mutex
	clock Clock
	self  [numPhases]time.Duration
	count [numPhases]uint32
	stack [maxPhaseDepth]phaseFrame
	depth int
}

// PhaseRegion is one open phase region; End closes it. The zero value
// (from a nil or saturated timer) is a no-op to End.
type PhaseRegion struct {
	pt *PhaseTimer
	ok bool
}

var phasePool = sync.Pool{New: func() any { return new(PhaseTimer) }}

// AcquirePhaseTimer takes a reset timer from the pool. A nil clock
// means the system clock.
func AcquirePhaseTimer(clock Clock) *PhaseTimer {
	pt := phasePool.Get().(*PhaseTimer)
	if clock == nil {
		clock = System()
	}
	pt.clock = clock
	return pt
}

// Release resets the timer and returns it to the pool. The caller
// must not retain the pointer (contexts holding it must be dead).
func (pt *PhaseTimer) Release() {
	if pt == nil {
		return
	}
	pt.mu.Lock()
	pt.self = [numPhases]time.Duration{}
	pt.count = [numPhases]uint32{}
	pt.stack = [maxPhaseDepth]phaseFrame{}
	pt.depth = 0
	pt.clock = nil
	pt.mu.Unlock()
	phasePool.Put(pt)
}

// Start opens a region for the named phase. Unknown phase names and
// over-deep nesting return a no-op region rather than corrupting the
// accounting.
func (pt *PhaseTimer) Start(name string) PhaseRegion {
	if pt == nil {
		return PhaseRegion{}
	}
	idx := PhaseIndex(name)
	if idx < 0 {
		return PhaseRegion{}
	}
	now := pt.clock.Now()
	pt.mu.Lock()
	if pt.depth == maxPhaseDepth {
		pt.mu.Unlock()
		return PhaseRegion{}
	}
	pt.stack[pt.depth] = phaseFrame{idx: int8(idx), start: now}
	pt.depth++
	pt.mu.Unlock()
	return PhaseRegion{pt: pt, ok: true}
}

// End closes the region, attributing its self time (elapsed minus
// nested regions) to its phase and its full elapsed to the enclosing
// frame's child accumulator.
func (r PhaseRegion) End() {
	if !r.ok {
		return
	}
	pt := r.pt
	now := pt.clock.Now()
	pt.mu.Lock()
	if pt.depth > 0 {
		pt.depth--
		f := pt.stack[pt.depth]
		elapsed := now.Sub(f.start)
		self := elapsed - f.child
		if self < 0 {
			self = 0
		}
		pt.self[f.idx] += self
		pt.count[f.idx]++
		if pt.depth > 0 {
			pt.stack[pt.depth-1].child += elapsed
		}
	}
	pt.mu.Unlock()
}

// Each calls fn for every phase with at least one closed region, in
// canonical order, with its accumulated self time and region count.
func (pt *PhaseTimer) Each(fn func(name string, self time.Duration, count uint32)) {
	if pt == nil {
		return
	}
	pt.mu.Lock()
	self, count := pt.self, pt.count
	pt.mu.Unlock()
	for i, name := range PhaseNames {
		if count[i] > 0 {
			fn(name, self[i], count[i])
		}
	}
}

// Total returns the summed self time across all phases — exactly the
// wall time of the outermost region when regions nest properly.
func (pt *PhaseTimer) Total() time.Duration {
	if pt == nil {
		return 0
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	var total time.Duration
	for _, d := range pt.self {
		total += d
	}
	return total
}

// Map returns the non-zero phases as a name → nanoseconds map (nil
// when nothing was recorded) — the flight-recorder representation.
func (pt *PhaseTimer) Map() map[string]int64 {
	if pt == nil {
		return nil
	}
	var m map[string]int64
	pt.Each(func(name string, self time.Duration, _ uint32) {
		if m == nil {
			m = make(map[string]int64, numPhases)
		}
		m[name] = self.Nanoseconds()
	})
	return m
}

// ServerTiming renders the closed phases as a Server-Timing header
// value ("decode;dur=0.041, encode;dur=0.012", durations in
// milliseconds), empty when nothing was recorded. The still-open
// catch-all region around the handler is deliberately absent: headers
// are written before the handler returns.
func (pt *PhaseTimer) ServerTiming() string {
	if pt == nil {
		return ""
	}
	var buf [256]byte
	b := buf[:0]
	pt.Each(func(name string, self time.Duration, _ uint32) {
		if len(b) > 0 {
			b = append(b, ", "...)
		}
		b = append(b, name...)
		b = append(b, ";dur="...)
		b = strconv.AppendFloat(b, float64(self)/float64(time.Millisecond), 'f', 3, 64)
	})
	return string(b)
}

// EachServerTiming decodes a Server-Timing header value entry by entry,
// calling fn with each metric name and its dur parameter (the last
// valid one when an entry repeats it) — the router folds every node
// response into its per-phase totals this way, without building a map
// per call. Entries without a well-formed, non-negative dur are
// skipped.
func EachServerTiming(v string, fn func(name string, d time.Duration)) {
	for v != "" {
		var entry string
		entry, v, _ = strings.Cut(v, ",")
		name, rest, ok := strings.Cut(strings.TrimSpace(entry), ";")
		if !ok {
			continue
		}
		var d time.Duration
		found := false
		for more := true; more; {
			var param string
			param, rest, more = strings.Cut(rest, ";")
			k, val, ok := strings.Cut(strings.TrimSpace(param), "=")
			if !ok || strings.TrimSpace(k) != "dur" {
				continue
			}
			ms, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil || ms < 0 {
				continue
			}
			d, found = time.Duration(ms*float64(time.Millisecond)), true
		}
		if found {
			fn(strings.TrimSpace(name), d)
		}
	}
}

// ParseServerTiming decodes a Server-Timing header value into a
// metric name → duration map (the last entry wins on a repeated name).
// Unknown metrics and malformed entries are skipped; an empty or
// absent header yields an empty map.
func ParseServerTiming(v string) map[string]time.Duration {
	out := map[string]time.Duration{}
	EachServerTiming(v, func(name string, d time.Duration) { out[name] = d })
	return out
}

// ContextWithPhases attaches the timer to ctx so deeper layers
// (tenant, durable, interp) can record their phases. A nil timer
// returns ctx unchanged.
func ContextWithPhases(ctx context.Context, pt *PhaseTimer) context.Context {
	if pt == nil {
		return ctx
	}
	return context.WithValue(ctx, phaseCtxKey, pt)
}

// PhasesFrom extracts the request's timer, nil when the request path
// is un-instrumented (including a nil ctx, so backend-internal calls
// with no context skip the context lookup entirely).
func PhasesFrom(ctx context.Context) *PhaseTimer {
	if ctx == nil {
		return nil
	}
	pt, _ := ctx.Value(phaseCtxKey).(*PhaseTimer)
	return pt
}

// ValidatePhases checks the per-phase attributes on exported spans:
// every "phase.*" attribute must name a known phase, parse as a
// non-negative integer nanosecond count, and the per-span phase sum
// must not exceed the span's duration — self-time accounting
// guarantees the phases tile a window strictly inside the span.
// lce-tracecheck runs this after the structural Validate.
func ValidatePhases(spans []SpanData) error {
	for _, sp := range spans {
		var sum int64
		for k, v := range sp.Attrs {
			name, ok := strings.CutPrefix(k, SpanAttrPhasePfx)
			if !ok {
				continue
			}
			if !KnownPhase(name) {
				return &PhaseError{Span: sp.SpanID, Attr: k, Reason: "unknown phase name"}
			}
			ns, err := strconv.ParseInt(v, 10, 64)
			if err != nil || ns < 0 {
				return &PhaseError{Span: sp.SpanID, Attr: k, Reason: "phase duration is not a non-negative integer: " + v}
			}
			sum += ns
		}
		if dur := sp.Duration().Nanoseconds(); sum > dur {
			return &PhaseError{Span: sp.SpanID, Attr: SpanAttrPhasePfx + "*",
				Reason: "phase sum " + strconv.FormatInt(sum, 10) + "ns exceeds span duration " + strconv.FormatInt(dur, 10) + "ns"}
		}
	}
	return nil
}

// PhaseError reports one span whose phase attributes break the
// ValidatePhases invariants.
type PhaseError struct {
	Span   string
	Attr   string
	Reason string
}

func (e *PhaseError) Error() string {
	return "span " + e.Span + " attr " + e.Attr + ": " + e.Reason
}
