// Package obsv is the stdlib-only observability layer: hierarchical
// spans propagated via context.Context, a ring-buffered in-memory
// trace store with JSONL export, a typed metrics registry with
// Prometheus text exposition, and an injectable clock shared with the
// retry layer's sleeper.
//
// Design constraints, in order:
//
//   - Zero cost when disabled. A nil *Tracer, nil *Span, nil *Registry
//     and nil instruments are all valid receivers whose methods no-op,
//     so instrumented code never branches on "is observability on" —
//     it just calls through, and the nil fast path costs a pointer
//     test. The alignment engine's results are byte-identical with
//     tracing on or off because spans only *record*; they never touch
//     the data plane.
//
//   - Determinism when seeded. Trace and span IDs are derived from the
//     tracer seed by a splitmix64 mix, and a root started with
//     StartRootKeyed(key) gets an ID that depends only on (seed, key)
//     — never on goroutine scheduling — so a parallel alignment run
//     assigns the same trace ID to the same trace index on every run.
//     Child span IDs derive from the parent span's ID and the
//     parent-local child sequence number.
//
//   - Per-worker safety. Spans are individually mutex-guarded and the
//     tracer's store is a lock-protected ring buffer, so concurrent
//     workers can record freely; the ring bounds memory on long-lived
//     servers.
package obsv

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// mix64 is the splitmix64 finalizer — the same mixing the fault
// injector uses for seed derivation, reused here for ID generation.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func idString(v uint64) string { return fmt.Sprintf("%016x", v) }

// Event is a timestamped annotation inside a span — the fault layer
// records injected decisions this way, the retry layer its backoffs.
type Event struct {
	Time  time.Time         `json:"time"`
	Name  string            `json:"name"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// SpanData is the immutable record of one finished (or snapshotted)
// span — the unit of the JSONL export format: one SpanData per line.
type SpanData struct {
	TraceID  string            `json:"traceId"`
	SpanID   string            `json:"spanId"`
	ParentID string            `json:"parentId,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	End      time.Time         `json:"end"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Events   []Event           `json:"events,omitempty"`
	Error    string            `json:"error,omitempty"`
	// Remote marks a span whose parent lives in another process (it was
	// started via StartRemote from a propagated X-LCE-Trace header).
	// Such a span is a legal entry point of its trace within one
	// process's export; ValidateStitch checks the cross-process edge.
	Remote bool `json:"remote,omitempty"`
}

// Duration returns End - Start.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Root reports whether the span is a trace root.
func (d SpanData) Root() bool { return d.ParentID == "" }

// EntryPoint reports whether the span can legitimately begin a trace
// within one process's export: a true root, or a remote-parented span
// whose parent was recorded by another process.
func (d SpanData) EntryPoint() bool { return d.ParentID == "" || d.Remote }

// DefaultCapacity is the tracer ring-buffer size when NewTracer is
// given a non-positive capacity.
const DefaultCapacity = 4096

// Tracer mints spans and stores the finished ones in a bounded ring.
// A nil *Tracer is the disabled tracer: every method no-ops and
// StartRoot* return a nil span.
type Tracer struct {
	clock  Clock
	seed   uint64
	roots  atomic.Uint64
	epochs atomic.Int64
	onEnd  func(SpanData)

	mu      sync.Mutex
	ring    []SpanData
	next    int
	wrapped bool
	total   uint64
}

// NewTracer returns a tracer whose IDs derive deterministically from
// seed and whose ring holds up to capacity finished spans
// (DefaultCapacity when capacity <= 0). The clock defaults to System;
// override with SetClock before use for deterministic durations.
func NewTracer(seed int64, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{clock: System(), seed: uint64(seed), ring: make([]SpanData, 0, capacity)}
}

// SetClock replaces the tracer's clock (for tests). Call before any
// spans are started; it is not synchronized against live spans.
func (t *Tracer) SetClock(c Clock) {
	if t == nil || c == nil {
		return
	}
	t.clock = c
}

// SetOnEnd installs a hook invoked with every finished span's
// immutable SpanData, after it is committed to the ring. The ops plane
// uses it to fan span ends (and the fault/retry events they carry)
// into its event bus. Like SetClock, call before any spans are
// started; it is not synchronized against live spans. The hook runs
// outside the tracer's lock, on the goroutine that ended the span, so
// it must be cheap and must not block.
func (t *Tracer) SetOnEnd(fn func(SpanData)) {
	if t == nil {
		return
	}
	t.onEnd = fn
}

// SetIdentity salts every root ID derivation (sequential and keyed)
// with a process identity — a cluster node name, or "router" on the
// front tier. Without it, two processes sharing a trace seed (the
// fleet default: every lce-server and lce-router seeds 1) mint
// identical (trace, span) ID streams from their root counters, and a
// merged fleet dump fuses unrelated traces — a node's probe-ingress
// root colliding with the router's Nth request root. The salt keeps
// same-seed fleets deterministic (identities are config, not
// scheduling) while making each member's root streams disjoint. The
// empty identity is a no-op, so standalone single-process ID streams
// are unchanged. Like SetClock, call before any spans are started.
// Remote spans are unaffected: their IDs stay a pure function of the
// propagated wire context, which is what lets stitch re-derive the
// same tree from any process's dump.
func (t *Tracer) SetIdentity(name string) {
	if t == nil || name == "" {
		return
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, name)
	t.seed ^= mix64(h.Sum64())
}

// Clock returns the tracer's clock, or the system clock on a nil
// tracer — callers can time operations through it unconditionally.
func (t *Tracer) Clock() Clock {
	if t == nil || t.clock == nil {
		return System()
	}
	return t.clock
}

// StartRoot begins a new trace with an ID drawn from the tracer's
// root counter. Scheduling-dependent when called from several
// goroutines; use StartRootKeyed where run-to-run ID stability
// matters.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	return t.startRoot(ctx, name, mix64(t.seed^mix64(t.roots.Add(1))))
}

// NextEpoch returns 0, 1, 2, ... — a namespace for keyed root IDs.
// Batch runs that share one tracer (e.g. a bench sweeping fault rates)
// draw one epoch per batch and fold it into their StartRootKeyed keys,
// so identical (round, index) pairs from different batches never
// collide, while a fixed sequence of batches still reproduces the same
// IDs run to run. Draw epochs from a single goroutine.
func (t *Tracer) NextEpoch() int64 {
	if t == nil {
		return 0
	}
	return t.epochs.Add(1) - 1
}

// StartRootKeyed begins a new trace whose ID depends only on the
// tracer seed and key — the parallel alignment engine keys roots by
// (epoch, round, trace index), which makes trace IDs identical across
// runs and worker counts.
func (t *Tracer) StartRootKeyed(ctx context.Context, name string, key int64) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	return t.startRoot(ctx, name, mix64(t.seed^mix64(uint64(key))))
}

func (t *Tracer) startRoot(ctx context.Context, name string, tid uint64) (context.Context, *Span) {
	sp := &Span{
		tracer: t,
		tid:    tid,
		sid:    mix64(tid),
		data: SpanData{
			TraceID: idString(tid),
			SpanID:  idString(mix64(tid)),
			Name:    name,
			Start:   t.Clock().Now(),
		},
	}
	return ContextWithSpan(ctx, sp), sp
}

// record appends one finished span to the ring, evicting the oldest
// beyond capacity, then fires the OnEnd hook (outside the lock).
func (t *Tracer) record(d SpanData) {
	t.mu.Lock()
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, d)
	} else {
		t.ring[t.next] = d
		t.next = (t.next + 1) % cap(t.ring)
		t.wrapped = true
	}
	t.mu.Unlock()
	if t.onEnd != nil {
		t.onEnd(d)
	}
}

// Recorded returns the total number of spans ever finished, including
// those evicted from the ring.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns the retained spans oldest-first.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, len(t.ring))
	if t.wrapped {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// WriteJSONL writes the retained spans as JSON Lines, one SpanData per
// line — the -trace-out artifact format.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, d := range t.Snapshot() {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a JSONL trace artifact back into spans. Blank
// lines are skipped; any malformed line is an error carrying its line
// number.
func ReadJSONL(r io.Reader) ([]SpanData, error) {
	var out []SpanData
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var d SpanData
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("obsv: line %d: %w", line, err)
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Span is one live span. A nil *Span is the disabled span: every
// method no-ops, which is the fast path instrumented code takes when
// no tracer is installed.
type Span struct {
	tracer *Tracer
	tid    uint64
	sid    uint64

	mu       sync.Mutex
	childSeq uint64
	ended    bool
	data     SpanData
}

// TraceID returns the span's trace ID, or "" on a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// SpanID returns the span's ID, or "" on a nil span.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}

// SetAttr sets one string attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data.Attrs == nil {
		s.data.Attrs = map[string]string{}
	}
	s.data.Attrs[k] = v
}

// SetAttrInt sets one integer attribute.
func (s *Span) SetAttrInt(k string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(k, fmt.Sprintf("%d", v))
}

// SetError marks the span failed with a status message (an API error
// code, an HTTP status). The last call wins.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Error = msg
	s.mu.Unlock()
}

// Event appends a timestamped annotation. kv is alternating key,
// value pairs; a trailing odd key is dropped.
func (s *Span) Event(name string, kv ...string) {
	if s == nil {
		return
	}
	var attrs map[string]string
	if len(kv) >= 2 {
		attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			attrs[kv[i]] = kv[i+1]
		}
	}
	now := s.tracer.Clock().Now()
	s.mu.Lock()
	s.data.Events = append(s.data.Events, Event{Time: now, Name: name, Attrs: attrs})
	s.mu.Unlock()
}

// child mints a sub-span. The child's ID derives from the parent's ID
// and the parent-local sequence number, so a trace built by one
// goroutine (as alignment traces are) has fully deterministic IDs.
func (s *Span) child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.childSeq++
	seq := s.childSeq
	s.mu.Unlock()
	sid := mix64(s.sid ^ mix64(seq))
	return &Span{
		tracer: s.tracer,
		tid:    s.tid,
		sid:    sid,
		data: SpanData{
			TraceID:  s.data.TraceID,
			SpanID:   idString(sid),
			ParentID: s.data.SpanID,
			Name:     name,
			Start:    s.tracer.Clock().Now(),
		},
	}
}

// End finishes the span and commits it to the tracer's ring. Safe to
// call more than once; only the first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tracer.Clock().Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.End = now
	d := s.data
	// Copy the mutable containers so post-End mutation (there should
	// be none, but the API cannot forbid it) never aliases the ring.
	if d.Attrs != nil {
		attrs := make(map[string]string, len(d.Attrs))
		for k, v := range d.Attrs {
			attrs[k] = v
		}
		d.Attrs = attrs
	}
	d.Events = append([]Event(nil), d.Events...)
	s.mu.Unlock()
	s.tracer.record(d)
}

// Duration returns End-Start for an ended span, and the live elapsed
// time otherwise (0 on a nil span).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	ended, start, end := s.ended, s.data.Start, s.data.End
	s.mu.Unlock()
	if !ended {
		end = s.tracer.Clock().Now()
	}
	return end.Sub(start)
}

type ctxKey int

const (
	spanCtxKey ctxKey = iota
	registryCtxKey
	phaseCtxKey
)

// ContextWithSpan returns ctx carrying sp as the current span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanCtxKey, sp)
}

// SpanFrom returns the current span, or nil when ctx is nil or
// carries none — the nil result is itself a valid no-op span.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey).(*Span)
	return sp
}

// StartSpan begins a child of the current span in ctx. With no
// current span it returns (ctx, nil) — the disabled fast path: no
// allocation, no clock read.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.child(name)
	return ContextWithSpan(ctx, sp), sp
}

// WithRegistry returns ctx carrying the metrics registry, so deep
// call layers (per-step backend timing) can record without threading
// a parameter through every signature.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, registryCtxKey, r)
}

// RegistryFrom returns the registry carried by ctx, or nil.
func RegistryFrom(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(registryCtxKey).(*Registry)
	return r
}

// TraceGroup is one reassembled trace: all retained spans sharing a
// trace ID, roots first, then by start time.
type TraceGroup struct {
	TraceID string     `json:"traceId"`
	Spans   []SpanData `json:"spans"`
}

// GroupTraces reassembles spans into traces ordered by each trace's
// earliest span start (ties broken by trace ID for determinism).
func GroupTraces(spans []SpanData) []TraceGroup {
	byID := map[string][]SpanData{}
	for _, sp := range spans {
		byID[sp.TraceID] = append(byID[sp.TraceID], sp)
	}
	out := make([]TraceGroup, 0, len(byID))
	for id, sps := range byID {
		sort.SliceStable(sps, func(i, j int) bool {
			if sps[i].EntryPoint() != sps[j].EntryPoint() {
				return sps[i].EntryPoint()
			}
			return sps[i].Start.Before(sps[j].Start)
		})
		out = append(out, TraceGroup{TraceID: id, Spans: sps})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Spans[0], out[j].Spans[0]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// Validate checks the structural integrity of an exported span set:
// span IDs unique, every non-root local span's parent present within
// its own trace, every trace owning at least one entry point (a root
// or a remote-parented span), and no span ending before it starts. It
// is the -trace-out artifact checker CI runs. Cross-process edges of
// Remote spans are out of scope here — ValidateStitch covers them over
// merged multi-process exports.
//
// A ring-buffer export can legitimately have evicted a parent; callers
// validating a live server snapshot (rather than a complete run
// artifact) should expect that and treat the error as advisory.
func Validate(spans []SpanData) error {
	type key struct{ trace, span string }
	ids := make(map[key]bool, len(spans))
	roots := map[string]bool{}
	for _, sp := range spans {
		if sp.TraceID == "" || sp.SpanID == "" {
			return fmt.Errorf("obsv: span %q missing trace/span ID", sp.Name)
		}
		k := key{sp.TraceID, sp.SpanID}
		if ids[k] {
			return fmt.Errorf("obsv: duplicate span ID %s in trace %s", sp.SpanID, sp.TraceID)
		}
		ids[k] = true
		if sp.EntryPoint() {
			roots[sp.TraceID] = true
		}
		if sp.End.Before(sp.Start) {
			return fmt.Errorf("obsv: span %s (%s) ends before it starts", sp.SpanID, sp.Name)
		}
	}
	for _, sp := range spans {
		if sp.ParentID == "" || sp.Remote {
			// A remote span's parent was recorded by another process;
			// ValidateStitch enforces that edge over merged exports.
			continue
		}
		if !ids[key{sp.TraceID, sp.ParentID}] {
			return fmt.Errorf("obsv: span %s (%s) has missing parent %s in trace %s",
				sp.SpanID, sp.Name, sp.ParentID, sp.TraceID)
		}
	}
	for _, sp := range spans {
		if !roots[sp.TraceID] {
			return fmt.Errorf("obsv: trace %s has no root span", sp.TraceID)
		}
	}
	return nil
}
