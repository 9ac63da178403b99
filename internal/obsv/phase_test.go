package obsv

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestPhaseSelfTimeNesting(t *testing.T) {
	clk := NewFakeClock(time.Time{})
	pt := AcquirePhaseTimer(clk)
	defer pt.Release()

	outer := pt.Start(PhaseOther)
	clk.Advance(10 * time.Millisecond)
	jr := pt.Start(PhaseJournalAppend)
	clk.Advance(5 * time.Millisecond)
	fs := pt.Start(PhaseFsync)
	clk.Advance(2 * time.Millisecond)
	fs.End()
	jr.End()
	clk.Advance(3 * time.Millisecond)
	outer.End()

	want := map[string]int64{
		PhaseFsync:         (2 * time.Millisecond).Nanoseconds(),
		PhaseJournalAppend: (5 * time.Millisecond).Nanoseconds(),
		PhaseOther:         (13 * time.Millisecond).Nanoseconds(),
	}
	if got := pt.Map(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Map() = %v, want %v", got, want)
	}
	if got, want := pt.Total(), 20*time.Millisecond; got != want {
		t.Fatalf("Total() = %v, want %v (the outer region's wall time)", got, want)
	}
}

func TestPhaseSameNameNesting(t *testing.T) {
	clk := NewFakeClock(time.Time{})
	pt := AcquirePhaseTimer(clk)
	defer pt.Release()

	outer := pt.Start(PhaseDecode)
	clk.Advance(4 * time.Millisecond)
	inner := pt.Start(PhaseDecode)
	clk.Advance(1 * time.Millisecond)
	inner.End()
	outer.End()

	// inner self = 1ms, outer self = 5ms - 1ms child = 4ms; total 5ms,
	// no double count.
	if got, want := pt.Total(), 5*time.Millisecond; got != want {
		t.Fatalf("Total() = %v, want %v", got, want)
	}
	var count uint32
	pt.Each(func(name string, _ time.Duration, n uint32) {
		if name == PhaseDecode {
			count = n
		}
	})
	if count != 2 {
		t.Fatalf("decode count = %d, want 2", count)
	}
}

func TestPhaseTimerNilSafe(t *testing.T) {
	var pt *PhaseTimer
	r := pt.Start(PhaseDecode)
	r.End()
	if got := pt.Total(); got != 0 {
		t.Fatalf("nil Total() = %v", got)
	}
	if got := pt.Map(); got != nil {
		t.Fatalf("nil Map() = %v", got)
	}
	if got := pt.ServerTiming(); got != "" {
		t.Fatalf("nil ServerTiming() = %q", got)
	}
	pt.Each(func(string, time.Duration, uint32) { t.Fatal("nil Each must not call fn") })
	pt.Release()

	ctx := context.Background()
	if got := ContextWithPhases(ctx, nil); got != ctx {
		t.Fatal("ContextWithPhases(ctx, nil) must return ctx unchanged")
	}
	if got := PhasesFrom(nil); got != nil {
		t.Fatalf("PhasesFrom(nil) = %v", got)
	}
	if got := PhasesFrom(ctx); got != nil {
		t.Fatalf("PhasesFrom(plain ctx) = %v", got)
	}
}

func TestPhaseContextRoundTrip(t *testing.T) {
	pt := AcquirePhaseTimer(nil)
	defer pt.Release()
	ctx := ContextWithPhases(context.Background(), pt)
	if got := PhasesFrom(ctx); got != pt {
		t.Fatalf("PhasesFrom = %p, want %p", got, pt)
	}
}

func TestPhaseUnknownAndOverflow(t *testing.T) {
	clk := NewFakeClock(time.Time{})
	pt := AcquirePhaseTimer(clk)
	defer pt.Release()

	r := pt.Start("no-such-phase")
	clk.Advance(time.Millisecond)
	r.End()
	if got := pt.Total(); got != 0 {
		t.Fatalf("unknown phase recorded %v", got)
	}

	regions := make([]PhaseRegion, 0, maxPhaseDepth+2)
	for i := 0; i < maxPhaseDepth+2; i++ {
		regions = append(regions, pt.Start(PhaseOther))
		clk.Advance(time.Millisecond)
	}
	for i := len(regions) - 1; i >= 0; i-- {
		regions[i].End()
	}
	// The two over-deep regions were dropped; the rest still tile
	// their outermost window.
	if got, want := pt.Total(), time.Duration(maxPhaseDepth+2)*time.Millisecond; got != want {
		t.Fatalf("Total() = %v, want %v", got, want)
	}
}

func TestPhaseTimerPoolReset(t *testing.T) {
	clk := NewFakeClock(time.Time{})
	pt := AcquirePhaseTimer(clk)
	r := pt.Start(PhaseEncode)
	clk.Advance(time.Millisecond)
	r.End()
	pt.Release()

	// Whatever timer the pool hands back next must read as fresh.
	pt2 := AcquirePhaseTimer(clk)
	defer pt2.Release()
	if got := pt2.Total(); got != 0 {
		t.Fatalf("pooled timer not reset: Total() = %v", got)
	}
	if got := pt2.Map(); got != nil {
		t.Fatalf("pooled timer not reset: Map() = %v", got)
	}
}

func TestServerTimingFormat(t *testing.T) {
	clk := NewFakeClock(time.Time{})
	pt := AcquirePhaseTimer(clk)
	defer pt.Release()

	d := pt.Start(PhaseDecode)
	clk.Advance(1500 * time.Microsecond)
	d.End()
	e := pt.Start(PhaseEncode)
	clk.Advance(250 * time.Microsecond)
	e.End()

	const want = "decode;dur=1.500, encode;dur=0.250"
	if got := pt.ServerTiming(); got != want {
		t.Fatalf("ServerTiming() = %q, want %q", got, want)
	}
}

func TestValidatePhases(t *testing.T) {
	base := time.Unix(0, 0).UTC()
	span := func(attrs map[string]string) SpanData {
		return SpanData{
			TraceID: "t", SpanID: "s", Name: "http.v2.invoke",
			Start: base, End: base.Add(10 * time.Millisecond),
			Attrs: attrs,
		}
	}

	ok := span(map[string]string{
		SpanAttrPhasePfx + PhaseDecode: "1000000",
		SpanAttrPhasePfx + PhaseOther:  "9000000",
		"status":                       "200",
	})
	if err := ValidatePhases([]SpanData{ok}); err != nil {
		t.Fatalf("valid span rejected: %v", err)
	}

	cases := []struct {
		name  string
		attrs map[string]string
	}{
		{"unknown phase", map[string]string{SpanAttrPhasePfx + "warp": "1"}},
		{"non-integer", map[string]string{SpanAttrPhasePfx + PhaseDecode: "fast"}},
		{"negative", map[string]string{SpanAttrPhasePfx + PhaseDecode: "-5"}},
		{"sum exceeds duration", map[string]string{
			SpanAttrPhasePfx + PhaseDecode: "9000000",
			SpanAttrPhasePfx + PhaseEncode: "2000000",
		}},
	}
	for _, tc := range cases {
		if err := ValidatePhases([]SpanData{span(tc.attrs)}); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}

// TestEachServerTimingRoundTrip: every phase ServerTiming renders comes
// back from EachServerTiming in header order with its duration (to the
// header's microsecond precision), and ParseServerTiming agrees.
func TestEachServerTimingRoundTrip(t *testing.T) {
	clk := NewFakeClock(time.Time{})
	pt := AcquirePhaseTimer(clk)
	defer pt.Release()
	steps := []struct {
		phase string
		d     time.Duration
	}{
		{PhaseDecode, 41 * time.Microsecond},
		{PhaseSessionLookup, 1234567 * time.Nanosecond},
		{PhaseDispatch, 2 * time.Second},
		{PhaseEncode, 999 * time.Nanosecond},
	}
	for _, st := range steps {
		r := pt.Start(st.phase)
		clk.Advance(st.d)
		r.End()
	}
	header := pt.ServerTiming()
	var names []string
	EachServerTiming(header, func(name string, d time.Duration) {
		names = append(names, name)
		want := steps[len(names)-1].d.Round(time.Microsecond)
		if d.Round(time.Microsecond) != want {
			t.Errorf("%s: dur %v, want %v (header %q)", name, d, want, header)
		}
	})
	if len(names) != len(steps) {
		t.Fatalf("visited %v from %q", names, header)
	}
	for i, st := range steps {
		if names[i] != st.phase {
			t.Errorf("entry %d = %q, want %q", i, names[i], st.phase)
		}
	}
	parsed := ParseServerTiming(header)
	if len(parsed) != len(steps) || parsed[PhaseDispatch] != 2*time.Second {
		t.Fatalf("ParseServerTiming(%q) = %v", header, parsed)
	}
}

// TestEachServerTimingSkipsMalformed: entries without a name, without
// a dur, or with an unparsable or negative dur are skipped; an entry
// repeating dur reports the last valid one; ParseServerTiming keeps the
// last entry of a repeated name.
func TestEachServerTimingSkipsMalformed(t *testing.T) {
	const v = " decode ; dur=1.5 ,, bare, encode;desc=x, other;dur=-1, fsync;dur=abc," +
		"interp.dispatch;dur=2;dur=3;dur=x, decode;dur=0.25"
	var got []string
	EachServerTiming(v, func(name string, d time.Duration) {
		got = append(got, fmt.Sprintf("%s=%v", name, d))
	})
	want := []string{"decode=1.5ms", "interp.dispatch=3ms", "decode=250µs"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	parsed := ParseServerTiming(v)
	if len(parsed) != 2 || parsed[PhaseDecode] != 250*time.Microsecond || parsed[PhaseDispatch] != 3*time.Millisecond {
		t.Fatalf("ParseServerTiming = %v", parsed)
	}
	if n := len(ParseServerTiming("")); n != 0 {
		t.Fatalf("empty header parsed to %d entries", n)
	}
}
