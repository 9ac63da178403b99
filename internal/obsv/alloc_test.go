//go:build !race

package obsv

import (
	"testing"
	"time"
)

// TestRequestPathAllocs pins the allocation cost of the primitives the
// HTTP request path calls per request. The race detector instruments
// allocations, so these checks are compiled out under -race.
func TestRequestPathAllocs(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lce_x_total", "service", "ec2", "action", "DescribeVpcs", "session", "alice", "code", "OK").Inc()
	clk := NewFakeClock(time.Time{})
	pt := AcquirePhaseTimer(clk)
	defer pt.Release()
	for _, phase := range []string{PhaseDecode, PhaseSessionLookup, PhaseDispatch, PhaseEncode} {
		r := pt.Start(phase)
		clk.Advance(12345 * time.Nanosecond)
		r.End()
	}
	header := pt.ServerTiming()
	var total time.Duration

	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		// A lookup of an existing series renders its key on the stack.
		{"registry hit", 0, func() {
			reg.Counter("lce_x_total", "session", "alice", "code", "OK", "service", "ec2", "action", "DescribeVpcs").Inc()
		}},
		// The header string itself is the only allocation.
		{"ServerTiming", 1, func() { _ = pt.ServerTiming() }},
		{"EachServerTiming", 0, func() {
			EachServerTiming(header, func(_ string, d time.Duration) { total += d })
		}},
		// Exemplars overwrite their bucket slot in place.
		{"ObserveExemplar", 0, func() {
			reg.Histogram("lce_y_seconds").ObserveExemplar(0.003, "0123456789abcdef")
		}},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got > c.max {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", c.name, got, c.max)
		}
	}
}
