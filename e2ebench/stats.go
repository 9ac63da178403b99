package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is noise, so the benchmark refuses it.
const minTail = 10

// rank is the 1-based nearest-rank position of quantile q in n sorted
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailSupported reports whether n samples put at least minTail
// samples beyond the q-quantile.
func tailSupported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minTail
}

// quantile returns the nearest-rank q-quantile of sorted (ascending).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// sortedCopy returns d sorted ascending, leaving d untouched.
func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// tally counts calls attempted and calls that failed: a call fails
// when the transport errors, the server answers an error, or the
// answer disagrees with the state the program expects.
type tally struct {
	attempted, failed int64
	firstErr          error
}

// record accounts one attempted call whose check returned err.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// errorRate is failed over attempted calls (0 when nothing ran).
func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// validName reports whether s is a legal metric name: it starts with a
// letter or digit and has at most 64 letters, digits, '_', '.' and '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 || !alnum(s[0]) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !alnum(c) && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if s == "" || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case alnum(c), c == '_', c == '/', c == '%', c == '.', c == '-':
		default:
			return false
		}
	}
	return true
}

func alnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// span is one timed call into a layer: which session it served (the
// key that ties a call's spans together across layers) and its
// interval in nanoseconds since the recorder's base.
type span struct {
	key        string
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// sortSpans orders spans by key, then start.
func sortSpans(s []span) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].key != s[j].key {
			return s[i].key < s[j].key
		}
		return s[i].start < s[j].start
	})
}

// selfTimes returns, for each parent span, its duration minus the part
// of its interval covered by child spans with the same key. Children
// may nest or overlap (a journaled call contains the bare call it
// wraps); the covered part is their union clipped to the parent. Both
// slices must be sorted by sortSpans. The result is in parent order.
func selfTimes(parents, children []span) []int64 {
	out := make([]int64, len(parents))
	for i, p := range parents {
		// First child of this key starting at or after p.start.
		j := sort.Search(len(children), func(k int) bool {
			c := children[k]
			return c.key > p.key || c.key == p.key && c.start >= p.start
		})
		var covered, reach int64 = 0, p.start
		for ; j < len(children) && children[j].key == p.key && children[j].start < p.end; j++ {
			lo, hi := max(children[j].start, reach), min(children[j].end, p.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = p.dur() - covered
	}
	return out
}

// meanNs is the mean of ns values (0 for none).
func meanNs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// durations returns each span's length.
func durations(s []span) []int64 {
	out := make([]int64, len(s))
	for i, x := range s {
		out[i] = x.dur()
	}
	return out
}

// quantileNs is the nearest-rank q-quantile of ns values, or an error
// when fewer than minTail samples lie beyond it.
func quantileNs(v []int64, q float64) (int64, error) {
	if !tailSupported(len(v), q) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples give %d",
			q*100, minTail, len(v), max(0, len(v)-rank(len(v), q)))
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), q)-1], nil
}

// medianFloat is the median of v (mean of the middle two when even).
func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
