package align

import (
	"strings"
	"sync"
	"testing"
)

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	const goroutines = 16
	const perG = 1000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.TraceCompared(i%4 == 0)
				if i%8 == 0 {
					c.RecordTransientFault()
				}
				if i%16 == 0 {
					c.RecordRetry()
				}
			}
		}(g)
	}
	wg.Wait()
	c.RepairsApplied(3)
	c.RoundFinished()

	got := c.Snapshot()
	want := Stats{
		TracesCompared:  goroutines * perG,
		Divergent:       goroutines * perG / 4,
		Repairs:         3,
		Rounds:          1,
		Retries:         goroutines * ((perG + 15) / 16),
		TransientFaults: goroutines * ((perG + 7) / 8),
	}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestStatsString(t *testing.T) {
	var c Counters
	c.TraceCompared(true)
	c.TraceCompared(false)
	c.RecordTransientFault()
	c.RecordRetry()
	c.RepairsApplied(1)
	c.RoundFinished()
	s := c.String()
	for _, want := range []string{"2 comparisons", "1 divergent", "1 repairs", "1 rounds", "1 retries", "1 transient faults"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if c.Snapshot().String() != s {
		t.Error("counter and snapshot summaries disagree")
	}
}
