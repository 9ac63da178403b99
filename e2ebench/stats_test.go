package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/tenant"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{0, 0.99, false},
		{999, 0.99, false}, // rank 990 leaves 9 beyond
		{1000, 0.99, true}, // rank 990 leaves 10 beyond
		{1009, 0.99, true},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if _, err := quantileNs(make([]int64, 999), 0.99); err == nil {
		t.Error("quantileNs accepted a p99 with 9 samples beyond it")
	}
}

func TestNearestRankQuantile(t *testing.T) {
	var d []time.Duration
	ns := make([]int64, 0, 1000)
	for i := 1000; i >= 1; i-- {
		d = append(d, time.Duration(i))
		ns = append(ns, int64(i))
	}
	s := sortedCopy(d)
	if got := quantile(s, 0.5); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
	if got := quantile(s, 0.99); got != 990 {
		t.Errorf("p99 = %d, want 990", got)
	}
	if got, err := quantileNs(ns, 0.99); err != nil || got != 990 {
		t.Errorf("quantileNs p99 = %d, %v; want 990", got, err)
	}
	if d[0] != 1000 {
		t.Error("sortedCopy reordered its input")
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianFloat = %g, want 2.5", got)
	}
}

func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	var a tally
	first := errors.New("first")
	a.record(nil)
	a.record(first)
	a.record(errors.New("second"))
	if a.attempted != 3 || a.failed != 2 || a.firstErr != first {
		t.Fatalf("tally = %+v", a)
	}
	if got := a.errorRate(); got != 2.0/3 {
		t.Errorf("errorRate = %g", got)
	}
	var b tally
	b.record(nil)
	b.add(a)
	if b.attempted != 4 || b.failed != 2 || b.firstErr != first {
		t.Errorf("after add: %+v", b)
	}
	if (tally{}).errorRate() != 0 {
		t.Error("empty tally has a non-zero error rate")
	}
}

// A wrong answer — here the state the direct-to-code baseline loses —
// is a failed call, just like an error status.
func TestCallerCountsWrongAnswersAsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("Action") {
		case "DescribeInstances":
			_, _ = w.Write([]byte(`{"result":{"instances":[{"id":"i-1","instanceTenancy":"default"}]}}`))
		case "DescribeVpcs":
			_, _ = w.Write([]byte(`{"result":{"vpcs":[{"id":"vpc-1"}]}}`))
		default:
			w.WriteHeader(http.StatusBadRequest)
			_, _ = w.Write([]byte(`{"__error":true,"Code":"InvalidAction","Message":"no"}`))
		}
	}))
	defer srv.Close()
	c := newCaller(srv.URL)
	defer c.close()
	s := &session{id: "s", live: map[string][]string{"instances": {"i-1"}, "vpcs": {"vpc-1"}}}
	c.describe(s, vpcs)      // right
	c.describe(s, instances) // wrong tenancy
	c.ok(s, "DeleteVpc", params{"vpcId": "vpc-1"})
	s.live["vpcs"] = nil
	c.describe(s, vpcs) // lists a deleted VPC
	if c.tally.attempted != 4 || c.tally.failed != 3 {
		t.Fatalf("tally = %+v, want 4 attempted, 3 failed", c.tally)
	}
	if !strings.Contains(c.tally.firstErr.Error(), "tenancy") {
		t.Errorf("first error = %v", c.tally.firstErr)
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"calls_per_s", "interp.invoke_us", "9lives", "a-b.c_d", strings.Repeat("x", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "a/b", "é", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"ms", "1/s", "%", "1/kcall", "MiB"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "m s", "ms!", strings.Repeat("u", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parents := []span{
		{"a", 0, 100},
		{"a", 200, 300},
		{"b", 0, 100},
	}
	children := []span{
		{"a", 10, 60}, // journaled call ...
		{"a", 20, 50}, // ... and the bare call nested in it
		{"a", 70, 80},
		{"a", 90, 120}, // clipped to the parent's end
		{"b", 5, 95},
		{"c", 0, 100}, // another session's span never counts
	}
	sortSpans(parents)
	sortSpans(children)
	got := selfTimes(parents, children)
	want := map[span]int64{
		{"a", 0, 100}:   100 - 50 - 10 - 10,
		{"a", 200, 300}: 100,
		{"b", 0, 100}:   10,
	}
	for i, p := range parents {
		if got[i] != want[p] {
			t.Errorf("self(%v) = %d, want %d", p, got[i], want[p])
		}
	}
}

func TestParityIgnoresOnlyRequestID(t *testing.T) {
	a := []exchange{{"DescribeVpcs", 200, []byte(`{"RequestId":"lce-1","result":{"vpcs":[]}}` + "\n")}}
	b := []exchange{{"DescribeVpcs", 200, []byte(`{"RequestId":"lce-2","result":{"vpcs":[]}}` + "\n")}}
	if err := sameExchanges(a, b); err != nil {
		t.Errorf("bodies differing only in RequestId: %v", err)
	}
	c := []exchange{{"DescribeVpcs", 200, []byte(`{"RequestId":"lce-2","result":{"vpcs":[{"id":"vpc-1"}]}}` + "\n")}}
	if sameExchanges(a, c) == nil {
		t.Error("different results compared equal")
	}
	e := []exchange{{"DescribeVpcs", 500, []byte(`{"__error":true,"Code":"X","Message":"m","RequestId":"lce-3"}`)}}
	f := []exchange{{"DescribeVpcs", 500, []byte(`{"__error":true,"Code":"X","Message":"m","RequestId":"lce-4"}`)}}
	if err := sameExchanges(e, f); err != nil {
		t.Errorf("error envelopes differing only in RequestId: %v", err)
	}
}

// The metrics the command reports are exactly those BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Errorf("%s: command reports %d metrics, BENCHMARK.json lists %d", c.kind, len(c.defs), len(c.json))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("%s[%d]: command %s %s, BENCHMARK.json %s %s", c.kind, i, d.name, d.unit, c.json[i].Name, c.json[i].Unit)
			}
			if !validName(d.name) || !validUnit(d.unit) {
				t.Errorf("%s: illegal name or unit %q %q", c.kind, d.name, d.unit)
			}
		}
	}
}

func TestSessionsSpreadOverNodesAndShards(t *testing.T) {
	for _, name := range []string{"hot", "routed", "churn"} {
		w := workloads[name]
		a, b := newSessions(w, 7), newSessions(w, 7)
		seen := map[string]bool{}
		for i := range a {
			if a[i].id != b[i].id || a[i].net != b[i].net {
				t.Fatalf("%s: seed 7 gave two different session lists", name)
			}
			if seen[a[i].id] {
				t.Fatalf("%s: duplicate session %s", name, a[i].id)
			}
			seen[a[i].id] = true
		}
		if newSessions(w, 8)[0].id == a[0].id {
			t.Errorf("%s: seeds 7 and 8 gave the same first session", name)
		}
		// Replaying the sessions into a pool shaped like the server's
		// must not evict: the hot pool is exactly full.
		nodes := max(1, w.nodes)
		capacity := w.sessions / nodes
		if w.dataDir {
			capacity = w.sessions // churn's 16 slots evict by design
		}
		for n := 0; n < nodes; n++ {
			pool, err := tenant.New(func() cloudapi.Backend { return nil }, tenant.Config{Capacity: capacity})
			if err != nil {
				t.Fatal(err)
			}
			for i := n; i < len(a); i += nodes {
				if _, err := pool.Get(a[i].id); err != nil {
					t.Fatal(err)
				}
			}
			if st := pool.Stats(); st.CapacityEvictions != 0 {
				t.Errorf("%s node %d: %d evictions, per shard %v", name, n, st.CapacityEvictions, st.PerShard)
			}
		}
	}
}
