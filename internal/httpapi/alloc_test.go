//go:build !race

package httpapi

import (
	"net/http/httptest"
	"strings"
	"testing"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/obsv"
	"lce/internal/opsplane"
	"lce/internal/tenant"
)

// maxInstrumentedAllocs is the ceiling on allocations for one fully
// instrumented v2 DescribeVpcs handler round trip: the 90 measured
// with go1.24 (request and recorder construction included) plus 10%.
// The race detector instruments allocations, so this check is compiled
// out under -race.
const maxInstrumentedAllocs = 99

// TestInstrumentedRoundTripAllocCeiling drives DescribeVpcs on a
// resident session through the whole handler stack — tracer, registry,
// ops plane (bus, SLO engine, flight recorder) and tenant pool all
// mounted — and fails when the per-request allocation count climbs
// past the ceiling.
func TestInstrumentedRoundTripAllocCeiling(t *testing.T) {
	obs := obsv.New(1, 0)
	plane := opsplane.New(opsplane.Config{Service: "ec2", Obs: obs, Heartbeat: -1})
	pool, err := tenant.New(ec2.Factory(), tenant.Config{Shards: 2, Capacity: 8, Registry: obs.Registry, OnEvict: plane.OnEvict()})
	if err != nil {
		t.Fatal(err)
	}
	h := New(ec2.New(), WithPool(pool), WithObs(obs), WithOps(plane))
	call := func(action, body string) {
		req := httptest.NewRequest("POST", "/v2/ec2?Action="+action, strings.NewReader(body))
		req.Header.Set(SessionHeader, "alice")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("%s: status %d: %s", action, w.Code, w.Body)
		}
	}
	call("CreateVpc", `{"params":{"cidrBlock":"10.0.0.0/16"}}`)
	// Warm every lazily created series and pooled buffer.
	for i := 0; i < 10; i++ {
		call("DescribeVpcs", "")
	}
	allocs := testing.AllocsPerRun(200, func() { call("DescribeVpcs", "") })
	t.Logf("instrumented DescribeVpcs round trip: %.1f allocs", allocs)
	if allocs > maxInstrumentedAllocs {
		t.Fatalf("instrumented round trip allocates %.1f objects/op, ceiling %d", allocs, maxInstrumentedAllocs)
	}
}
