package httpapi

import (
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/obsv"
	"lce/internal/opsplane"
	"lce/internal/tenant"
)

var updateParity = flag.Bool("update-parity", false, "rewrite testdata/parity from the current code")

// tickClock is a FakeClock that advances before every read, by a
// step that cycles through 1..13 multiples of a prime base, so each
// span edge and phase boundary lands on a distinct, reproducible
// instant and the durations the instrumentation reports vary across
// histogram buckets and Server-Timing roundings.
type tickClock struct {
	*obsv.FakeClock
	base  time.Duration
	reads atomic.Int64
}

func (c *tickClock) Now() time.Time {
	c.Advance(time.Duration(c.reads.Add(1)%13+1) * c.base)
	return c.FakeClock.Now()
}

// parityStep is one request of the fixed parity sequence.
type parityStep struct {
	method, path, session, body string
	traced                      bool // carry an upstream X-LCE-Trace header
}

// paritySequence covers every instrumented shape: v2 success and
// semantic error, a best-effort batch with one failure, a second
// session, a legacy invoke on the default session, an upstream-traced
// request, a metadata route, and a session reset.
var paritySequence = []parityStep{
	{method: "POST", path: "/v2/ec2?Action=CreateVpc", session: "alice", body: `{"params":{"cidrBlock":"10.0.0.0/16"}}`},
	{method: "POST", path: "/v2/ec2?Action=DescribeVpcs", session: "alice"},
	{method: "POST", path: "/v2/ec2?Action=CreateVpc", session: "alice", body: `{"params":{}}`},
	{method: "POST", path: "/v2/ec2/batch", session: "alice", body: `{"mode":"best-effort","requests":[{"action":"CreateVpc","params":{"cidrBlock":"10.1.0.0/16"}},{"action":"CreateVpc","params":{"cidrBlock":"10.0.0.0/8"}}]}`},
	{method: "POST", path: "/v2/ec2?Action=CreateVpc", session: "bob", body: `{"params":{"cidrBlock":"10.2.0.0/16"}}`},
	{method: "POST", path: "/invoke", body: `{"action":"DescribeVpcs"}`},
	{method: "POST", path: "/v2/ec2?Action=DescribeVpcs", session: "bob", traced: true},
	{method: "GET", path: "/actions"},
	{method: "POST", path: "/v2/ec2/reset", session: "alice"},
	{method: "POST", path: "/v2/ec2?Action=DescribeVpcs", session: "alice"},
}

// parityRun drives paritySequence through a fully instrumented server
// (seeded tracer on a ticking clock, ops plane, tenant pool) and
// returns every observable artifact keyed by golden file name. With
// subscribe, a bus subscriber is attached for the whole run and its
// events are one of the artifacts.
func parityRun(t *testing.T, subscribe bool) map[string]string {
	t.Helper()
	clock := &tickClock{FakeClock: obsv.NewFakeClock(time.Time{}), base: 7919 * time.Nanosecond}
	obs := obsv.New(42, 0)
	obs.Tracer.SetClock(clock)
	static := obsv.NewFakeClock(time.Time{})
	plane := opsplane.New(opsplane.Config{Service: "ec2", Obs: obs, Clock: static, Heartbeat: -1})
	var sub *opsplane.Subscription
	if subscribe {
		sub = plane.Bus.Subscribe(opsplane.Filter{}, 4096)
	}
	pool, err := tenant.New(ec2.Factory(), tenant.Config{Shards: 2, Capacity: 8, Clock: static, Registry: obs.Registry, OnEvict: plane.OnEvict()})
	if err != nil {
		t.Fatal(err)
	}
	h := New(ec2.New(), WithPool(pool), WithObs(obs), WithOps(plane), WithNode("n1"))

	upstream := obsv.NewTracer(7, 0)
	upstream.SetClock(obsv.NewFakeClock(time.Time{}))
	_, up := upstream.StartRoot(context.Background(), "client")

	var responses strings.Builder
	for i, st := range paritySequence {
		req := httptest.NewRequest(st.method, st.path, strings.NewReader(st.body))
		if st.session != "" {
			req.Header.Set(SessionHeader, st.session)
		}
		if st.traced {
			obsv.Inject(req.Header, up)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		responses.WriteString(strconv.Itoa(i) + " " + st.method + " " + st.path + " -> " + strconv.Itoa(w.Code) + "\n")
		responses.WriteString("Server-Timing: " + w.Header().Get("Server-Timing") + "\n")
		responses.WriteString(w.Body.String() + "\n")
	}

	out := map[string]string{"responses.txt": responses.String()}
	var prom, om strings.Builder
	obs.Registry.WritePrometheus(&prom)
	obs.Registry.WriteOpenMetrics(&om)
	out["metrics.prom"] = prom.String()
	out["metrics.om"] = om.String()
	var traces strings.Builder
	if err := obs.Tracer.WriteJSONL(&traces); err != nil {
		t.Fatal(err)
	}
	out["spans.jsonl"] = traces.String()
	flight, err := json.MarshalIndent(plane.Flight.Dump("ec2"), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out["flight.json"] = string(flight) + "\n"
	if sub != nil {
		plane.Bus.Close()
		var events strings.Builder
		for e := range sub.Events() {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			events.Write(line)
			events.WriteByte('\n')
		}
		out["events.jsonl"] = events.String()
	}
	return out
}

// TestInstrumentationByteParity pins everything the request-path
// instrumentation emits — response bodies and Server-Timing headers,
// the Prometheus and OpenMetrics expositions (exemplars included), the
// span JSONL, the flight-recorder dump, and the subscribed event
// stream — to goldens, so a change to how the instrumentation is
// computed cannot change a byte of what it reports. A second run
// without a bus subscriber must produce the same metrics and traces:
// whether anyone listens never changes what is counted.
func TestInstrumentationByteParity(t *testing.T) {
	dir := filepath.Join("testdata", "parity")
	got := parityRun(t, true)
	if *updateParity {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range got {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, body := range got {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if body != string(want) {
			t.Errorf("%s differs from golden:\n%s", name, firstDiff(string(want), body))
		}
	}
	quiet := parityRun(t, false)
	for _, name := range []string{"responses.txt", "metrics.prom", "metrics.om", "spans.jsonl", "flight.json"} {
		if quiet[name] != got[name] {
			t.Errorf("%s without a subscriber differs from the subscribed run:\n%s", name, firstDiff(got[name], quiet[name]))
		}
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return "line " + strconv.Itoa(i+1) + ":\nwant: " + w + "\ngot:  " + g
		}
	}
	return "(no line differs)"
}
