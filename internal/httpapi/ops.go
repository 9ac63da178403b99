package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/obsv"
	"lce/internal/opsplane"
	"lce/internal/tenant"
)

// WithOps mounts the live operations plane: dimensional request
// metrics ({service,action,session,code} on top of the per-route
// aggregates), latency exemplars carrying span trace IDs, SLO
// recording for /healthz and /readyz, flight-recorder capture of the
// data-plane routes, and the streaming endpoints
//
//	GET /debug/events          — SSE event stream (?session=&service=&kind=)
//	GET /debug/flightrecorder  — JSON dump of the recent-request window
//	GET /readyz                — fast-window SLO gate
//
// A nil plane is a no-op: the server runs the exact pre-ops code path.
func WithOps(p *opsplane.Plane) Option { return func(c *config) { c.ops = p } }

// flightRoutes are the data-plane routes the flight recorder captures:
// the deterministic request/response conversation lce-replay can
// re-drive byte-for-byte. Metadata and introspection routes (healthz,
// sessions, metrics) are excluded — their bodies embed counters and
// clocks that legitimately differ across runs.
var flightRoutes = map[string]bool{
	"invoke":    true,
	"reset":     true,
	"v2.invoke": true,
	"v2.reset":  true,
	"v2.batch":  true,
}

// codeOK is the "code" label value for non-error responses.
const codeOK = "OK"

// sloError classifies one response for the SLO engine's error rate:
// server faults (5xx), timeouts (408), and transient API faults
// surfaced as 400 (throttling — the AWS convention puts them there)
// count; semantic client errors do not, so a misbehaving client cannot
// burn the server's error budget.
func sloError(status int, code string) bool {
	switch {
	case status >= 500, status == http.StatusRequestTimeout:
		return true
	case status == http.StatusBadRequest:
		return cloudapi.IsTransientCode(code)
	default:
		return false
	}
}

// responseCode extracts the "code" label from a finished exchange:
// codeOK below 400, the unified envelope's Code when the body carries
// one, and the bare HTTP status otherwise.
func responseCode(status int, body []byte) string {
	if status < 400 {
		return codeOK
	}
	var we wireError
	if err := json.Unmarshal(body, &we); err == nil && we.Code != "" {
		return we.Code
	}
	return "HTTP" + strconv.Itoa(status)
}

// actionOf recovers the invoked action for the metric label and the
// flight record: the v2 query parameter wins, then the request body's
// action field. Routes without a single action (batch, reset) label
// as "".
func actionOf(r *http.Request, body []byte) string {
	if a := queryParam(r, "Action"); a != "" {
		return a
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return ""
	}
	var req wireRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return ""
	}
	return req.Action
}

// routeMetrics holds one route's instruments. Each is resolved from
// the registry the first time the route uses it and held from then
// on, so a request reaches the registry (label rendering, its global
// lock) only when it is the first to touch a series — the moment that
// series would appear in the exposition either way, so no zero-valued
// series shows up early.
type routeMetrics struct {
	reg            *obsv.Registry
	route, service string

	requests, errors atomic.Pointer[obsv.Counter]
	seconds          atomic.Pointer[obsv.Histogram]
	// phases holds lce_phase_seconds{phase,service}, indexed like
	// obsv.PhaseNames.
	phases [len(obsv.PhaseNames)]atomic.Pointer[obsv.Histogram]

	// dims holds the ops plane's dimensional
	// lce_http_requests_total{service,action,session,code} series.
	dimsMu sync.RWMutex
	dims   map[dimKey]*obsv.Counter
}

// dimKey is the varying part of a dimensional request series.
type dimKey struct{ action, session, code string }

// held returns *p, resolving and storing it on first use. Two requests
// racing on a first use both resolve the same registry series.
func held[T any](p *atomic.Pointer[T], resolve func() *T) *T {
	if v := p.Load(); v != nil {
		return v
	}
	v := resolve()
	p.Store(v)
	return v
}

func (m *routeMetrics) requestCounter() *obsv.Counter {
	return held(&m.requests, func() *obsv.Counter { return m.reg.Counter(obsv.MetricHTTPRequests, "route", m.route) })
}

func (m *routeMetrics) errorCounter() *obsv.Counter {
	return held(&m.errors, func() *obsv.Counter { return m.reg.Counter(obsv.MetricHTTPErrors, "route", m.route) })
}

func (m *routeMetrics) latency() *obsv.Histogram {
	return held(&m.seconds, func() *obsv.Histogram { return m.reg.Histogram(obsv.MetricHTTPSeconds, "route", m.route) })
}

func (m *routeMetrics) phase(i int) *obsv.Histogram {
	return held(&m.phases[i], func() *obsv.Histogram {
		return m.reg.Histogram(obsv.MetricPhaseSeconds, "phase", obsv.PhaseNames[i], "service", m.service)
	})
}

func (m *routeMetrics) dimensional(k dimKey) *obsv.Counter {
	m.dimsMu.RLock()
	c := m.dims[k]
	m.dimsMu.RUnlock()
	if c != nil {
		return c
	}
	c = m.reg.Counter(obsv.MetricHTTPRequests,
		"service", m.service, "action", k.action, "session", k.session, "code", k.code)
	m.dimsMu.Lock()
	m.dims[k] = c
	m.dimsMu.Unlock()
	return c
}

// phaseAttrs holds the "phase.<name>" span attribute keys, indexed
// like obsv.PhaseNames, so tagging a request span builds no strings.
var phaseAttrs = func() (keys [len(obsv.PhaseNames)]string) {
	for i, name := range obsv.PhaseNames {
		keys[i] = obsv.SpanAttrPhasePfx + name
	}
	return keys
}()

// teePool recycles the response mirrors the ops plane reads error
// codes and flight records from.
var teePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledTee keeps an occasional large response from pinning its
// buffer in the pool.
const maxPooledTee = 64 << 10

// instrument wraps one route's handler with the request-scoped
// observability: root span, request/error counters, latency histogram,
// and — when the operations plane is mounted — dimensional metric
// vecs, latency exemplars, SLO recording, and flight capture. With
// everything disabled it returns fn untouched, so the plain server
// runs the exact same code path as before.
func (s *server) instrument(route string, fn http.HandlerFunc) http.HandlerFunc {
	if !s.obs.Enabled() && s.ops == nil {
		return fn
	}
	obs, ops := s.obs, s.ops
	service := s.backend.Service()
	capture := ops != nil && flightRoutes[route]
	serverTiming := strings.HasPrefix(route, "v2.")
	var metrics *routeMetrics
	if reg := obs.Registry; reg != nil {
		metrics = &routeMetrics{reg: reg, route: route, service: service, dims: map[dimKey]*obsv.Counter{}}
	}
	spanName := obsv.SpanHTTPPfx + route
	return func(w http.ResponseWriter, r *http.Request) {
		tracer := obs.TracerOrNil()
		clock := tracer.Clock()
		start := clock.Now()
		ctx := obs.Context(r.Context())
		var sp *obsv.Span
		if tracer != nil {
			// A propagated X-LCE-Trace header (router → node, or a traced
			// client → router) continues the upstream trace; without one
			// this request roots a fresh trace, exactly as before.
			if sc, ok := obsv.Extract(r.Header); ok {
				ctx, sp = tracer.StartRemote(ctx, spanName, sc)
			} else {
				ctx, sp = tracer.StartRoot(ctx, spanName)
			}
			sp.SetAttr("method", r.Method)
			sp.SetAttr("route", route)
			if s.node != "" {
				sp.SetAttr("node", s.node)
			}
		}
		// The phase timer rides the request context through every
		// layer; pooled, so the instrumented path stays allocation-
		// stable per request.
		pt := obsv.AcquirePhaseTimer(clock)
		ctx = obsv.ContextWithPhases(ctx, pt)
		var reqBody []byte
		if capture {
			// Buffer the request wire bytes for the flight record and
			// hand the handler an equivalent body.
			reqBody, _ = io.ReadAll(io.LimitReader(r.Body, 1<<20))
			r.Body = io.NopCloser(bytes.NewReader(reqBody))
		}
		sw := &statusWriter{ResponseWriter: w}
		if ops != nil {
			sw.tee = teePool.Get().(*bytes.Buffer)
		}
		if serverTiming {
			// /v2 responses advertise the phase breakdown as a
			// Server-Timing header, injected when the handler commits
			// its status — by which point every pre-write phase
			// (decode through encode) has closed.
			sw.phases = pt
		}
		// The catch-all region makes the named phases tile the handler
		// window exactly: whatever no layer claimed is "other", and
		// pt.Total() — the sum of phase self-times — IS the end-to-end
		// handler latency. The bench's coverage gate leans on that.
		outer := pt.Start(obsv.PhaseOther)
		fn(sw, r.WithContext(ctx))
		outer.End()
		status := sw.statusOrOK()
		if sp != nil {
			sp.SetAttrInt("status", int64(status))
			if status >= 400 {
				sp.SetError("status " + strconv.Itoa(status))
			}
			pt.Each(func(name string, self time.Duration, _ uint32) {
				sp.SetAttrInt(phaseAttrs[obsv.PhaseIndex(name)], self.Nanoseconds())
			})
			sp.End()
		}
		dur := pt.Total()

		code, action := "", ""
		if ops != nil {
			code = responseCode(status, sw.tee.Bytes())
			action = actionOf(r, reqBody)
		}
		if metrics != nil {
			// Per-route aggregates: the pre-ops series, kept stable so
			// existing dashboards and tests read unchanged totals.
			metrics.requestCounter().Inc()
			if status >= 400 {
				metrics.errorCounter().Inc()
			}
			// The exemplar joins a latency bucket to one concrete
			// trace: scrape the histogram, follow the trace_id into
			// GET /debug/traces. Exemplars ride only with the ops plane.
			traceID := ""
			if ops != nil {
				traceID = sp.TraceID()
			}
			metrics.latency().ObserveDurationExemplar(dur, traceID)
			// Per-phase self-time histograms: lce_phase_seconds sums
			// to lce_http_request_seconds by construction, so a
			// dashboard can stack the phases under the request curve.
			pt.Each(func(name string, self time.Duration, _ uint32) {
				metrics.phase(obsv.PhaseIndex(name)).ObserveDurationExemplar(self, traceID)
			})
			if ops != nil {
				session := sessionOf(r)
				if session == "" {
					session = tenant.DefaultSession
				}
				metrics.dimensional(dimKey{action: action, session: session, code: code}).Inc()
			}
		}
		if ops != nil {
			ops.Health.Record(sloError(status, code), dur)
			if capture {
				ops.Flight.Add(opsplane.FlightRecord{
					Time:         start,
					Method:       r.Method,
					Path:         r.URL.RequestURI(),
					Session:      sessionOf(r),
					Action:       action,
					TraceID:      sp.TraceID(),
					RequestID:    sw.Header().Get(requestIDKey),
					Status:       status,
					LatencyNs:    dur.Nanoseconds(),
					RequestBody:  string(reqBody),
					ResponseBody: sw.tee.String(),
					Phases:       pt.Map(),
				})
			}
			if sw.tee.Cap() <= maxPooledTee {
				sw.tee.Reset()
				teePool.Put(sw.tee)
			}
		}
		// Every consumer above copied what it needed; the contexts
		// holding pt died with the handler, so it can go back to the
		// pool.
		pt.Release()
	}
}

// opsRoutes mounts the operations-plane endpoints on mux.
func (s *server) opsRoutes(mux *http.ServeMux) {
	if s.ops == nil {
		return
	}
	mux.HandleFunc("GET /debug/events", s.ops.ServeEvents)
	mux.HandleFunc("GET /debug/flightrecorder", s.ops.ServeFlightRecorder)
	mux.HandleFunc("GET /readyz", s.ops.ServeReadyz)
}
