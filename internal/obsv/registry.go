package obsv

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a typed metrics registry: counters, gauges, and
// fixed-bucket histograms, identified by name plus label pairs, and
// exposed in Prometheus text format. It supersedes the ad-hoc
// counter structs that predate it (align.Counters publishes its
// snapshot into a Registry; see align.Stats.PublishTo).
//
// Instruments are created on first use and memoized, so hot paths
// should hold the returned instrument rather than re-looking it up
// per event. A nil *Registry is the disabled registry: lookups return
// nil instruments whose methods no-op.
type Registry struct {
	mu    sync.Mutex
	items map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: map[string]*instrument{}}
}

type instrument struct {
	name   string
	labels string // canonical rendered {k="v",...} or ""
	kind   string // "counter" | "gauge" | "floatgauge" | "histogram"

	val  atomic.Int64  // counter/gauge
	fval atomic.Uint64 // floatgauge (Float64bits)
	hist *histogram
}

// exposKind maps the internal instrument kind to the Prometheus TYPE
// keyword (float gauges expose as plain gauges).
func exposKind(kind string) string {
	if kind == "floatgauge" {
		return "gauge"
	}
	return kind
}

// EscapeLabelValue escapes a label value per the Prometheus text
// exposition rules: backslash, double quote, and line feed are the
// only characters that need (and get) escaping. Go's %q is close but
// not conformant — it escapes control and non-ASCII characters into
// \u sequences Prometheus parsers reject.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// renderLabels canonicalizes alternating key,value pairs into
// Prometheus label syntax, sorted by key. A trailing odd key is
// dropped.
func renderLabels(kv []string) string {
	if len(kv) < 2 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, p.k, EscapeLabelValue(p.v))
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the instrument for (name, labels). A kind
// clash (the same series requested as two different types) panics:
// that is a programming error worth failing loudly on.
func (r *Registry) lookup(kind, name string, labels []string) *instrument {
	if r == nil {
		return nil
	}
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.items[key]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("obsv: metric %s registered as %s, requested as %s", key, in.kind, kind))
		}
		return in
	}
	in := &instrument{name: name, labels: renderLabels(labels), kind: kind}
	if kind == "histogram" {
		in.hist = newHistogram(DefaultDurationBuckets)
	}
	r.items[key] = in
	return in
}

// Counter is a monotonically increasing series.
type Counter struct{ in *instrument }

// Counter returns the counter for name and label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	in := r.lookup("counter", name, labels)
	if in == nil {
		return nil
	}
	return &Counter{in: in}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || c.in == nil || n < 0 {
		return
	}
	c.in.val.Add(n)
}

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil || c.in == nil {
		return 0
	}
	return c.in.val.Load()
}

// Gauge is a series that can go up and down.
type Gauge struct{ in *instrument }

// Gauge returns the gauge for name and label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	in := r.lookup("gauge", name, labels)
	if in == nil {
		return nil
	}
	return &Gauge{in: in}
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil || g.in == nil {
		return
	}
	g.in.val.Store(v)
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil || g.in == nil {
		return
	}
	g.in.val.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil || g.in == nil {
		return 0
	}
	return g.in.val.Load()
}

// FloatGauge is a float-valued series that can go up and down — the
// SLO engine's burn rates are ratios, which an integer gauge cannot
// carry without losing the signal near 1.0.
type FloatGauge struct{ in *instrument }

// FloatGauge returns the float gauge for name and label pairs. It
// exposes as TYPE gauge; requesting the same series as an integer
// Gauge panics (kind clash).
func (r *Registry) FloatGauge(name string, labels ...string) *FloatGauge {
	in := r.lookup("floatgauge", name, labels)
	if in == nil {
		return nil
	}
	return &FloatGauge{in: in}
}

// Set stores v (NaN is ignored).
func (g *FloatGauge) Set(v float64) {
	if g == nil || g.in == nil || math.IsNaN(v) {
		return
	}
	g.in.fval.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil || g.in == nil {
		return 0
	}
	return math.Float64frombits(g.in.fval.Load())
}

// DefaultDurationBuckets are the fixed histogram bounds, in seconds:
// exponential from 10µs to 10s, sized for in-process backend calls at
// the low end and retry-inflated chaos calls at the high end.
var DefaultDurationBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	count   atomic.Int64
	// exemplars holds the most recent exemplar per bucket (last write
	// wins) — the trace-ID breadcrumb that links a latency bucket to
	// the request that landed in it.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar attaches one sampled observation's trace ID to a histogram
// bucket, rendered in the OpenMetrics exposition as
//
//	..._bucket{le="0.1"} 17 # {trace_id="7f3a..."} 0.083
//
// so a slow bucket resolves straight to a trace in /debug/traces.
type Exemplar struct {
	TraceID string
	Value   float64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{
		bounds:    bounds,
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Histogram is a fixed-bucket distribution series.
type Histogram struct{ h *histogram }

// Histogram returns the histogram for name and label pairs, with
// DefaultDurationBuckets.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	in := r.lookup("histogram", name, labels)
	if in == nil {
		return nil
	}
	return &Histogram{h: in.hist}
}

// Observe records one sample. Safe for concurrent use.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.h == nil || math.IsNaN(v) {
		return
	}
	d := h.h
	i := sort.SearchFloat64s(d.bounds, v)
	d.counts[i].Add(1)
	d.count.Add(1)
	for {
		old := d.sumBits.Load()
		if d.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one sample and attaches traceID as the
// owning bucket's exemplar (an empty traceID records the sample only —
// the same pay-for-what-you-use rule as everywhere else in obsv).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if h == nil || h.h == nil || traceID == "" || math.IsNaN(v) {
		return
	}
	d := h.h
	i := sort.SearchFloat64s(d.bounds, v)
	d.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
}

// ObserveDurationExemplar is ObserveExemplar over a duration in
// seconds.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, traceID string) {
	h.ObserveExemplar(d.Seconds(), traceID)
}

// Exemplars returns the per-bucket exemplars (nil entries where no
// exemplar has been recorded); index len(bounds) is the +Inf bucket.
func (h *Histogram) Exemplars() []*Exemplar {
	if h == nil || h.h == nil {
		return nil
	}
	out := make([]*Exemplar, len(h.h.exemplars))
	for i := range h.h.exemplars {
		out[i] = h.h.exemplars[i].Load()
	}
	return out
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil || h.h == nil {
		return 0
	}
	return h.h.count.Load()
}

// Sum returns the sum of samples.
func (h *Histogram) Sum() float64 {
	if h == nil || h.h == nil {
		return 0
	}
	return math.Float64frombits(h.h.sumBits.Load())
}

// Quantile estimates the q-th quantile (q in [0, 1]) by linear
// interpolation within the owning bucket — the standard
// Prometheus-style estimate, accurate to the bucket width. Samples
// above the last bound report the last bound. Returns 0 with no
// samples.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.h == nil {
		return 0
	}
	d := h.h
	total := d.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range d.counts {
		c := d.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(d.bounds) {
				return d.bounds[len(d.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = d.bounds[i-1]
			}
			hi := d.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return d.bounds[len(d.bounds)-1]
}

// QuantileDuration is Quantile converted to a duration.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(time.Second))
}

// snapshotItems returns the instruments sorted by (name, labels).
func (r *Registry) snapshotItems() []*instrument {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	items := make([]*instrument, 0, len(r.items))
	for _, in := range r.items {
		items = append(items, in)
	}
	r.mu.Unlock()
	sort.Slice(items, func(i, j int) bool {
		if items[i].name != items[j].name {
			return items[i].name < items[j].name
		}
		return items[i].labels < items[j].labels
	})
	return items
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4), instruments sorted by name then
// labels so the output is diffable.
func (r *Registry) WritePrometheus(w *strings.Builder) { r.writeExposition(w, false) }

// WriteOpenMetrics renders the OpenMetrics-flavoured exposition: the
// same deterministic body as WritePrometheus plus per-bucket histogram
// exemplars (`# {trace_id="..."} value` suffixes) and the mandatory
// `# EOF` trailer. Scrapers that ask for it get the trace-ID
// breadcrumbs; 0.0.4 scrapers keep the plain format.
func (r *Registry) WriteOpenMetrics(w *strings.Builder) { r.writeExposition(w, true) }

func (r *Registry) writeExposition(w *strings.Builder, openMetrics bool) {
	lastName := ""
	for _, in := range r.snapshotItems() {
		if in.name != lastName {
			fmt.Fprintf(w, "# TYPE %s %s\n", in.name, exposKind(in.kind))
			lastName = in.name
		}
		switch in.kind {
		case "counter", "gauge":
			fmt.Fprintf(w, "%s%s %d\n", in.name, in.labels, in.val.Load())
		case "floatgauge":
			fmt.Fprintf(w, "%s%s %s\n", in.name, in.labels, formatFloat(math.Float64frombits(in.fval.Load())))
		case "histogram":
			d := in.hist
			inner := strings.TrimSuffix(strings.TrimPrefix(in.labels, "{"), "}")
			var cum int64
			for i := 0; i <= len(d.bounds); i++ {
				le := `le="+Inf"`
				if i < len(d.bounds) {
					le = fmt.Sprintf(`le="%s"`, formatFloat(d.bounds[i]))
				}
				cum += d.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d", in.name, joinLabels(inner, le), cum)
				if openMetrics {
					if ex := d.exemplars[i].Load(); ex != nil {
						fmt.Fprintf(w, ` # {trace_id="%s"} %s`, EscapeLabelValue(ex.TraceID), formatFloat(ex.Value))
					}
				}
				w.WriteByte('\n')
			}
			fmt.Fprintf(w, "%s_sum%s %s\n", in.name, in.labels, formatFloat(math.Float64frombits(d.sumBits.Load())))
			fmt.Fprintf(w, "%s_count%s %d\n", in.name, in.labels, d.count.Load())
		}
	}
	if openMetrics {
		w.WriteString("# EOF\n")
	}
}

func joinLabels(inner, extra string) string {
	if inner == "" {
		return "{" + extra + "}"
	}
	return "{" + inner + "," + extra + "}"
}

func formatFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// OpenMetricsContentType is the content type served when a scraper
// negotiates the exemplar-bearing exposition.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// ServeHTTP implements http.Handler: GET /metrics in Prometheus text
// format, or the OpenMetrics-flavoured format (with histogram
// exemplars) when the Accept header asks for application/openmetrics-text.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var b strings.Builder
	if req != nil && strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
		r.WriteOpenMetrics(&b)
		w.Header().Set("Content-Type", OpenMetricsContentType)
	} else {
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	_, _ = w.Write([]byte(b.String()))
}
