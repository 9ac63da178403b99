package main

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lce"
	"lce/internal/cloudapi"
	"lce/internal/cluster"
	"lce/internal/durable"
	"lce/internal/httpapi"
	"lce/internal/opsplane"
	"lce/internal/tenant"
)

// layer names a seam the traced run times from outside the program.
type layer int

const (
	layerClient    layer = iota // send to last byte, in the load generator
	layerRouter                 // lce-router's http.Handler
	layerNode                   // lce-server's http.Handler
	layerJournaled              // session backend after durable Adopt
	layerInvoke                 // bare emulator backend, before Adopt
	layerAdopt                  // durable Adopt: rehydrate + journal open
	layerSpill                  // durable Spill of an evicted session
	layerFactory                // tenant factory: fork a fresh emulator
	numLayers
)

// recorder keeps every span of the measured window in memory; the
// metrics are computed from them after the window closes.
type recorder struct {
	base time.Time
	on   atomic.Bool

	mu         sync.Mutex
	spans      [numLayers][]span
	spillBytes int64

	// Allocation probe: while probing, the node handler and the bare
	// invoke count heap allocations around the call they wrap.
	probing                      atomic.Bool
	nodeAllocs, invokeAllocs     atomic.Uint64
	nodeProbeCalls, invokeProbes atomic.Uint64
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// add records a span for l that started at t0 and lasted d.
func (r *recorder) add(l layer, key string, t0 time.Time, d time.Duration) {
	if !r.on.Load() {
		return
	}
	start := t0.Sub(r.base).Nanoseconds()
	r.mu.Lock()
	r.spans[l] = append(r.spans[l], span{key: key, start: start, end: start + d.Nanoseconds()})
	r.mu.Unlock()
}

// mallocs reads the process's cumulative heap allocation count. It
// stops the world, so it is only used in the serial probe phase.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

type sessionKey struct{}

// sessionFrom returns the session a node handler put on the request
// context ("" outside a request: journal replay during rehydration).
func sessionFrom(ctx context.Context) (string, bool) {
	if ctx == nil {
		return "", false
	}
	s, ok := ctx.Value(sessionKey{}).(string)
	return s, ok
}

// handler times an http.Handler. The node handler also stamps the
// session onto the request context, which httpapi passes down to the
// backend as Request.Ctx, so backend spans join the request's key.
func (r *recorder) handler(l layer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		key := req.Header.Get(httpapi.SessionHeader)
		if l == layerNode {
			req = req.WithContext(context.WithValue(req.Context(), sessionKey{}, key))
		}
		var a0 uint64
		probe := l == layerNode && r.probing.Load()
		if probe {
			a0 = mallocs()
		}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(t0)
		if probe {
			r.nodeAllocs.Add(mallocs() - a0)
			r.nodeProbeCalls.Add(1)
		}
		r.add(l, key, t0, d)
	})
}

// timedBackend times Invoke on the backend it wraps. Inner exposes the
// wrapped backend, so the durable tier and httpapi still find the
// emulator underneath.
type timedBackend struct {
	cloudapi.Backend
	rec   *recorder
	layer layer
}

func (b *timedBackend) Inner() cloudapi.Backend { return b.Backend }

func (b *timedBackend) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	key, fromRequest := sessionFrom(req.Ctx)
	var a0 uint64
	probe := fromRequest && b.layer == layerInvoke && b.rec.probing.Load()
	if probe {
		a0 = mallocs()
	}
	t0 := time.Now()
	res, err := b.Backend.Invoke(req)
	d := time.Since(t0)
	if probe {
		b.rec.invokeAllocs.Add(mallocs() - a0)
		b.rec.invokeProbes.Add(1)
	}
	if fromRequest {
		b.rec.add(b.layer, key, t0, d)
	}
	return res, err
}

// factory times the tenant factory and wraps each product so its
// Invoke is timed as the bare emulator.
func (r *recorder) factory(f cloudapi.BackendFactory) cloudapi.BackendFactory {
	return func() cloudapi.Backend {
		t0 := time.Now()
		b := f()
		r.add(layerFactory, "", t0, time.Since(t0))
		return &timedBackend{Backend: b, rec: r, layer: layerInvoke}
	}
}

// timedSpill is the tenant.SpillTier around *durable.Store: it times
// Adopt and Spill and wraps each adopted backend so its Invoke is timed
// as the journaled call.
type timedSpill struct {
	store *durable.Store
	rec   *recorder
}

func (t *timedSpill) Adopt(ctx context.Context, id string, b cloudapi.Backend) (cloudapi.Backend, bool) {
	t0 := time.Now()
	wb, ok := t.store.Adopt(ctx, id, b)
	t.rec.add(layerAdopt, id, t0, time.Since(t0))
	if !ok {
		return wb, false
	}
	return &timedBackend{Backend: wb, rec: t.rec, layer: layerJournaled}, true
}

func (t *timedSpill) Spill(id string, b cloudapi.Backend) (int64, error) {
	// The pool hands back what Adopt returned; the store spills only
	// the session backend it made.
	if tb, ok := b.(*timedBackend); ok {
		b = tb.Backend
	}
	t0 := time.Now()
	n, err := t.store.Spill(id, b)
	t.rec.add(layerSpill, id, t0, time.Since(t0))
	if err == nil && t.rec.on.Load() {
		t.rec.mu.Lock()
		t.rec.spillBytes += n
		t.rec.mu.Unlock()
	}
	return n, err
}

func (t *timedSpill) Forget(id string) { t.store.Forget(id) }
func (t *timedSpill) Count() int       { return t.store.Count() }

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// served is an http.Server on a loopback listener, with a way to stop
// it and wait for its accept loop.
type served struct {
	url  string
	ln   *countingListener
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{url: "http://" + ln.Addr().String(), ln: &countingListener{Listener: ln}, srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(s.ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *served) close() {
	_ = s.srv.Close() // the listener error is the only one, and it is being discarded with the server
	<-s.done
}

// node is one in-process lce-server: the same layers cmd/lce-server
// assembles through lce.NewServer, built from their constructors with
// the benchmark's timers on the seams between them.
type node struct {
	pool *tenant.Pool
	srv  *served
}

// buildNode assembles an lce-server with its production defaults
// (learned EC2, compiled interpreter, ops plane on, trace seed 1, 8
// shards, 15 min idle TTL, fsync batch). name is the -node identity;
// dataDir, when set, mounts the durable tier; capacity is -sessions.
func buildNode(rec *recorder, name, dataDir string, capacity int, logw io.Writer) (*node, error) {
	b, err := lce.NewBackend("ec2", "learned", false)
	if err != nil {
		return nil, err
	}
	factory := lce.FactoryFor(b, lce.ServerConfig{Service: "ec2", Backend: "learned"})
	ob := lce.NewObs(1)
	ob.TracerOrNil().SetIdentity(name)
	ops := opsplane.New(opsplane.Config{
		Service:    "ec2",
		Obs:        ob,
		Objectives: opsplane.DefaultObjectives(),
		LogHandler: slog.NewTextHandler(logw, &slog.HandlerOptions{Level: slog.LevelInfo}),
	})
	n := &node{}
	var spill tenant.SpillTier
	if dataDir != "" {
		store, err := durable.Open(durable.Config{Dir: dataDir, Fsync: "batch", Registry: ob.Registry, Events: ops.OnDurable()})
		if err != nil {
			return nil, err
		}
		store.Recover()
		spill = &timedSpill{store: store, rec: rec}
	}
	n.pool, err = tenant.New(rec.factory(factory), tenant.Config{
		Shards:   tenant.DefaultShards,
		Capacity: capacity,
		IdleTTL:  15 * time.Minute,
		Registry: ob.Registry,
		OnEvict:  ops.OnEvict(),
		Spill:    spill,
	})
	if err != nil {
		return nil, err
	}
	h := httpapi.New(b, httpapi.WithPool(n.pool), httpapi.WithObs(ob), httpapi.WithOps(ops), httpapi.WithNode(name))
	n.srv, err = serve(rec.handler(layerNode, h))
	if err != nil {
		return nil, err
	}
	return n, nil
}

// stack is the in-process assembly of one workload: its nodes, and the
// router in front of them when the workload is routed.
type stack struct {
	nodes   []*node
	router  *cluster.Router
	front   *served // the router's listener (nil without a router)
	dataDir string  // the durable tier's directory ("" without one)
}

// entry is the URL clients talk to.
func (s *stack) entry() string {
	if s.front != nil {
		return s.front.url
	}
	return s.nodes[0].srv.url
}

// buildStack assembles w in-process under dir (the durable data dir's
// parent).
func buildStack(rec *recorder, w workload, dir string, logw io.Writer) (*stack, error) {
	st := &stack{}
	capacity := poolSlots
	if w.dataDir {
		capacity, st.dataDir = residentSlots, filepath.Join(dir, "data-inproc")
	}
	count := max(1, w.nodes)
	var members []cluster.Node
	for i := 0; i < count; i++ {
		name := ""
		if w.nodes > 0 {
			name = nodeName(i)
		}
		n, err := buildNode(rec, name, st.dataDir, capacity, logw)
		if err != nil {
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
		members = append(members, cluster.Node{Name: name, URL: n.srv.url})
	}
	if w.nodes > 0 {
		// lce-router's defaults: 128 vnodes, 2 s probes, 2 failures to
		// declare a node dead, tracing on with seed 1.
		rt, err := cluster.NewRouter(cluster.Config{Nodes: members, ProbeInterval: 2 * time.Second, FailThreshold: 2, Obs: lce.NewObs(1)})
		if err != nil {
			st.close()
			return nil, err
		}
		rt.Start()
		st.router = rt
		if st.front, err = serve(rec.handler(layerRouter, rt.Handler())); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

func (s *stack) close() {
	if s.front != nil {
		s.front.close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, n := range s.nodes {
		n.srv.close()
	}
}

// poolStats sums tenant pool counters over the nodes.
func (s *stack) poolStats() (hits, misses, evictions int64) {
	for _, n := range s.nodes {
		st := n.pool.Stats()
		hits += st.Hits
		misses += st.Misses
		evictions += st.IdleEvictions + st.CapacityEvictions
	}
	return
}

// accepted sums connections accepted by the node listeners.
func (s *stack) accepted() int64 {
	var n int64
	for _, nd := range s.nodes {
		n += nd.srv.ln.accepted.Load()
	}
	return n
}
