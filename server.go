package lce

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/cluster"
	"lce/internal/durable"
	"lce/internal/fault"
	"lce/internal/httpapi"
	"lce/internal/interp"
	"lce/internal/manual"
	"lce/internal/obsv"
	"lce/internal/opsplane"
	"lce/internal/synth"
	"lce/internal/tenant"
)

// OpsPlane is the live operations plane: bounded event bus with SSE
// streaming (GET /debug/events), structured slog fan-out, flight
// recorder (GET /debug/flightrecorder), and the rolling multi-window
// SLO health engine behind /healthz and /readyz. A nil *OpsPlane is
// fully disabled.
type OpsPlane = opsplane.Plane

// OpsEvent is one structured operational event on the bus.
type OpsEvent = opsplane.Event

// FlightDump is the serialized flight-recorder window — the artifact
// GET /debug/flightrecorder serves and cmd/lce-replay re-drives.
type FlightDump = opsplane.FlightDump

// SLOObjectives are the health engine's targets.
type SLOObjectives = opsplane.Objectives

// NewBackend builds one backend instance by kind: "learned" (emulator
// synthesized from documentation), "oracle" (hand-written ground-truth
// model), "d2c" (direct-to-code baseline), or "manual" (Moto-style
// partial baseline). The same (service, kind, noisy) triple always
// yields a behaviourally identical instance — the property the
// flight-recorder replay relies on. The learned backend runs in the
// default (compiled) interpreter mode; ServerConfig.Interp selects it
// explicitly.
func NewBackend(service, kind string, noisy bool) (Backend, error) {
	return newBackendInterp(service, kind, noisy, "")
}

// newBackendInterp is NewBackend with an explicit interpreter mode for
// the learned backend: "" or "compiled" lower the synthesized spec to
// pre-resolved closures, "walk" keeps the reference tree-walker. The
// modes answer byte-identically — the choice only affects per-call
// latency — so the replay contract holds across modes. Non-learned
// kinds ignore the mode.
func newBackendInterp(service, kind string, noisy bool, interpMode string) (Backend, error) {
	switch kind {
	case "oracle":
		return Cloud(service)
	case "manual":
		switch service {
		case "ec2":
			return manual.NewEC2(), nil
		case "dynamodb":
			return manual.NewDynamoDB(), nil
		case "network-firewall":
			return manual.NewNetworkFirewall(), nil
		case "eks":
			return manual.NewEKS(), nil
		default:
			return nil, fmt.Errorf("lce: no manual baseline for %q", service)
		}
	case "d2c":
		c, err := Documentation(service)
		if err != nil {
			return nil, err
		}
		return DirectToCode(c)
	case "learned":
		c, err := Documentation(service)
		if err != nil {
			return nil, err
		}
		opts := PerfectOptions()
		if noisy {
			opts = DefaultOptions()
		}
		svc, _, err := synth.Synthesize(c, opts)
		if err != nil {
			return nil, err
		}
		return interp.NewMode(svc, interpMode)
	default:
		return nil, fmt.Errorf("lce: unknown backend kind %q", kind)
	}
}

// ServerConfig describes one complete server stack — backend, chaos
// layer, tenant pool, observability, operations plane. It is the
// single source of truth for server construction: cmd/lce-server
// builds its process from it, and cmd/lce-replay rebuilds an identical
// stack from the same configuration to re-drive a captured window
// byte-for-byte (same chaos seed → same injected faults, same trace
// seed → same trace IDs).
type ServerConfig struct {
	// Service and Backend select what to emulate and how (see
	// NewBackend). Noisy switches the learned backend to the
	// preliminary noise model.
	Service string
	Backend string
	Noisy   bool

	// Interp selects the learned backend's dispatch mode: "" or
	// "compiled" (pre-resolved closures, the default), or "walk" (the
	// reference tree-walker). Byte-identical behaviour either way, so
	// replay works across modes; non-learned backends ignore it.
	Interp string

	// Chaos fronts the backend (and every per-session backend) with
	// the deterministic fault injector at FaultRate, seeded by
	// ChaosSeed.
	Chaos     bool
	ChaosSeed int64
	FaultRate float64

	// TraceSeed seeds span/trace IDs (same seed + same request
	// sequence = same IDs).
	TraceSeed int64

	// Sessions/Shards/SessionTTL configure the tenant pool; Sessions 0
	// disables multi-tenancy.
	Sessions   int
	Shards     int
	SessionTTL time.Duration

	// Node names this server as one member of a cluster (lce-router
	// fleet): GET /v2/sessions reports it so fleet aggregation can
	// attribute occupancy. Empty means standalone.
	Node string

	// DataDir mounts the durable tier: sessions are write-ahead
	// journaled under this directory, cold sessions spill to
	// snapshots on eviction, and a server restarted over the same
	// directory recovers every session (lazily, on first touch).
	// Empty disables durability. Fsync selects the journal policy
	// ("always" | "batch" | "off"; empty = "batch"), and ReadOnlyData
	// opens the directory as a rehydration baseline only — nothing is
	// written, which is what cmd/lce-replay wants when replaying a
	// partial flight dump against recovered state.
	DataDir      string
	Fsync        string
	ReadOnlyData bool

	// StallThreshold arms the durable tier's fsync-stall watchdog: a
	// journal append slower than this emits a "durable.stall" event
	// and bumps lce_durable_stalls_total. 0 means
	// durable.DefaultStallThreshold; negative disables the watchdog.
	// Only meaningful with DataDir.
	StallThreshold time.Duration

	// Ops mounts the operations plane. FlightCapacity sizes the
	// recorder window (0 = opsplane.DefaultFlightCapacity);
	// SLOErrorRate and SLOP99 set the health targets (both 0 = the
	// opsplane defaults: 1% errors, 250ms p99).
	Ops            bool
	FlightCapacity int
	SLOErrorRate   float64
	SLOP99         time.Duration

	// LogHandler is the process-log delegate (text or JSON slog
	// handler); LogSession scopes the process log to one tenant.
	// Both only take effect with Ops.
	LogHandler slog.Handler
	LogSession string

	// Clock drives SLO windows and event timestamps (nil = system).
	Clock obsv.Clock
}

// Server is one assembled stack. Handler is ready for
// http.ListenAndServe (or in-process replay via httptest).
type Server struct {
	Handler http.Handler
	Backend Backend
	Obs     *Obs
	Ops     *OpsPlane
	Pool    *Pool
	// Store is the durable tier (nil without DataDir); Recovered lists
	// the sessions its boot-time scan found on disk.
	Store     *DurableStore
	Recovered []durable.RecoveredSession
}

// NewServer assembles the full stack from cfg: backend, optional chaos
// wrap (base and factory alike), observability, optional operations
// plane, optional tenant pool (with ops eviction events), and the
// HTTP surface. Identical configs produce behaviourally identical
// servers — the replay contract.
func NewServer(cfg ServerConfig) (*Server, error) {
	b, err := newBackendInterp(cfg.Service, cfg.Backend, cfg.Noisy, cfg.Interp)
	if err != nil {
		return nil, err
	}
	factory := FactoryFor(b, cfg)
	if cfg.Chaos {
		fcfg := UniformFaults(cfg.FaultRate, cfg.ChaosSeed)
		b = Chaos(b, fcfg)
		factory = fault.Factory(factory, fcfg)
	}
	ob := NewObs(cfg.TraceSeed)
	// Fleet members salt root IDs with their node name so same-seed
	// processes (the default) never mint colliding trace IDs; the
	// empty standalone identity leaves the ID stream untouched.
	ob.TracerOrNil().SetIdentity(cfg.Node)

	var ops *OpsPlane
	if cfg.Ops {
		obj := opsplane.DefaultObjectives()
		if cfg.SLOErrorRate > 0 {
			obj.ErrorRate = cfg.SLOErrorRate
		}
		if cfg.SLOP99 > 0 {
			obj.P99 = cfg.SLOP99
		}
		ops = opsplane.New(opsplane.Config{
			Service:        cfg.Service,
			Obs:            ob,
			Clock:          cfg.Clock,
			FlightCapacity: cfg.FlightCapacity,
			Objectives:     obj,
			LogHandler:     cfg.LogHandler,
			LogSession:     cfg.LogSession,
		})
	}

	var store *durable.Store
	var recovered []durable.RecoveredSession
	if cfg.DataDir != "" {
		store, err = durable.Open(durable.Config{
			Dir:            cfg.DataDir,
			Fsync:          cfg.Fsync,
			ReadOnly:       cfg.ReadOnlyData,
			Registry:       ob.Registry,
			Events:         ops.OnDurable(),
			Clock:          cfg.Clock,
			StallThreshold: cfg.StallThreshold,
		})
		if err != nil {
			return nil, err
		}
		recovered = store.Recover()
	}

	var pool *Pool
	if cfg.Sessions > 0 {
		tcfg := tenant.Config{
			Shards:   cfg.Shards,
			Capacity: cfg.Sessions,
			IdleTTL:  cfg.SessionTTL,
			Clock:    cfg.Clock,
			Registry: ob.Registry,
			OnEvict:  ops.OnEvict(),
		}
		if store != nil {
			tcfg.Spill = store
		}
		pool, err = tenant.New(factory, tcfg)
		if err != nil {
			return nil, err
		}
	} else if store != nil {
		// Single-tenant server: the one backend is the "default"
		// session — journal it so even a pool-less server survives a
		// restart.
		b, _ = store.Adopt(context.Background(), tenant.DefaultSession, b)
	}
	return &Server{
		Handler:   httpapi.New(b, httpapi.WithPool(pool), httpapi.WithObs(ob), httpapi.WithOps(ops), httpapi.WithNode(cfg.Node)),
		Backend:   b,
		Obs:       ob,
		Ops:       ops,
		Pool:      pool,
		Store:     store,
		Recovered: recovered,
	}, nil
}

// ClusterNode names one fleet member for NewClusterRouter: a stable
// name (the hash-ring identity) plus the base URL its lce-server
// listens on.
type ClusterNode = cluster.Node

// ClusterConfig tunes a cluster router: initial membership, virtual
// nodes per member, health-probe cadence and failure threshold.
type ClusterConfig = cluster.Config

// ClusterRouter is the scale-out front tier (cmd/lce-router): it
// consistent-hashes X-LCE-Session over the fleet, forwards the /v2
// wire surface untouched, aggregates /metrics, /v2/sessions and
// /debug/events fleet-wide, serves GET /v2/cluster, and migrates
// sessions between nodes on membership change via the durable tier's
// snapshot export. Call Start to launch health probing, Handler for
// the HTTP surface, Close to stop.
type ClusterRouter = cluster.Router

// NewClusterRouter builds a router over an initial fleet.
func NewClusterRouter(cfg ClusterConfig) (*ClusterRouter, error) {
	return cluster.NewRouter(cfg)
}

// FactoryFor resolves the per-session backend factory for b: forkable
// backends (oracles, the learned emulator) fork cheaply; the rest
// rebuild from the same configuration on first use of a session.
func FactoryFor(b Backend, cfg ServerConfig) BackendFactory {
	if f := cloudapi.FactoryOf(b); f != nil {
		return f
	}
	return func() Backend {
		nb, err := newBackendInterp(cfg.Service, cfg.Backend, cfg.Noisy, cfg.Interp)
		if err != nil {
			// The identical build in NewServer succeeded, so this is
			// unreachable short of resource exhaustion.
			panic(fmt.Sprintf("lce: session backend rebuild failed: %v", err))
		}
		return nb
	}
}
