// Package lce — learned cloud emulators — is the public facade of this
// repository: a from-scratch implementation of "A Case for Learned
// Cloud Emulators" (HotNets 2025).
//
// The package wires together the full workflow the paper describes:
//
//	opts := lce.DefaultOptions()
//	corpus, err := lce.Documentation("ec2")               // provider documentation (rendered text)
//	emu, report, err := lce.Learn(corpus, opts)           // docs → SM spec → emulator
//	res, err := lce.Align("ec2", opts, lce.AlignConfig{}) // close the loop against the cloud
//	srv, err := lce.NewServer(lce.ServerConfig{Service: "ec2", Backend: "learned"})
//	http.ListenAndServe(addr, srv.Handler)                // serve it over HTTP
//
// Everything underneath lives in internal/ packages: the SM spec
// language and interpreter, the hand-written cloud oracles, the
// documentation model and wrangler, the synthesis pipeline with its
// hallucination model, the symbolic-execution trace generator, the
// alignment engine, and the evaluation harness that regenerates every
// table and figure of the paper. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package lce

import (
	"fmt"

	"lce/internal/align"
	"lce/internal/cloud/aws/dynamodb"
	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloud/aws/eks"
	"lce/internal/cloud/aws/netfw"
	"lce/internal/cloud/azure"
	"lce/internal/cloudapi"
	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/durable"
	"lce/internal/fault"
	"lce/internal/httpapi"
	"lce/internal/interp"
	"lce/internal/obsv"
	"lce/internal/retry"
	"lce/internal/scenarios"
	"lce/internal/synth"
	"lce/internal/synth/d2c"
	"lce/internal/tenant"
	"lce/internal/trace"
)

// Backend is any cloud-shaped API surface: a ground-truth oracle, a
// learned emulator, or a baseline.
type Backend = cloudapi.Backend

// Request and Result are the API call shapes.
type (
	Request = cloudapi.Request
	Result  = cloudapi.Result
	Params  = cloudapi.Params
	Value   = cloudapi.Value
)

// Re-exported value constructors.
var (
	Str  = cloudapi.Str
	Int  = cloudapi.Int
	Bool = cloudapi.Bool
)

// Emulator is a learned emulator: an interpreted SM specification.
type Emulator = interp.Emulator

// Options configures synthesis.
type Options = synth.Options

// DefaultOptions is the paper-prototype configuration: the preliminary
// hallucination model with free decoding and re-prompting.
func DefaultOptions() Options { return synth.DefaultOptions() }

// PerfectOptions is the zero-noise configuration: a faithful
// extraction used to validate the abstraction end to end.
func PerfectOptions() Options {
	return Options{Noise: synth.Perfect, Decoding: synth.Constrained}
}

// Cloud returns the ground-truth oracle for a service: "ec2",
// "dynamodb", "network-firewall", "eks", or "azure-network".
func Cloud(service string) (Backend, error) {
	switch service {
	case "ec2":
		return ec2.New(), nil
	case "dynamodb":
		return dynamodb.New(), nil
	case "network-firewall":
		return netfw.New(), nil
	case "eks":
		return eks.New(), nil
	case "azure-network":
		return azure.New(), nil
	default:
		return nil, fmt.Errorf("lce: unknown service %q", service)
	}
}

// CloudFactory returns a factory of independent ground-truth oracle
// instances for a service. The parallel alignment engine hands one
// instance to each comparison worker so no mutable backend state is
// shared across goroutines.
func CloudFactory(service string) (cloudapi.BackendFactory, error) {
	switch service {
	case "ec2":
		return ec2.Factory(), nil
	case "dynamodb":
		return dynamodb.Factory(), nil
	case "network-firewall":
		return netfw.Factory(), nil
	case "eks":
		return eks.Factory(), nil
	case "azure-network":
		return azure.Factory(), nil
	default:
		return nil, fmt.Errorf("lce: unknown service %q", service)
	}
}

// Documentation returns the rendered documentation corpus for a
// service with learnable docs: "ec2", "dynamodb", "network-firewall",
// or "azure-network".
func Documentation(service string) (docs.Corpus, error) {
	d, err := serviceDoc(service)
	if err != nil {
		return docs.Corpus{}, err
	}
	return docs.Render(d), nil
}

// serviceDoc returns the structured documentation model a service's
// corpus renders from; alignment synthesizes and repairs against it.
func serviceDoc(service string) (*docs.ServiceDoc, error) {
	switch service {
	case "ec2":
		return corpus.EC2(), nil
	case "dynamodb":
		return corpus.DynamoDB(), nil
	case "network-firewall":
		return corpus.NetworkFirewall(), nil
	case "azure-network":
		return corpus.Azure(), nil
	default:
		return nil, fmt.Errorf("lce: no documentation corpus for %q", service)
	}
}

// LearnReport summarizes a synthesis run.
type LearnReport = synth.Report

// Learn synthesizes a learned emulator from rendered documentation:
// wrangling, dependency-ordered incremental extraction, specification
// linking, consistency checking, compilation to pre-resolved closures.
// The emulator comes back in the default compiled dispatch mode;
// ServerConfig.Interp "walk" serves the tree-walker instead.
func Learn(c docs.Corpus, opts Options) (*Emulator, *LearnReport, error) {
	svc, rep, err := synth.Synthesize(c, opts)
	if err != nil {
		return nil, rep, err
	}
	emu, err := interp.NewCompiled(svc)
	return emu, rep, err
}

// DirectToCode builds the paper's direct-to-code baseline from the
// same documentation: a flat handler table without the SM abstraction.
func DirectToCode(c docs.Corpus) (Backend, error) {
	return d2c.New(c)
}

// FaultConfig tunes the chaos layer: seed-driven injection of
// throttling, transient server faults, dropped calls and extra
// latency in front of any backend.
type FaultConfig = fault.Config

// RetryPolicy tunes the resilient client: capped exponential backoff
// with full jitter, attempt and sleep budgets, and the
// transient-vs-semantic error classifier.
type RetryPolicy = retry.Policy

// UniformFaults returns a FaultConfig injecting faults at the given
// total per-call rate (half throttling, a quarter transient server
// faults, a quarter drops), driven by seed.
func UniformFaults(rate float64, seed int64) FaultConfig { return fault.Uniform(rate, seed) }

// DefaultRetryPolicy mirrors the AWS SDK standard retryer shape.
func DefaultRetryPolicy() RetryPolicy { return retry.DefaultPolicy() }

// Chaos wraps any backend with deterministic fault injection — the
// flaky-cloud simulator. ServerConfig.Chaos runs a whole server that
// throttles and fails like the real thing.
func Chaos(b Backend, cfg FaultConfig) Backend { return fault.Wrap(b, cfg) }

// Resilient wraps any backend with the retry policy, turning
// transient faults into retries instead of caller-visible errors.
func Resilient(b Backend, p RetryPolicy) Backend { return retry.Wrap(b, p, nil) }

// Obs bundles the observability stack — a seeded hierarchical tracer
// plus a typed metrics registry (Prometheus text on /metrics). A nil
// *Obs disables everything at the cost of one nil check per layer.
type Obs = obsv.Obs

// NewObs returns an enabled observability stack. The same seed yields
// the same trace IDs for the same workload, so chaos runs stay
// greppable across reruns.
func NewObs(seed int64) *Obs { return obsv.New(seed, 0) }

// DivergenceRef points from one alignment divergence to the trace
// that recorded it (trace ID, suite index, round, cause).
type DivergenceRef = align.DivergenceRef

// DivergenceTraces lists every divergence an observed alignment run
// recorded, ordered by (round, index) — the join between "which traces
// diverged" and "where is the evidence" that align.Result deliberately
// omits (results must be byte-identical with tracing on or off).
func DivergenceTraces(ob *Obs) []DivergenceRef {
	if ob == nil {
		return nil
	}
	return align.DivergenceTraces(ob.Tracer.Snapshot())
}

// AlignResult is the outcome of the alignment loop.
type AlignResult = align.Result

// AlignConfig tunes Align. The zero value aligns against the
// fault-free cloud with GOMAXPROCS comparison workers, no retries and
// no observability.
type AlignConfig struct {
	// Workers sizes the comparison worker pool: 0 uses GOMAXPROCS, 1
	// forces the serial engine. On a fault-free cloud every setting
	// produces an identical AlignResult; workers only change wall-clock
	// time. On a flaky cloud each worker owns its own fault stream and
	// traces reach the workers in scheduling order. With Retry set the
	// rounds, repairs and convergence are still identical, but the
	// Stats retry and transient-fault tallies vary. With Retry nil the
	// rounds themselves vary. Only Workers 1 reproduces a flaky run
	// exactly.
	Workers int
	// Faults, when non-nil, wraps every oracle instance in the chaos
	// layer.
	Faults *FaultConfig
	// Retry, when non-nil, puts the resilient client between each
	// comparison worker and its oracle. With a policy whose
	// MaxAttempts exceeds the injector's consecutive-fault cap, the
	// rounds, repairs and convergence are identical to the fault-free
	// run — retries absorb every injected fault; without one, injected
	// faults surface as
	// exhausted-transient divergences (never semantic ones, and never
	// spec repairs).
	Retry *RetryPolicy
	// Obs, when non-nil, records the run: every comparison gets a root
	// span with nested replay and per-call spans, injected faults and
	// retries become span events (DivergenceTraces finds every
	// divergence by trace ID), per-op latency histograms land in the
	// registry, and run counters are published as lce_align_* metrics.
	// The AlignResult is byte-identical to the unobserved run.
	Obs *Obs
}

// Align runs the automated alignment loop (§4.3) for a service:
// synthesize under opts, then iteratively repair against the oracle
// using the standard trace suites plus symbolically derived
// single-violation traces. It returns the aligned emulator.
func Align(service string, opts Options, cfg AlignConfig) (*AlignResult, error) {
	brief, err := serviceDoc(service)
	if err != nil {
		return nil, err
	}
	factory, err := CloudFactory(service)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		factory = fault.Factory(factory, *cfg.Faults)
	}
	svc, _, err := synth.SynthesizeFromBrief(brief, opts)
	if err != nil {
		return nil, err
	}
	return align.Run(svc, brief, factory, Scenarios(service), align.Options{GenerateViolations: true, Workers: cfg.Workers, Retry: cfg.Retry, Obs: cfg.Obs})
}

// Scenarios returns the standard trace suite for a service (the Fig. 3
// workload plus the extended parity sweeps).
func Scenarios(service string) []trace.Trace {
	switch service {
	case "ec2":
		return append(scenarios.EC2Fig3(), scenarios.EC2Extended()...)
	case "dynamodb":
		return scenarios.DynamoDB()
	case "network-firewall":
		return scenarios.NetworkFirewall()
	case "azure-network":
		return scenarios.AzureFig3()
	default:
		return nil
	}
}

// Compare runs one trace differentially and reports whether the
// subject aligned with the oracle.
func Compare(subject, oracle Backend, tr trace.Trace) trace.Report {
	return trace.Compare(subject, oracle, tr)
}

// Connect returns a Backend speaking to a served emulator over HTTP.
func Connect(baseURL string) Backend {
	return httpapi.NewClient(baseURL)
}

// ConnectResilient is Connect with the default retry policy wrapped
// around the wire client: transient faults from a chaos-enabled (or
// genuinely degraded) server are retried instead of surfacing.
func ConnectResilient(baseURL string) Backend {
	return httpapi.NewResilientClient(baseURL, retry.DefaultPolicy())
}

// BackendFactory stamps out independent backend instances — one per
// tenant session, one per alignment worker.
type BackendFactory = cloudapi.BackendFactory

// Pool is the sharded multi-tenant session registry: it maps session
// IDs to isolated per-session backends stamped from a factory, with
// LRU capacity and idle-TTL eviction. The "default" session is pinned
// and backs legacy headerless clients.
type Pool = tenant.Pool

// DurableStore is the persistence tier: a deterministic binary
// snapshot codec plus a CRC-framed write-ahead journal per session.
// Mounted into a Pool it spills cold sessions to disk on eviction and
// rehydrates them transparently on next touch; pointed at a previous
// process's data directory it recovers every session, lazily, through
// the same path. ServerConfig.DataDir wires it through the whole stack.
type DurableStore = durable.Store

// DurableConfig tunes a DurableStore: data directory, fsync policy
// ("always" | "batch" | "off"), segment size, compaction interval.
type DurableConfig = durable.Config

// OpenDurable opens (or creates) a durable store over a data
// directory, scanning it for sessions persisted by earlier processes.
func OpenDurable(cfg DurableConfig) (*DurableStore, error) {
	return durable.Open(cfg)
}

// Client is the wire client; WithSession scopes it to a tenant
// session and Batch sends many requests in one round trip.
type Client = httpapi.Client

// SessionClient returns a client for one tenant session on a pool
// server. An empty session means the shared default session.
func SessionClient(baseURL, session string) *Client {
	return httpapi.NewClient(baseURL).WithSession(session)
}
