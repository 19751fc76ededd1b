// Package service exposes the paper's alias analyses as a long-running
// batched query daemon — the network face of the repository, served by
// cmd/aliasd and exercised by cmd/aliasload.
//
// # Model
//
// Clients first register a module: they POST textual IR (or MiniC source,
// lowered through the existing frontend) to /v1/modules. The service parses
// and verifies the program once, runs the full per-function analysis stack —
// range analysis feeding scevaa, basicaa, rbaa and the andersen points-to
// oracle, chained behind an alias.Manager — compiles the chain into a frozen
// alias.Index, drops the chain, and keeps the index behind an
// alias.Planner in a bounded Registry. Construction cost is paid once per
// module; queries are lock-free reads of the index's columns. Uploads,
// async builds and store recovery all run this one build, and no build
// shares anything with another module's, so a module owns everything its
// build created.
//
// Queries are batched: one POST to /v1/query carries up to Config.MaxBatch
// pairs, each naming two values of one function ("func", "a", "b"). A batch
// flows through a pipeline of stages modeled on staged stream processors
// such as bgpipe:
//
//	decode → validate/resolve → shard-by-function → plan → query workers → aggregate
//
// Decoding and validation happen on the request goroutine; resolved pairs
// are sharded by function (queries of one function touch the same analysis
// rows, so a shard is a locality unit), each shard is swept into an
// alias.Plan over the module's compiled index (see alias.Planner for the
// sweep-line partition and its answer contract), shards are cut into
// chunks by the same internal/pool machinery that drives the experiment
// sweeps, chunks fan out across a bounded worker pool, and the aggregate
// stage reassembles results in request order — responses are therefore
// byte-identical to a sequential evaluation of the same batch.
//
// /v1/stats reports every registered module's chain, approximate memory
// and planner counters (pairs answered by the sweep, by the index, and the
// fallback share the index could not answer); /healthz is a cheap liveness
// probe.
//
// # Module lifecycle
//
// Modules are refcounted: every batch pins its handle for the duration of
// the request, so DELETE /v1/modules/{name} (or an eviction) retires a
// module without yanking it from under in-flight queries — teardown waits
// for the last pin, and then frees everything the module's build created. With eviction enabled, registering into a full registry
// displaces the least-recently-queried module (preferring ones with no
// pins) instead of failing; only builds that actually succeeded compete
// for module slots, so malformed uploads can never displace anything.
//
// Builds can run asynchronously: POST /v1/modules?async=1 reserves the name
// and returns 202 immediately; the parse/verify/analyze chain runs on a
// bounded build-worker queue, and GET /v1/modules/{name} reports the status
// (building → ready | failed), so a large upload never stalls the HTTP
// handler.
//
// # Endpoints
//
//	GET    /healthz              liveness + module count
//	GET    /readyz               readiness (fails while builds are in flight)
//	GET    /metrics              Prometheus text exposition
//	GET    /v1/modules           list registered modules
//	POST   /v1/modules?name=N[&format=ir|minic][&async=1]   register a module (body = source)
//	GET    /v1/modules/{name}    one module's summary + build status
//	DELETE /v1/modules/{name}    drop a module (in-flight batches finish first)
//	POST   /v1/query             batched alias queries
//	GET    /v1/stats             per-module planner counters and memory, budget, store
package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/pool"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Version identifies the daemon build on /metrics (aliasd_build_info) and
// /v1/stats. Bumped per release PR.
const Version = "0.10.0"

// Defaults for Config fields left zero.
const (
	DefaultMaxBatch       = 4096
	DefaultMaxSourceBytes = 8 << 20
	DefaultMaxModules     = 64
	DefaultBuildWorkers   = 2
	DefaultBuildBacklog   = 16
	DefaultMaxBatchBytes  = 16 << 20
	DefaultMaxInFlight    = 256
	DefaultGovernEvery    = 250 * time.Millisecond
)

// Config bounds the service. The zero value means "use defaults".
type Config struct {
	// MaxBatch caps the pairs accepted in one /v1/query request.
	MaxBatch int
	// MaxSourceBytes caps the module source accepted by /v1/modules.
	MaxSourceBytes int
	// MaxModules caps the registry size.
	MaxModules int
	// Parallel sizes the query-stage worker pool: 0 or 1 sequential,
	// negative GOMAXPROCS.
	Parallel int
	// EvictModules makes a full registry evict its least-recently-queried
	// module (preferring unpinned ones) instead of refusing the upload.
	EvictModules bool
	// BuildWorkers sizes the async-build queue (0 = DefaultBuildWorkers).
	BuildWorkers int
	// BuildBacklog bounds async builds queued behind the workers (0 =
	// DefaultBuildBacklog). A full backlog rejects uploads with 503.
	BuildBacklog int
	// MaxBatchBytes caps the /v1/query request body in bytes (0 =
	// DefaultMaxBatchBytes). Oversized bodies get a structured 413.
	MaxBatchBytes int64
	// MemBudget caps approximate process memory in bytes; 0 disables the
	// budget entirely. Crossing the soft watermark evicts unpinned LRU
	// modules; crossing the hard watermark additionally rejects uploads
	// (429) and tightens query admission (503). Both rejections carry
	// Retry-After.
	MemBudget int64
	// BudgetOptions tunes the watermark fractions and (for tests) the heap
	// probe. Zero value = budget package defaults.
	BudgetOptions budget.Options
	// GovernEvery is the budget governor's tick (0 = DefaultGovernEvery).
	// Negative disables the background loop; tests then drive GovernOnce
	// directly. Irrelevant while MemBudget is 0.
	GovernEvery time.Duration
	// MaxInFlight bounds concurrently admitted /v1/query batches (0 =
	// DefaultMaxInFlight, negative = unbounded). Excess requests are shed
	// with 503 + Retry-After rather than queued: the client's retry policy,
	// not a hidden server queue, absorbs the burst.
	MaxInFlight int
	// QueryTimeout is the per-request evaluation deadline for /v1/query
	// (0 = none). A batch past its deadline is cancelled mid-flight and
	// answered with 503 + Retry-After.
	QueryTimeout time.Duration
	// Store is the crash-safe on-disk module store (nil = memory-only, the
	// pre-PR-10 behavior). With a store configured, successful uploads are
	// persisted before they are acknowledged, deletes are tombstoned, and
	// Recover replays the manifest into the registry at boot.
	Store *store.Store
	// Chaos injects synthetic faults at the service's seams (nil = off —
	// production). See Injector.
	Chaos Injector
	// Logger receives the service's structured logs (request access lines at
	// debug level, build outcomes at info). nil discards everything — tests
	// and embedders that do not care stay quiet.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxSourceBytes == 0 {
		c.MaxSourceBytes = DefaultMaxSourceBytes
	}
	if c.MaxModules == 0 {
		c.MaxModules = DefaultMaxModules
	}
	if c.BuildWorkers == 0 {
		c.BuildWorkers = DefaultBuildWorkers
	}
	if c.BuildBacklog == 0 {
		c.BuildBacklog = DefaultBuildBacklog
	}
	if c.MaxBatchBytes == 0 {
		c.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.GovernEvery == 0 {
		c.GovernEvery = DefaultGovernEvery
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Service is the daemon state: a module registry, the shared query pool,
// the async build queue, the memory-budget governor, and the telemetry
// surface they all report into.
type Service struct {
	cfg     Config
	reg     *Registry
	pool    *pool.Pool
	builds  *pool.Queue
	start   time.Time
	log     *slog.Logger
	metrics *metrics

	// store is the crash-safe module store (nil when running memory-only).
	// recovering is set for the duration of Recover's manifest replay —
	// /readyz reports it and admission sheds with a retryable reason.
	store        *store.Store
	recovering   atomic.Bool
	recoveryDur  atomic.Int64 // nanoseconds spent in the last Recover
	storeFailing atomic.Int64 // persist operations that returned an error

	// budget is the watermark tracker (nil-safe: disabled when MemBudget
	// is 0); the governor fields drive its periodic reconcile loop.
	budget    *budget.Tracker
	govStop   chan struct{}
	govWG     sync.WaitGroup
	closeOnce sync.Once
	// lastGC is the unix-nano time of the governor's last forced GC.
	lastGC atomic.Int64

	// inflight counts admitted /v1/query batches; draining flips every
	// admission path to shedding. sheds, drains and budgetEvictions are the
	// single source both /metrics and /v1/stats render, which is what keeps
	// the reconciliation exact.
	inflight        atomic.Int64
	draining        atomic.Bool
	sheds           shedCounters
	drains          atomic.Int64
	budgetEvictions atomic.Int64
}

// shedCounters tallies load-shedding rejections by reason — the label set
// of aliasd_shed_requests_total and the sheds section of /v1/stats.
//
// aliaslint: never copy a shedCounters — it embeds atomics.
type shedCounters struct {
	draining         atomic.Int64 // queries rejected while draining
	inflight         atomic.Int64 // queries past the MaxInFlight bound
	budget           atomic.Int64 // queries rejected at the hard watermark
	timeout          atomic.Int64 // queries cancelled at QueryTimeout
	canceled         atomic.Int64 // queries whose client went away mid-batch
	recovering       atomic.Int64 // queries rejected during store recovery
	uploadBudget     atomic.Int64 // uploads rejected at the hard watermark
	uploadDraining   atomic.Int64 // uploads rejected while draining
	uploadRecovering atomic.Int64 // uploads rejected during store recovery
}

// New builds a service from the config (zero fields filled with defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:    cfg,
		reg:    NewRegistry(cfg.MaxModules, cfg.EvictModules),
		pool:   &pool.Pool{Parallel: cfg.Parallel},
		builds: pool.NewQueue(cfg.BuildWorkers, cfg.BuildBacklog),
		start:  time.Now(),
		log:    cfg.Logger,
		budget: budget.New(cfg.MemBudget, cfg.BudgetOptions),
		store:  cfg.Store,
	}
	if s.store != nil && cfg.Chaos != nil {
		// The chaos seam for crash-after-write: every completed persist step
		// reports through the injector, which may hard-exit the process.
		s.store.WriteHook = func(step string) { s.injectStoreWrite(step) }
	}
	s.metrics = newMetrics(s)
	// Set before the first Submit: the channel send inside Submit is the
	// happens-before edge the queue workers read the observer through.
	s.builds.Observer = func(wait, _ time.Duration) {
		s.metrics.queueWait.Observe(wait.Seconds())
	}
	if s.budget.Enabled() && cfg.GovernEvery > 0 {
		s.govStop = make(chan struct{})
		s.govWG.Add(1)
		go func() {
			defer s.govWG.Done()
			t := time.NewTicker(cfg.GovernEvery)
			defer t.Stop()
			for {
				select {
				case <-s.govStop:
					return
				case <-t.C:
					s.GovernOnce()
				}
			}
		}()
	}
	return s
}

// Close stops the budget governor and drains the async build queue.
// Queries already in flight are unaffected; the registry needs no teardown
// of its own. Idempotent.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		if s.govStop != nil {
			close(s.govStop)
		}
	})
	s.govWG.Wait()
	s.builds.Close()
}

// BeginDrain flips the service into drain mode: /readyz reports 503
// "draining" so load balancers stop routing here, and every new query or
// upload is shed with a structured 503 + Retry-After, while batches
// already admitted run to completion. Idempotent; there is no way back —
// draining is the prelude to shutdown.
func (s *Service) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.drains.Add(1)
		s.log.Info("drain started", "in_flight", s.inflight.Load())
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Drain blocks until every in-flight query batch has completed or ctx
// expires, returning the context's error in the latter case. Callers
// BeginDrain first (so no new batches are admitted), Drain with a
// deadline, then shut the HTTP server down.
func (s *Service) Drain(ctx context.Context) error {
	if n := s.inflight.Load(); n == 0 {
		return nil
	}
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %d batches still in flight: %w", s.inflight.Load(), ctx.Err())
		case <-t.C:
			if s.inflight.Load() == 0 {
				return nil
			}
		}
	}
}

// InFlight reports the number of currently admitted /v1/query batches.
func (s *Service) InFlight() int64 { return s.inflight.Load() }

// Registry returns the service's module registry (used by tests and by
// embedders that preload modules).
func (s *Service) Registry() *Registry { return s.reg }

// MetricsRegistry returns the telemetry registry behind GET /metrics, for
// embedders that add their own instruments or render the exposition
// out-of-band.
func (s *Service) MetricsRegistry() *telemetry.Registry { return s.metrics.reg }

// Handler returns the HTTP API of the service, wrapped in the request
// envelope (X-Request-ID, trace context, request metrics, access log).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	mux.HandleFunc("GET /v1/modules", s.handleListModules)
	mux.HandleFunc("POST /v1/modules", s.handleCreateModule)
	mux.HandleFunc("GET /v1/modules/{name}", s.handleGetModule)
	mux.HandleFunc("DELETE /v1/modules/{name}", s.handleDeleteModule)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s.instrument(mux)
}
