package service

import (
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/alias"
	"repro/internal/budget"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// metrics is the service's telemetry surface: request/pipeline instruments
// updated on the hot path, plus scrape-time collectors that read the very
// same PlannerStats / store / budget snapshots GET /v1/stats renders.
// Sourcing both endpoints from one snapshot function per module is what
// makes the reconciliation CI check ("/metrics sums == /v1/stats") hold
// exactly rather than approximately.
//
// aliaslint: never copy a metrics value — instruments embed atomics.
type metrics struct {
	reg *telemetry.Registry

	httpRequests *telemetry.CounterVec // route, code

	queryDur    *telemetry.Histogram
	stageDur    *telemetry.HistogramVec // stage
	queryPairs  *telemetry.Counter
	batchPairs  *telemetry.Histogram
	queryErrors *telemetry.CounterVec // reason

	// Per-stage children resolved once: the pipeline observes through these
	// pointers instead of paying the vec lookup per request.
	stageDecode, stageValidate, stageShard, stagePlan,
	stageEvaluate, stageAggregate, stageEncode *telemetry.Histogram

	builds    *telemetry.CounterVec   // mode, result
	buildDur  *telemetry.HistogramVec // mode
	queueWait *telemetry.Histogram
}

// Histogram bounds, in seconds. Query latencies sit in the tens of
// microseconds to low milliseconds on warm caches; builds run milliseconds
// to seconds; queue waits are near zero until the backlog saturates.
var (
	queryBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}
	stageBuckets = []float64{0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.25}
	buildBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 10}
	waitBuckets  = []float64{0.0001, 0.001, 0.01, 0.1, 1, 10}
	pairsBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096}
)

// Pipeline stage names — shared by the stage histogram, the per-request
// trace spans, and the ?trace=1 echo.
const (
	stgDecode    = "decode"
	stgValidate  = "validate"
	stgShard     = "shard"
	stgPlan      = "plan"
	stgEvaluate  = "evaluate"
	stgAggregate = "aggregate"
	stgEncode    = "encode"
)

func newMetrics(s *Service) *metrics {
	reg := telemetry.NewRegistry()
	m := &metrics{reg: reg}

	m.httpRequests = reg.CounterVec("aliasd_http_requests_total",
		"HTTP requests by normalized route and status code.", "route", "code")

	m.queryDur = reg.Histogram("aliasd_query_duration_seconds",
		"End-to-end POST /v1/query latency (decode through encode).", queryBuckets)
	m.stageDur = reg.HistogramVec("aliasd_query_stage_duration_seconds",
		"Per-stage query pipeline latency.", stageBuckets, "stage")
	m.stageDecode = m.stageDur.With(stgDecode)
	m.stageValidate = m.stageDur.With(stgValidate)
	m.stageShard = m.stageDur.With(stgShard)
	m.stagePlan = m.stageDur.With(stgPlan)
	m.stageEvaluate = m.stageDur.With(stgEvaluate)
	m.stageAggregate = m.stageDur.With(stgAggregate)
	m.stageEncode = m.stageDur.With(stgEncode)
	m.queryPairs = reg.Counter("aliasd_query_pairs_total",
		"Pairs answered by successful /v1/query batches.")
	m.batchPairs = reg.Histogram("aliasd_query_batch_pairs",
		"Batch size distribution of successful /v1/query requests.", pairsBuckets)
	m.queryErrors = reg.CounterVec("aliasd_query_errors_total",
		"Rejected /v1/query requests by reason.", "reason")

	m.builds = reg.CounterVec("aliasd_builds_total",
		"Module builds by mode (sync|async) and result (ok|error).", "mode", "result")
	m.buildDur = reg.HistogramVec("aliasd_build_duration_seconds",
		"Module build duration (parse, verify, analyze, index).", buildBuckets, "mode")
	m.queueWait = reg.Histogram("aliasd_build_queue_wait_seconds",
		"Time async builds spent queued before a worker picked them up.", waitBuckets)
	reg.GaugeFunc("aliasd_build_queue_depth",
		"Async build tasks submitted but not yet finished.",
		func() float64 { return float64(s.builds.Len()) })

	reg.GaugeFunc("aliasd_uptime_seconds", "Seconds since the service started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.Collect("aliasd_build_info",
		"Build identity: constant 1 labeled with the daemon version and the Go runtime that built it.",
		"gauge", []string{"version", "goversion"}, func(emit func(float64, ...string)) {
			emit(1, Version, runtime.Version())
		})

	// ---- Crash-safe store. Families exist (at zero) even memory-only, so
	// dashboards need no conditional scrape config; every number reads the
	// same snapshot /v1/stats renders. ----

	storeStat := func(get func(st store.Stats) float64) func() float64 {
		return func() float64 {
			if s.store == nil {
				return 0
			}
			return get(s.store.Snapshot())
		}
	}
	reg.GaugeFunc("aliasd_store_records",
		"Live (non-tombstoned) records in the on-disk module store.",
		storeStat(func(st store.Stats) float64 { return float64(st.Records) }))
	reg.GaugeFunc("aliasd_store_bytes",
		"Summed on-disk size of live store records.",
		storeStat(func(st store.Stats) float64 { return float64(st.Bytes) }))
	reg.CounterFunc("aliasd_store_puts_total",
		"Successful store record writes (uploads persisted).",
		storeStat(func(st store.Stats) float64 { return float64(st.Puts) }))
	reg.CounterFunc("aliasd_store_deletes_total",
		"Successful store tombstone writes (deletes persisted).",
		storeStat(func(st store.Stats) float64 { return float64(st.Deletes) }))
	reg.CounterFunc("aliasd_store_corrupt_quarantined_total",
		"Torn or bit-flipped records (and manifests) moved to corrupt/ and skipped.",
		storeStat(func(st store.Stats) float64 { return float64(st.Quarantined) }))
	reg.CounterFunc("aliasd_store_errors_total",
		"Persist operations (Put/Delete) that returned an error.",
		func() float64 { return float64(s.storeFailing.Load()) })
	reg.GaugeFunc("aliasd_store_recovery_duration_seconds",
		"Wall time of the last boot-time manifest replay (0 until Recover has run).",
		func() float64 { return time.Duration(s.recoveryDur.Load()).Seconds() })
	reg.GaugeFunc("aliasd_store_recovering",
		"1 while the boot-time manifest replay is in progress, else 0.",
		func() float64 {
			if s.recovering.Load() {
				return 1
			}
			return 0
		})

	// ---- Memory budget, backpressure and lifecycle. Every family reads
	// the same atomics /v1/stats renders (budgetStats), so the two
	// endpoints reconcile exactly on an idle daemon. ----

	reg.Collect("aliasd_budget_bytes",
		"Memory-budget figures in bytes: the configured limit, the soft/hard watermarks, the service-side accounting sum, the last heap probe, and the enforced max of the two. All zero with the budget disabled.",
		"gauge", []string{"kind"}, func(emit func(float64, ...string)) {
			snap := s.budget.Snapshot()
			emit(float64(snap.Limit), "limit")
			emit(float64(snap.Soft), "soft")
			emit(float64(snap.Hard), "hard")
			emit(float64(snap.Accounted), "accounted")
			emit(float64(snap.Heap), "heap")
			emit(float64(snap.Used), "used")
		})
	reg.GaugeFunc("aliasd_budget_state",
		"Current watermark state: 0 ok, 1 soft (degrading), 2 hard (rejecting).",
		func() float64 { return float64(s.budget.State()) })
	reg.Collect("aliasd_budget_transitions_total",
		"Watermark-state entries by destination state (ok entries are recoveries).",
		"counter", []string{"state"}, func(emit func(float64, ...string)) {
			snap := s.budget.Snapshot()
			emit(float64(snap.Transitions[budget.StateOK]), "ok")
			emit(float64(snap.Transitions[budget.StateSoft]), "soft")
			emit(float64(snap.Transitions[budget.StateHard]), "hard")
		})
	reg.Collect("aliasd_shed_requests_total",
		"Requests rejected by backpressure, by reason: query admission (draining|recovering|inflight|budget), mid-flight cancellation (timeout|canceled), and upload rejection (upload_budget|upload_draining|upload_recovering).",
		"counter", []string{"reason"}, func(emit func(float64, ...string)) {
			emit(float64(s.sheds.draining.Load()), "draining")
			emit(float64(s.sheds.inflight.Load()), "inflight")
			emit(float64(s.sheds.budget.Load()), "budget")
			emit(float64(s.sheds.timeout.Load()), "timeout")
			emit(float64(s.sheds.canceled.Load()), "canceled")
			emit(float64(s.sheds.recovering.Load()), "recovering")
			emit(float64(s.sheds.uploadBudget.Load()), "upload_budget")
			emit(float64(s.sheds.uploadDraining.Load()), "upload_draining")
			emit(float64(s.sheds.uploadRecovering.Load()), "upload_recovering")
		})
	reg.CounterFunc("aliasd_budget_evictions_total",
		"Modules force-evicted by the budget governor (distinct from registry-bound evictions).",
		func() float64 { return float64(s.budgetEvictions.Load()) })
	reg.GaugeFunc("aliasd_inflight_queries",
		"Currently admitted /v1/query batches (bounded by MaxInFlight).",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("aliasd_draining",
		"1 once BeginDrain has flipped the service into drain mode, else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("aliasd_drains_total",
		"Drain initiations (at most one per process lifetime in practice).",
		func() float64 { return float64(s.drains.Load()) })
	reg.GaugeFunc("aliasd_process_rss_bytes",
		"Resident set size from /proc/self/statm (0 where unavailable) — the figure the soak scenario asserts stays flat.",
		func() float64 { return float64(budget.ProcessRSS()) })

	// ---- Scrape-time collectors: the /v1/stats numbers, re-rendered. ----

	reg.Collect("aliasd_module_mem_bytes", "Approximate resident bytes per ready module (IR, value maps, index, interned exprs).",
		"gauge", []string{"module"}, func(emit func(float64, ...string)) {
			s.eachReadyModule(func(h *Handle) {
				emit(float64(h.MemBytes()), h.Name)
			})
		})

	perPlanner := func(name, help string, get func(ps alias.PlannerStats) float64) {
		reg.Collect(name, help, "counter", []string{"module"}, func(emit func(float64, ...string)) {
			s.eachReadyModule(func(h *Handle) {
				emit(get(h.Planner.Stats()), h.Name)
			})
		})
	}
	perPlanner("aliasd_planner_batches_total", "Shards swept by the batch planner.",
		func(ps alias.PlannerStats) float64 { return float64(ps.Batches) })
	perPlanner("aliasd_planner_planned_values_total", "Distinct values fed to the sweep-line partitioner.",
		func(ps alias.PlannerStats) float64 { return float64(ps.PlannedValues) })
	perPlanner("aliasd_planner_groups_total", "Overlap groups produced by the sweep partition.",
		func(ps alias.PlannerStats) float64 { return float64(ps.Groups) })
	reg.Collect("aliasd_planner_pairs_total",
		"Planner-answered pairs by path (sweep short-circuit | compiled index | fallback outside the index).",
		"counter", []string{"module", "path"}, func(emit func(float64, ...string)) {
			s.eachReadyModule(func(h *Handle) {
				ps := h.Planner.Stats()
				emit(float64(ps.SweepNoAlias), h.Name, "sweep")
				emit(float64(ps.IndexPairs), h.Name, "index")
				emit(float64(ps.FallbackPairs), h.Name, "fallback")
			})
		})
	reg.Collect("aliasd_planner_noalias_total",
		"Planner no-alias verdicts by path (sweep pairs are no-alias by construction; fallback pairs never are).",
		"counter", []string{"module", "path"}, func(emit func(float64, ...string)) {
			s.eachReadyModule(func(h *Handle) {
				ps := h.Planner.Stats()
				emit(float64(ps.SweepNoAlias), h.Name, "sweep")
				emit(float64(ps.IndexNoAlias), h.Name, "index")
			})
		})

	// ---- Registry lifecycle. ----

	reg.Collect("aliasd_modules", "Registered modules by build state.",
		"gauge", []string{"state"}, func(emit func(float64, ...string)) {
			counts := map[BuildState]int{}
			handles := s.reg.List()
			for _, h := range handles {
				counts[h.State()]++
			}
			releaseAll(handles)
			for _, st := range []BuildState{StateBuilding, StateReady, StateFailed} {
				emit(float64(counts[st]), st.String())
			}
		})
	reg.CounterFunc("aliasd_modules_evicted_total",
		"Modules displaced from the full registry to admit newer uploads.",
		func() float64 { return float64(s.reg.Evictions()) })
	reg.Collect("aliasd_module_pins", "Outstanding handle pins (in-flight batches and lookups) per module.",
		"gauge", []string{"module"}, func(emit func(float64, ...string)) {
			handles := s.reg.List()
			for _, h := range handles {
				// List itself pins each handle; subtract our own pin.
				emit(float64(h.refs.Load()-1), h.Name)
			}
			releaseAll(handles)
		})

	// ---- Interner. Each module build runs in its own interner (see
	// Handle.interner), so the claimed gauge is the sum over live modules
	// and DROPS when a module is deleted — the churn test in
	// metrics_test.go pins that down. ----

	reg.GaugeFunc("aliasd_interner_claimed_exprs",
		"Symbolic expressions held by live module interners (falls when modules are deleted or evicted).",
		func() float64 {
			var total int64
			handles := s.reg.List()
			for _, h := range handles {
				if h.State() == StateReady {
					total += h.InternedExprs()
				}
			}
			releaseAll(handles)
			return float64(total)
		})

	return m
}

// eachReadyModule runs fn over every ready module, pinned for the duration
// of the call (List pins, releaseAll releases).
func (s *Service) eachReadyModule(fn func(h *Handle)) {
	handles := s.reg.List()
	defer releaseAll(handles)
	for _, h := range handles {
		if h.State() == StateReady {
			fn(h)
		}
	}
}

// observeStage records one pipeline stage on the histogram child and the
// request trace, returning the stage's end time so callers chain stages
// without a second clock read.
func observeStage(h *telemetry.Histogram, stage string, tr *telemetry.Trace, start time.Time) time.Time {
	now := time.Now()
	d := now.Sub(start)
	h.Observe(d.Seconds())
	tr.Observe(stage, start, d)
	return now
}

// statusWriter captures the response code for the request-level metrics and
// the structured access log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// routeLabel normalizes a request path into a bounded label set — path
// parameters must not explode the aliasd_http_requests_total cardinality.
//
// aliaslint:bounded
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/healthz", p == "/readyz", p == "/metrics",
		p == "/v1/modules", p == "/v1/query", p == "/v1/stats":
		return p
	case strings.HasPrefix(p, "/v1/modules/"):
		return "/v1/modules/{name}"
	}
	return "other"
}

// instrument wraps the API mux with the per-request envelope: X-Request-ID
// propagation (generated when absent), the context-carried trace the
// pipeline records stage spans into, the route/code request counter, and a
// debug-level access log line with the per-stage breakdown.
func (s *Service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = telemetry.NewRequestID()
		}
		tr := telemetry.NewTrace(id)
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(telemetry.NewContext(r.Context(), tr)))
		route := routeLabel(r)
		s.metrics.httpRequests.With(route, strconv.Itoa(sw.code)).Inc() //nolint:metricreg // status codes the handlers emit form a small fixed set; rendering them through Itoa cannot explode cardinality
		s.log.Debug("request",
			"id", id,
			"method", r.Method,
			"route", route,
			"code", sw.code,
			"duration", time.Since(start),
			"stages", tr.String(),
		)
	})
}
