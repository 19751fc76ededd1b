package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"strconv"

	"repro/internal/alias"
	"repro/internal/budget"
	"repro/internal/telemetry"
)

// ModuleInfo is the public summary of a registered module. The IR and
// analysis fields are meaningful only when Status is "ready"; a module
// still building (async upload) or failed reports its lifecycle fields.
type ModuleInfo struct {
	Name        string    `json:"name"`
	Format      string    `json:"format"`
	Status      string    `json:"status"` // building | ready | failed
	Error       string    `json:"error,omitempty"`
	Chain       string    `json:"chain,omitempty"`
	Funcs       int       `json:"funcs,omitempty"`
	Blocks      int       `json:"blocks,omitempty"`
	Instrs      int       `json:"instrs,omitempty"`
	Pointers    int       `json:"pointers,omitempty"`
	PairQueries int       `json:"pair_queries,omitempty"`
	MemBytes    int64     `json:"approx_mem_bytes,omitempty"`
	CreatedAt   time.Time `json:"created_at"`
}

func moduleInfo(h *Handle) ModuleInfo {
	// One state load for both the status string and the field selection: a
	// concurrent building→ready transition must not produce a torn payload
	// claiming "building" while carrying ready-only fields.
	state := h.State()
	info := ModuleInfo{
		Name:      h.Name,
		Format:    h.Format,
		Status:    state.String(),
		CreatedAt: h.CreatedAt,
	}
	switch state {
	case StateReady:
		info.Chain = h.Planner.Index().Name()
		info.Funcs = h.IRStats.Funcs
		info.Blocks = h.IRStats.Blocks
		info.Instrs = h.IRStats.Instrs
		info.Pointers = h.IRStats.Pointers
		info.PairQueries = h.PairQueries
		info.MemBytes = h.MemBytes()
	case StateFailed:
		info.Error = h.Err()
	}
	return info
}

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	Module string `json:"module"`
	Pairs  []Pair `json:"pairs"`
}

// QueryResponse is the body of a successful POST /v1/query: results in
// request order plus the aggregate no-alias count. Trace is present only
// when the client asked for it (?trace=1) — the field must stay omitempty
// so default responses remain byte-identical to earlier releases.
type QueryResponse struct {
	Module  string     `json:"module"`
	Results []Result   `json:"results"`
	NoAlias int        `json:"noalias"`
	Trace   *TraceEcho `json:"trace,omitempty"`
}

// TraceEcho is the ?trace=1 section of QueryResponse: the request ID (also
// in the X-Request-ID response header) and the pipeline stage spans
// recorded while the batch ran. It covers decode through aggregate; the
// encode stage finishes after the body is framed, so it appears only in the
// stage histogram and the debug access log.
type TraceEcho struct {
	RequestID string     `json:"request_id"`
	Spans     []SpanEcho `json:"spans"`
}

// SpanEcho is one stage timing in a TraceEcho.
type SpanEcho struct {
	Stage      string  `json:"stage"`
	DurationUS float64 `json:"duration_us"`
}

// PlannerCounters is one module's batch-planner section in /v1/stats: how
// many batches were swept, how the answered pairs split between the three
// paths (sweep short-circuit, compiled index, fallback outside the index),
// and the no-alias counts of the first two. Pairs always equals
// SweepNoAlias + IndexPairs + FallbackPairs; a fallback pair is answered
// may-alias, and the validate stage admits none.
type PlannerCounters struct {
	Batches       int64   `json:"batches"`
	PlannedValues int64   `json:"planned_values"`
	Groups        int64   `json:"groups"`
	Pairs         int64   `json:"pairs"`
	SweepNoAlias  int64   `json:"sweep_noalias"`
	IndexPairs    int64   `json:"index_pairs"`
	IndexNoAlias  int64   `json:"index_noalias"`
	FallbackPairs int64   `json:"fallback_pairs"`
	FallbackRate  float64 `json:"fallback_rate"`
}

// ModuleStats is one module's live counters in /v1/stats. Chain, MemBytes
// and Planner are present only for ready modules; building/failed rows
// carry the lifecycle fields.
type ModuleStats struct {
	Name   string `json:"name"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	Chain  string `json:"chain,omitempty"`
	// MemBytes approximates the module's resident memory: the source text,
	// the built IR and value maps, the compiled alias index and the
	// symbolic expressions the build interned.
	MemBytes int64            `json:"approx_mem_bytes,omitempty"`
	Planner  *PlannerCounters `json:"planner,omitempty"`
}

// BudgetStats is the memory-budget and backpressure section of /v1/stats.
// Every number is read from the same atomics the aliasd_budget_* and
// aliasd_shed_requests_total metric families render, so the two endpoints
// reconcile exactly on an idle daemon. Byte fields are zero with the
// budget disabled; the shed/drain counters are live either way (draining
// and MaxInFlight shed without a budget too).
type BudgetStats struct {
	Enabled        bool   `json:"enabled"`
	State          string `json:"state"` // ok | soft | hard
	LimitBytes     int64  `json:"limit_bytes"`
	SoftBytes      int64  `json:"soft_bytes"`
	HardBytes      int64  `json:"hard_bytes"`
	AccountedBytes int64  `json:"accounted_bytes"`
	HeapBytes      int64  `json:"heap_bytes"`
	UsedBytes      int64  `json:"used_bytes"`
	// Transitions counts watermark-state entries by destination state.
	Transitions map[string]int64 `json:"transitions"`
	// Sheds counts rejected requests by reason (the label set of
	// aliasd_shed_requests_total).
	Sheds map[string]int64 `json:"sheds"`
	// Evictions counts modules the governor force-evicted.
	Evictions int64 `json:"evictions"`
	Draining  bool  `json:"draining"`
	Drains    int64 `json:"drains"`
	InFlight  int64 `json:"in_flight"`
}

// StoreStats is the persistence section of /v1/stats, present only when
// the daemon runs with -data-dir. Every number reads the same counters the
// aliasd_store_* metric families render.
type StoreStats struct {
	Records         int     `json:"records"`
	Bytes           int64   `json:"bytes"`
	Puts            int64   `json:"puts"`
	Deletes         int64   `json:"deletes"`
	Quarantined     int64   `json:"quarantined"`
	Errors          int64   `json:"errors"`
	RecoverySeconds float64 `json:"recovery_seconds"`
	Recovering      bool    `json:"recovering"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeMS int64 `json:"uptime_ms"`
	// UptimeSeconds mirrors the aliasd_uptime_seconds gauge (same clock,
	// same start instant) so the two surfaces reconcile.
	UptimeSeconds float64 `json:"uptime_seconds"`
	Version       string  `json:"version"`
	// ModulesEvicted counts modules displaced from the full registry to
	// admit newer uploads (0 unless eviction is enabled). Budget-governor
	// evictions are counted separately in Budget.Evictions.
	ModulesEvicted int64         `json:"modules_evicted"`
	Budget         BudgetStats   `json:"budget"`
	Store          *StoreStats   `json:"store,omitempty"`
	Modules        []ModuleStats `json:"modules"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status  string `json:"status"`
	Modules int    `json:"modules"`
}

// ReadyResponse is the body of GET /readyz: liveness says "the process is
// up", readiness says "queries will be answered now" — the daemon is not
// ready while it is draining for shutdown, while any module build is in
// flight, or while the build backlog is deep enough that new async uploads
// would be refused. Load generators (and orchestrators) gate on this
// instead of sleeping.
type ReadyResponse struct {
	Status     string `json:"status"` // ready | draining | recovering | backlogged | building
	Modules    int    `json:"modules"`
	Building   int    `json:"building"`
	QueueDepth int    `json:"queue_depth"`
}

// writeJSON marshals v as the response body (one JSON document plus a
// trailing newline — the framing the golden tests pin down).
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// shedResponse is the structured body of every backpressure rejection
// (429 uploads, 503 queries): a stable machine-readable reason plus the
// retry hint that mirrors the Retry-After header. Clients distinguish
// "overloaded, retry" from hard errors by shape, not by parsing prose.
type shedResponse struct {
	Error        string `json:"error"`
	Reason       string `json:"reason"`
	RetryAfterMS int64  `json:"retry_after_ms"`
}

// Retry-After bounds. The base second comfortably covers a governor tick;
// the ceiling keeps clients from parking so long that recovered capacity
// idles. Between them the hint scales with how overloaded the daemon
// actually is — see retryAfterSeconds.
const (
	shedRetryAfterMin = 1 // seconds
	shedRetryAfterMax = 8
)

// retryAfterSeconds computes the adaptive backoff hint for one shed: the
// base second, plus the budget's watermark state (a soft daemon recovers
// within a tick or two, a hard one needs evictions and a forced GC to
// land), plus the in-flight depth relative to MaxInFlight (a full admission
// window means the herd should spread out, not return in lockstep).
// Monotone in both inputs and clamped to [shedRetryAfterMin,
// shedRetryAfterMax] — the bounds the unit test pins.
func (s *Service) retryAfterSeconds() int {
	secs := shedRetryAfterMin
	switch s.budget.State() {
	case budget.StateSoft:
		secs += 1
	case budget.StateHard:
		secs += 3
	}
	if limit := s.cfg.MaxInFlight; limit > 0 {
		n := s.inflight.Load()
		if n > int64(limit) {
			n = int64(limit)
		}
		if n > 0 {
			secs += int(4 * n / int64(limit))
		}
	}
	if secs > shedRetryAfterMax {
		secs = shedRetryAfterMax
	}
	return secs
}

// writeShed renders one load-shedding rejection: Retry-After header plus
// the structured JSON body, both carrying the same adaptive hint.
func (s *Service) writeShed(w http.ResponseWriter, code int, reason, format string, args ...any) {
	secs := s.retryAfterSeconds()
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, code, shedResponse{
		Error:        fmt.Sprintf(format, args...),
		Reason:       reason,
		RetryAfterMS: int64(secs) * 1000,
	})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Modules: s.reg.Len()})
}

func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{
		Modules:    s.reg.Len(),
		Building:   s.reg.Building(),
		QueueDepth: s.builds.Len(),
	}
	// Backlogged outranks building: a backlog at capacity means new async
	// uploads are being refused right now, the stronger not-ready signal.
	// Draining outranks recovering — a daemon told to shut down mid-replay
	// is going away, not coming up.
	switch {
	case s.draining.Load():
		resp.Status = "draining"
	case s.recovering.Load():
		resp.Status = "recovering"
	case resp.QueueDepth >= s.cfg.BuildBacklog:
		resp.Status = "backlogged"
	case resp.Building > 0:
		resp.Status = "building"
	default:
		resp.Status = "ready"
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, resp)
}

func (s *Service) handleListModules(w http.ResponseWriter, r *http.Request) {
	handles := s.reg.List()
	defer releaseAll(handles)
	infos := make([]ModuleInfo, len(handles))
	for i, h := range handles {
		infos[i] = moduleInfo(h)
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Service) handleCreateModule(w http.ResponseWriter, r *http.Request) {
	// Admission before the body is read: a draining daemon takes no new
	// modules, and past the hard watermark a build's memory cost is
	// exactly what must not be added. Both are polite, structured
	// rejections the retry client understands.
	if s.draining.Load() {
		s.sheds.uploadDraining.Add(1)
		s.writeShed(w, http.StatusServiceUnavailable, "draining", "draining for shutdown, not accepting modules")
		return
	}
	if s.recovering.Load() {
		// Uploads race the manifest replay for names and build workers;
		// shed them retryably until the recovered set is published.
		s.sheds.uploadRecovering.Add(1)
		s.writeShed(w, http.StatusServiceUnavailable, "recovering", "recovering persisted modules, retry shortly")
		return
	}
	if s.budget.State() >= budget.StateHard {
		s.sheds.uploadBudget.Add(1)
		s.writeShed(w, http.StatusTooManyRequests, "budget",
			"memory budget exhausted (%d of %d bytes), retry later", s.budget.Used(), s.budget.Limit())
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing ?name=")
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "ir"
	}
	async := r.URL.Query().Get("async") == "1"
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxSourceBytes)+1))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}

	if !async {
		// Build before touching the registry: a malformed upload must never
		// consume a slot — or worse, evict a healthy module — for source
		// that does not even parse. Two clients racing the same name both
		// pay the build and Add arbitrates (one gets 409), matching the
		// duplicate semantics of a serial upload sequence.
		h := NewPending(name, format)
		buildStart := time.Now()
		err := s.build(h, string(src))
		s.observeBuild(name, "sync", buildStart, err)
		if err != nil {
			code := http.StatusBadRequest
			if errors.As(err, new(buildPanic)) {
				code = http.StatusInternalServerError
			}
			writeError(w, code, "%v", err)
			return
		}
		h.finishReady()
		// Pin across publish + encode so a DELETE racing in right after Add
		// cannot tear the handle down under moduleInfo.
		h.refs.Add(1)
		if err := s.reg.Add(h); err != nil {
			h.Release()
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		// Durability before acknowledgment: the 201 promises the module
		// survives a crash, so the store write must land first. A persist
		// failure unpublishes the module — better a clean 500 the client
		// retries than a 201 whose module quietly evaporates on restart.
		if err := s.persistModule(name, format, src); err != nil {
			s.reg.Remove(name)
			writeError(w, http.StatusInternalServerError, "persisting module: %v", err)
			return
		}
		info := moduleInfo(h)
		h.Release()
		// A fresh module is the accounting's fastest-moving input; fold it
		// in now — after Add made it visible to the sampler — instead of
		// waiting out a governor tick, so admission reacts to build bursts
		// promptly.
		s.reconcileBudget()
		writeJSON(w, http.StatusCreated, info)
		return
	}

	// Async: reserve the name (visible to status polls from the moment the
	// 202 returns) without consuming a module slot — only a successful
	// build competes for those, inside Finish. Failed builds stay visible
	// as "failed" until deleted or replaced, so the client that got the
	// 202 can always learn the outcome. The pin taken before Submit keeps
	// a DELETE racing the build from tearing the handle down mid-build;
	// the info snapshot is taken before Submit because afterwards the pin
	// belongs to the build worker and may already be released.
	h := NewPending(name, format)
	if err := s.reg.Reserve(h); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	h.refs.Add(1)
	info := moduleInfo(h)
	if !s.builds.Submit(func() {
		defer h.Release()
		buildStart := time.Now()
		err := s.build(h, string(src))
		s.observeBuild(h.Name, "async", buildStart, err)
		s.reg.Finish(h, err)
		if err == nil && h.State() == StateReady {
			// Durability follows promotion on the async path: the 202 never
			// promised the module existed, so a persist failure here
			// unpublishes it and logs — the status poll then reports the
			// module gone, which a recovery-aware client treats as retry.
			if perr := s.persistModule(h.Name, h.Format, src); perr != nil {
				s.log.Error("persisting async module failed; unpublishing",
					"module", h.Name, "error", perr)
				s.reg.Remove(h.Name)
			}
			// Same prompt fold-in as the sync path, after Finish published
			// the module to the sampler.
			s.reconcileBudget()
		}
	}) {
		h.Release()
		s.reg.unreserve(h)
		writeError(w, http.StatusServiceUnavailable, "build queue full, retry later")
		return
	}
	writeJSON(w, http.StatusAccepted, info)
}

func (s *Service) handleGetModule(w http.ResponseWriter, r *http.Request) {
	h, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "module %q not registered", r.PathValue("name"))
		return
	}
	defer h.Release()
	writeJSON(w, http.StatusOK, moduleInfo(h))
}

func (s *Service) handleDeleteModule(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Remove(name) {
		writeError(w, http.StatusNotFound, "module %q not registered", name)
		return
	}
	// Tombstone after the registry drop: a crash in between leaves a
	// persisted module the next boot resurrects — stale but valid, and the
	// client's DELETE can simply be repeated. The reverse order could lose
	// a module that was never meant to be deleted.
	if s.store != nil {
		if _, err := s.store.Delete(name); err != nil {
			s.storeFailing.Add(1)
			s.log.Error("tombstoning deleted module failed", "module", name, "error", err)
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// persistModule records one acknowledged upload in the crash-safe store.
// Nil-safe: a memory-only daemon skips straight to success.
func (s *Service) persistModule(name, format string, src []byte) error {
	if s.store == nil {
		return nil
	}
	if err := s.store.Put(name, format, src); err != nil {
		s.storeFailing.Add(1)
		return err
	}
	return nil
}

// admitQuery reserves one in-flight slot, shedding (with the returned
// reason) when the service is draining, the MaxInFlight bound is hit, or
// the hard watermark has tightened admission to a quarter of the bound —
// under hard memory pressure the daemon keeps answering, just narrower, so
// the governor's reclamation can catch up. The caller must releaseQuery
// exactly once when admitted.
//
// aliaslint:bounded — reason is one of four literals.
func (s *Service) admitQuery() (reason string, ok bool) {
	if s.draining.Load() {
		s.sheds.draining.Add(1)
		return "draining", false
	}
	if s.recovering.Load() {
		// The recovered module set is still being published; a query now
		// would 404 on modules that are about to exist. Retryable shed.
		s.sheds.recovering.Add(1)
		return "recovering", false
	}
	n := s.inflight.Add(1)
	limit := s.cfg.MaxInFlight
	if limit > 0 && n > int64(limit) {
		s.inflight.Add(-1)
		s.sheds.inflight.Add(1)
		return "inflight", false
	}
	if s.budget.State() >= budget.StateHard {
		hardLimit := limit / 4
		if hardLimit < 1 {
			hardLimit = 1
		}
		if limit > 0 && n > int64(hardLimit) {
			s.inflight.Add(-1)
			s.sheds.budget.Add(1)
			return "budget", false
		}
	}
	return "", true
}

func (s *Service) releaseQuery() { s.inflight.Add(-1) }

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	tr := telemetry.FromContext(r.Context())
	start := time.Now()
	// Admission first: shedding must cost a counter bump and a tiny write,
	// not a 16MB decode. The decode stage therefore observes only admitted
	// requests — sheds happen before every pipeline-stage histogram, which
	// keeps the CI stage-lockstep reconciliation intact.
	reason, admitted := s.admitQuery()
	if !admitted {
		m.queryErrors.With(reason).Inc()
		s.writeShed(w, http.StatusServiceUnavailable, reason, "query shed (%s), retry later", reason)
		return
	}
	defer s.releaseQuery()
	// Decode: the body is read in full into a pooled buffer, then scanned in
	// the fast shape or decoded by encoding/json (see codec.go). Reading
	// first means a body past MaxBatchBytes always gets the 413, even when
	// a complete JSON value precedes the excess.
	buf := getQueryBuf()
	defer putQueryBuf(buf)
	buf.body.Reset()
	if _, err := buf.body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			m.queryErrors.With("body_too_large").Inc()
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		m.queryErrors.With("decode").Inc()
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	module, npairs, err := buf.decode(s.cfg.MaxBatch)
	if err != nil {
		m.queryErrors.With("decode").Inc()
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	observeStage(m.stageDecode, stgDecode, tr, start)
	// Acquire pins the handle for the whole batch: a concurrent DELETE or
	// eviction retires the module but teardown waits for our Release.
	h, ok := s.reg.Acquire(module)
	if !ok {
		m.queryErrors.With("unknown_module").Inc()
		writeError(w, http.StatusNotFound, "module %q not registered", module)
		return
	}
	defer h.Release()
	switch h.State() {
	case StateBuilding:
		m.queryErrors.With("building").Inc()
		writeError(w, http.StatusConflict, "module %q is still building", module)
		return
	case StateFailed:
		m.queryErrors.With("failed").Inc()
		writeError(w, http.StatusConflict, "module %q failed to build: %s", module, h.Err())
		return
	}
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	// The injector runs under the deadline: an injected stall is charged
	// against the batch exactly like real slow evaluation.
	s.injectQuery(module, npairs)
	verdicts, err := s.runPipeline(ctx, h, buf, npairs, buf.resolve)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.sheds.timeout.Add(1)
			m.queryErrors.With("timeout").Inc()
			s.writeShed(w, http.StatusServiceUnavailable, "timeout",
				"batch exceeded the %s deadline and was cancelled", s.cfg.QueryTimeout)
		case errors.Is(err, context.Canceled):
			s.sheds.canceled.Add(1)
			m.queryErrors.With("canceled").Inc()
			s.writeShed(w, http.StatusServiceUnavailable, "canceled", "batch cancelled")
		default:
			m.queryErrors.With("batch").Inc()
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	aggStart := time.Now()
	noAlias := 0
	for i := range verdicts {
		if verdicts[i].Result == alias.NoAlias {
			noAlias++
		}
	}
	now := observeStage(m.stageAggregate, stgAggregate, tr, aggStart)
	var echo *TraceEcho
	if r.URL.Query().Get("trace") == "1" && tr != nil {
		echo = &TraceEcho{RequestID: tr.ID}
		for _, sp := range tr.Spans() {
			echo.Spans = append(echo.Spans, SpanEcho{
				Stage:      sp.Stage,
				DurationUS: float64(sp.Duration.Nanoseconds()) / 1e3,
			})
		}
	}
	buf.out = appendResponse(buf.out[:0], h, verdicts, noAlias, echo)
	s.injectResponse()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.out)
	now = observeStage(m.stageEncode, stgEncode, tr, now)
	m.queryDur.Observe(now.Sub(start).Seconds())
	m.queryPairs.Add(int64(npairs))
	m.batchPairs.Observe(float64(npairs))
}

// buildPanic is the error of a build that panicked: the module fails, the
// process and its other modules carry on.
type buildPanic struct{ v any }

func (e buildPanic) Error() string { return fmt.Sprintf("build panicked: %v", e.v) }

// build runs h's build as every path does — the chaos hook, then runBuild
// — and turns a panic anywhere in it into a buildPanic error. It does not
// publish a state transition (see runBuild).
func (s *Service) build(h *Handle, src string) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = buildPanic{v}
		}
	}()
	s.injectBuild(h.Name)
	return h.runBuild(src, s.cfg.MaxSourceBytes)
}

// observeBuild records one module build's outcome counters, duration
// histogram, and info-level log line.
func (s *Service) observeBuild(name, mode string, start time.Time, err error) {
	d := time.Since(start)
	result := "ok"
	if err != nil {
		result = "error"
	}
	s.metrics.builds.With(mode, result).Inc()
	s.metrics.buildDur.With(mode).Observe(d.Seconds())
	if err != nil {
		s.log.Info("module build failed", "module", name, "mode", mode, "duration", d, "error", err)
	} else {
		s.log.Info("module build finished", "module", name, "mode", mode, "duration", d)
	}
}

// budgetStats renders the budget/backpressure section from the same
// atomics the metric collectors read.
func (s *Service) budgetStats() BudgetStats {
	snap := s.budget.Snapshot()
	return BudgetStats{
		Enabled:        s.budget.Enabled(),
		State:          s.budget.State().String(),
		LimitBytes:     snap.Limit,
		SoftBytes:      snap.Soft,
		HardBytes:      snap.Hard,
		AccountedBytes: snap.Accounted,
		HeapBytes:      snap.Heap,
		UsedBytes:      snap.Used,
		Transitions: map[string]int64{
			"ok":   snap.Transitions[budget.StateOK],
			"soft": snap.Transitions[budget.StateSoft],
			"hard": snap.Transitions[budget.StateHard],
		},
		Sheds: map[string]int64{
			"draining":          s.sheds.draining.Load(),
			"inflight":          s.sheds.inflight.Load(),
			"budget":            s.sheds.budget.Load(),
			"timeout":           s.sheds.timeout.Load(),
			"canceled":          s.sheds.canceled.Load(),
			"recovering":        s.sheds.recovering.Load(),
			"upload_budget":     s.sheds.uploadBudget.Load(),
			"upload_draining":   s.sheds.uploadDraining.Load(),
			"upload_recovering": s.sheds.uploadRecovering.Load(),
		},
		Evictions: s.budgetEvictions.Load(),
		Draining:  s.draining.Load(),
		Drains:    s.drains.Load(),
		InFlight:  s.inflight.Load(),
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	uptime := time.Since(s.start)
	resp := StatsResponse{
		UptimeMS:       uptime.Milliseconds(),
		UptimeSeconds:  uptime.Seconds(),
		Version:        Version,
		ModulesEvicted: s.reg.Evictions(),
		Budget:         s.budgetStats(),
	}
	if s.store != nil {
		st := s.store.Snapshot()
		resp.Store = &StoreStats{
			Records:         st.Records,
			Bytes:           st.Bytes,
			Puts:            st.Puts,
			Deletes:         st.Deletes,
			Quarantined:     st.Quarantined,
			Errors:          s.storeFailing.Load(),
			RecoverySeconds: time.Duration(s.recoveryDur.Load()).Seconds(),
			Recovering:      s.recovering.Load(),
		}
	}
	handles := s.reg.List()
	defer releaseAll(handles)
	for _, h := range handles {
		state := h.State() // one load: no torn status-vs-fields rows
		ms := ModuleStats{Name: h.Name, Status: state.String()}
		switch state {
		case StateFailed:
			ms.Error = h.Err()
		case StateReady:
			ps := h.Planner.Stats()
			ms.Chain = h.Planner.Index().Name()
			ms.MemBytes = h.MemBytes()
			ms.Planner = &PlannerCounters{
				Batches:       ps.Batches,
				PlannedValues: ps.PlannedValues,
				Groups:        ps.Groups,
				Pairs:         ps.Pairs,
				SweepNoAlias:  ps.SweepNoAlias,
				IndexPairs:    ps.IndexPairs,
				IndexNoAlias:  ps.IndexNoAlias,
				FallbackPairs: ps.FallbackPairs,
				FallbackRate:  ps.FallbackRate(),
			}
		}
		resp.Modules = append(resp.Modules, ms)
	}
	writeJSON(w, http.StatusOK, resp)
}
