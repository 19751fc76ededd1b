package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/telemetry"
)

// chaosHooks is the tests' Injector: each non-nil hook runs at its seam, so
// a test can hold a request at a precise point (channel block) or observe
// that the seam fired.
type chaosHooks struct {
	buildStart    func(module string)
	queryStart    func(module string, pairs int)
	responseWrite func()
	storeWrite    func(step string)
}

func (c *chaosHooks) StoreWrite(step string) {
	if c.storeWrite != nil {
		c.storeWrite(step)
	}
}

func (c *chaosHooks) BuildStart(module string) {
	if c.buildStart != nil {
		c.buildStart(module)
	}
}

func (c *chaosHooks) QueryStart(module string, pairs int) {
	if c.queryStart != nil {
		c.queryStart(module, pairs)
	}
}

func (c *chaosHooks) ResponseWrite() {
	if c.responseWrite != nil {
		c.responseWrite()
	}
}

func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body(t, resp), &stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// decodeShed checks a rejection carries the full backpressure contract:
// the expected status, a Retry-After header, and the structured JSON body
// with the expected machine-readable reason.
func decodeShed(t *testing.T, resp *http.Response, wantCode int, wantReason string) {
	t.Helper()
	if resp.StatusCode != wantCode {
		t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, wantCode, body(t, resp))
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < shedRetryAfterMin || secs > shedRetryAfterMax {
		t.Errorf("Retry-After = %q, want integer seconds in [%d,%d]",
			resp.Header.Get("Retry-After"), shedRetryAfterMin, shedRetryAfterMax)
	}
	var shed shedResponse
	if err := json.Unmarshal(body(t, resp), &shed); err != nil {
		t.Fatalf("shed body is not the structured shape: %v", err)
	}
	if shed.Reason != wantReason {
		t.Errorf("shed reason = %q, want %q", shed.Reason, wantReason)
	}
	if shed.RetryAfterMS != int64(secs)*1000 {
		t.Errorf("retry_after_ms = %d disagrees with Retry-After header %ds", shed.RetryAfterMS, secs)
	}
	if shed.Error == "" {
		t.Error("shed body has no human-readable error")
	}
}

// assertBudgetFamiliesReconcile pins the tentpole's observability contract:
// every aliasd_budget_*/shed/drain family on /metrics must equal the
// corresponding /v1/stats budget field exactly — both render the same
// atomics, so on an idle daemon no drift is tolerated.
func assertBudgetFamiliesReconcile(t *testing.T, fams []*telemetry.ParsedFamily, bs BudgetStats) {
	t.Helper()
	for kind, want := range map[string]int64{
		"limit":     bs.LimitBytes,
		"soft":      bs.SoftBytes,
		"hard":      bs.HardBytes,
		"accounted": bs.AccountedBytes,
		"heap":      bs.HeapBytes,
		"used":      bs.UsedBytes,
	} {
		if got := sampleValue(fams, "aliasd_budget_bytes", map[string]string{"kind": kind}); got != float64(want) {
			t.Errorf("aliasd_budget_bytes{kind=%q} = %v, /v1/stats says %d", kind, got, want)
		}
	}
	stateNum := map[string]float64{"ok": 0, "soft": 1, "hard": 2}
	if got := sampleValue(fams, "aliasd_budget_state", nil); got != stateNum[bs.State] {
		t.Errorf("aliasd_budget_state = %v, /v1/stats says %q", got, bs.State)
	}
	for state, want := range bs.Transitions {
		if got := sampleValue(fams, "aliasd_budget_transitions_total", map[string]string{"state": state}); got != float64(want) {
			t.Errorf("transitions{state=%q} = %v, stats says %d", state, got, want)
		}
	}
	for reason, want := range bs.Sheds {
		if got := sampleValue(fams, "aliasd_shed_requests_total", map[string]string{"reason": reason}); got != float64(want) {
			t.Errorf("sheds{reason=%q} = %v, stats says %d", reason, got, want)
		}
	}
	if got := sampleValue(fams, "aliasd_budget_evictions_total", nil); got != float64(bs.Evictions) {
		t.Errorf("budget evictions = %v, stats says %d", got, bs.Evictions)
	}
	if got := sampleValue(fams, "aliasd_inflight_queries", nil); got != float64(bs.InFlight) {
		t.Errorf("inflight gauge = %v, stats says %d", got, bs.InFlight)
	}
	wantDraining := 0.0
	if bs.Draining {
		wantDraining = 1
	}
	if got := sampleValue(fams, "aliasd_draining", nil); got != wantDraining {
		t.Errorf("draining gauge = %v, stats says %v", got, bs.Draining)
	}
	if got := sampleValue(fams, "aliasd_drains_total", nil); got != float64(bs.Drains) {
		t.Errorf("drains = %v, stats says %d", got, bs.Drains)
	}
}

// TestBudgetHardArcShedEvictRecover drives the full degradation arc with a
// deterministic heap probe (always 0, so only the service's own accounting
// moves the watermark): a module whose build estimate alone exceeds a tiny
// budget flips the tracker to hard; uploads are then shed with 429 while
// queries still answer; a governor round force-evicts the module; with the
// accounting back to zero the tracker recovers and uploads are accepted
// again. Every counter the arc bumped must reconcile exactly between
// /metrics and /v1/stats.
func TestBudgetHardArcShedEvictRecover(t *testing.T) {
	src := fig1Source(t)
	s, ts := startServer(t, Config{
		Parallel:      2,
		MemBudget:     2048, // fig1's build estimate is far above 85% of this
		GovernEvery:   -1,   // governor driven by hand: GovernOnce below
		BudgetOptions: budget.Options{ReadHeap: func() int64 { return 0 }},
	})
	defer s.Close()

	// Upload passes admission (nothing accounted yet) and the post-publish
	// reconcile flips the tracker to hard.
	if resp := postModule(t, ts, "fig1", "minic", src); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body(t, resp))
	} else {
		body(t, resp)
	}
	bs := getStats(t, ts).Budget
	if !bs.Enabled || bs.State != "hard" {
		t.Fatalf("budget after upload = %+v, want enabled hard", bs)
	}
	if bs.AccountedBytes <= bs.HardBytes || bs.UsedBytes != bs.AccountedBytes {
		t.Fatalf("accounting inconsistent: %+v", bs)
	}

	// Hard watermark: uploads shed with 429, the budget reason, and the
	// retry contract.
	decodeShed(t, postModule(t, ts, "late", "ir", tinyModule("late")), http.StatusTooManyRequests, "budget")

	// Queries still answer — hard pressure narrows admission, it does not
	// stop the read path.
	h, ok := s.Registry().Get("fig1")
	if !ok {
		t.Fatal("fig1 not registered")
	}
	pairs := namedPairs(h.Mod)[:1]
	h.Release()
	reqBody, _ := json.Marshal(QueryRequest{Module: "fig1", Pairs: pairs})
	qresp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query under hard pressure: %d %s", qresp.StatusCode, body(t, qresp))
	}
	body(t, qresp)

	// One governor round: the module is evicted (unpinned, LRU) because
	// the accounting exceeds the soft watermark; the post-action reconcile
	// sees zero and recovers.
	s.GovernOnce()
	bs = getStats(t, ts).Budget
	if bs.Evictions < 1 {
		t.Errorf("governor evicted no modules: %+v", bs)
	}
	if n := s.Registry().Len(); n != 0 {
		t.Errorf("registry holds %d modules after budget eviction, want 0", n)
	}
	if bs.State != "ok" {
		t.Errorf("state after reclamation = %q, want ok", bs.State)
	}

	// A recovered round does nothing; uploads are accepted again.
	s.GovernOnce()
	if resp := postModule(t, ts, "again", "ir", tinyModule("again")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload after recovery: %d %s", resp.StatusCode, body(t, resp))
	} else {
		body(t, resp)
	}

	// The whole arc reconciles: metrics and stats render identical numbers.
	bs = getStats(t, ts).Budget
	if bs.Sheds["upload_budget"] != 1 {
		t.Errorf("upload_budget sheds = %d, want 1", bs.Sheds["upload_budget"])
	}
	if bs.Transitions["hard"] < 1 || bs.Transitions["ok"] < 1 {
		t.Errorf("transition counters missed the arc: %+v", bs.Transitions)
	}
	assertBudgetFamiliesReconcile(t, scrape(t, ts.URL), bs)
}

// TestMaxInFlightShedsExcessQueries holds MaxInFlight batches at the chaos
// seam and checks the next one is shed at admission — before decode — with
// the inflight reason, and that the held batches complete untouched.
func TestMaxInFlightShedsExcessQueries(t *testing.T) {
	src := fig1Source(t)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s, ts := startServer(t, Config{
		Parallel:    2,
		MaxInFlight: 2,
		Chaos: &chaosHooks{queryStart: func(string, int) {
			started <- struct{}{}
			<-release
		}},
	})
	defer s.Close()
	if resp := postModule(t, ts, "fig1", "minic", src); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body(t, resp))
	} else {
		body(t, resp)
	}
	h, _ := s.Registry().Get("fig1")
	pairs := namedPairs(h.Mod)[:1]
	h.Release()
	reqBody, _ := json.Marshal(QueryRequest{Module: "fig1", Pairs: pairs})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				t.Errorf("held query: %v", err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("held query: %d %s", resp.StatusCode, body(t, resp))
				return
			}
			body(t, resp)
		}()
	}
	<-started
	<-started
	if got := s.InFlight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	decodeShed(t, resp, http.StatusServiceUnavailable, "inflight")

	close(release)
	wg.Wait()
	bs := getStats(t, ts).Budget
	if bs.Sheds["inflight"] != 1 {
		t.Errorf("inflight sheds = %d, want 1", bs.Sheds["inflight"])
	}
	if bs.InFlight != 0 {
		t.Errorf("inflight gauge = %d after completion, want 0", bs.InFlight)
	}
}

// TestQueryTimeoutShedsMidFlight installs a chaos stall longer than the
// request deadline: the batch is admitted, decoded, then cancelled
// mid-flight and shed with the timeout reason.
func TestQueryTimeoutShedsMidFlight(t *testing.T) {
	src := fig1Source(t)
	s, ts := startServer(t, Config{
		Parallel:     2,
		QueryTimeout: 2 * time.Millisecond,
		Chaos: &chaosHooks{queryStart: func(string, int) {
			time.Sleep(30 * time.Millisecond) // far past the deadline
		}},
	})
	defer s.Close()
	if resp := postModule(t, ts, "fig1", "minic", src); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body(t, resp))
	} else {
		body(t, resp)
	}
	h, _ := s.Registry().Get("fig1")
	pairs := namedPairs(h.Mod)[:1]
	h.Release()
	reqBody, _ := json.Marshal(QueryRequest{Module: "fig1", Pairs: pairs})

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	decodeShed(t, resp, http.StatusServiceUnavailable, "timeout")
	if got := getStats(t, ts).Budget.Sheds["timeout"]; got != 1 {
		t.Errorf("timeout sheds = %d, want 1", got)
	}
}

// TestDrainLifecycle walks the shutdown sequence: BeginDrain flips /readyz
// to draining and sheds new work on both surfaces while an in-flight batch
// (held at the chaos seam) keeps its slot; Drain times out while it is
// held, then completes once it finishes.
func TestDrainLifecycle(t *testing.T) {
	src := fig1Source(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s, ts := startServer(t, Config{
		Parallel: 2,
		Chaos: &chaosHooks{queryStart: func(string, int) {
			started <- struct{}{}
			<-release
		}},
	})
	defer s.Close()
	if resp := postModule(t, ts, "fig1", "minic", src); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body(t, resp))
	} else {
		body(t, resp)
	}
	h, _ := s.Registry().Get("fig1")
	pairs := namedPairs(h.Mod)[:1]
	h.Release()
	reqBody, _ := json.Marshal(QueryRequest{Module: "fig1", Pairs: pairs})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Errorf("in-flight query: %v", err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("in-flight query after drain began: %d %s", resp.StatusCode, body(t, resp))
			return
		}
		body(t, resp)
	}()
	<-started

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("BeginDrain did not flip the drain flag")
	}

	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rr ReadyResponse
	if code := rresp.StatusCode; code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", code)
	}
	if err := json.Unmarshal(body(t, rresp), &rr); err != nil || rr.Status != "draining" {
		t.Fatalf("readyz = %+v (err %v), want draining", rr, err)
	}

	// New work on both surfaces is shed; the held batch keeps its slot.
	qresp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	decodeShed(t, qresp, http.StatusServiceUnavailable, "draining")
	decodeShed(t, postModule(t, ts, "late", "ir", tinyModule("late")), http.StatusServiceUnavailable, "draining")

	// Drain cannot finish while the batch is held...
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	err = s.Drain(ctx)
	cancel()
	if err == nil {
		t.Fatal("Drain returned nil with a batch still in flight")
	}

	// ...and completes promptly once it is released.
	close(release)
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	wg.Wait()

	bs := getStats(t, ts).Budget
	if !bs.Draining || bs.Drains != 1 {
		t.Errorf("drain counters = draining %v drains %d, want true/1", bs.Draining, bs.Drains)
	}
	if bs.Sheds["draining"] != 1 || bs.Sheds["upload_draining"] != 1 {
		t.Errorf("drain sheds = %+v, want draining=1 upload_draining=1", bs.Sheds)
	}
}

// TestMaxBatchBytesRejectsOversizedBody pins the configurable body cap: an
// oversized /v1/query body gets a structured 413 naming the limit, without
// being decoded.
func TestMaxBatchBytesRejectsOversizedBody(t *testing.T) {
	s, ts := startServer(t, Config{MaxBatchBytes: 128})
	defer s.Close()
	big := `{"module":"fig1","pairs":[` + strings.Repeat(`{"func":"f","a":"x","b":"y"},`, 50)
	big = big[:len(big)-1] + "]}"
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", resp.StatusCode)
	}
	if b := body(t, resp); !bytes.Contains(b, []byte("128-byte limit")) {
		t.Errorf("413 body %s does not name the limit", b)
	}
}

// TestBuildQueueFullShedsAndReadyzBacklogged fills the async build pipeline
// under concurrency: with one worker held at the chaos seam and a backlog
// of one, the third upload is refused with 503 and /readyz reports
// backlogged (the stronger not-ready signal); releasing the worker drains
// the queue and readiness returns.
func TestBuildQueueFullShedsAndReadyzBacklogged(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s, ts := startServer(t, Config{
		BuildWorkers: 1,
		BuildBacklog: 1,
		Chaos: &chaosHooks{buildStart: func(string) {
			started <- struct{}{}
			<-release
		}},
	})
	defer s.Close()
	defer close(release) // never leave the worker blocked if an assert fails

	post := func(name string) *http.Response {
		t.Helper()
		return postModuleAsync(t, ts.URL, name, "ir", tinyModule(name))
	}
	// First upload: accepted, picked up by the worker, held at BuildStart.
	if resp := post("q1"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("q1: %d %s", resp.StatusCode, body(t, resp))
	} else {
		body(t, resp)
	}
	<-started
	// Second upload: accepted into the (now empty) backlog slot.
	if resp := post("q2"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("q2: %d %s", resp.StatusCode, body(t, resp))
	} else {
		body(t, resp)
	}
	// Third upload: backlog full — refused with 503.
	if resp := post("q3"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("q3 with a full backlog: %d, want 503", resp.StatusCode)
	} else if b := body(t, resp); !bytes.Contains(b, []byte("build queue full")) {
		t.Errorf("503 body %s does not explain the full queue", b)
	}

	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rr ReadyResponse
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a full backlog: %d, want 503", rresp.StatusCode)
	}
	if err := json.Unmarshal(body(t, rresp), &rr); err != nil || rr.Status != "backlogged" {
		t.Fatalf("readyz = %+v (err %v), want backlogged", rr, err)
	}

	release <- struct{}{} // q1
	release <- struct{}{} // q2
	pollStatus(t, ts.URL, "q1", "ready")
	pollStatus(t, ts.URL, "q2", "ready")
	rresp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body(t, rresp), &rr); err != nil || rr.Status != "ready" {
		t.Fatalf("readyz after drain = %+v (err %v), want ready", rr, err)
	}
}
