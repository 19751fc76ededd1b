package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// scrape fetches and parses GET /metrics.
func scrape(t *testing.T, url string) []*telemetry.ParsedFamily {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	text := string(body(t, resp))
	if err := telemetry.Lint(text); err != nil {
		t.Fatalf("/metrics fails exposition lint: %v", err)
	}
	fams, err := telemetry.Parse(text)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	return fams
}

// sampleValue returns the value of the family's sample matching the label
// subset (0 when absent).
func sampleValue(fams []*telemetry.ParsedFamily, name string, labels map[string]string) float64 {
	f := telemetry.FindFamily(fams, name)
	if f == nil {
		return 0
	}
	for _, s := range f.Samples {
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	return 0
}

// TestMetricsReconcileWithStats is the tentpole's contract: after a mixed
// concurrent batch run, every per-module counter family on /metrics equals
// the corresponding /v1/stats field exactly — both endpoints render the
// same snapshot structs, so no drift is tolerated.
func TestMetricsReconcileWithStats(t *testing.T) {
	src := fig1Source(t)
	s, ts := startServer(t, Config{Parallel: 4})
	defer s.Close()
	resp := postModule(t, ts, "fig1", "minic", src)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("module upload: %d %s", resp.StatusCode, body(t, resp))
	}

	h, ok := s.Registry().Get("fig1")
	if !ok {
		t.Fatal("module not registered")
	}
	pairs := namedPairs(h.Mod)
	h.Release()

	reqBody, _ := json.Marshal(QueryRequest{Module: "fig1", Pairs: pairs})
	var wg sync.WaitGroup
	const clients = 4
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				qr, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					t.Errorf("POST /v1/query: %v", err)
					return
				}
				if qr.StatusCode != http.StatusOK {
					t.Errorf("query: %d %s", qr.StatusCode, body(t, qr))
					return
				}
				body(t, qr)
			}
		}()
	}
	wg.Wait()

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body(t, sresp), &stats); err != nil {
		t.Fatal(err)
	}
	fams := scrape(t, ts.URL)

	if len(stats.Modules) != 1 {
		t.Fatalf("stats has %d modules, want 1", len(stats.Modules))
	}
	ms := stats.Modules[0]
	mod := map[string]string{"module": "fig1"}
	if got := sampleValue(fams, "aliasd_module_mem_bytes", mod); got != float64(ms.MemBytes) {
		t.Errorf("aliasd_module_mem_bytes = %v, /v1/stats says %d", got, ms.MemBytes)
	}
	if ms.Planner == nil {
		t.Fatal("planner section absent on a ready module")
	}
	for family, want := range map[string]int64{
		"aliasd_planner_batches_total":        ms.Planner.Batches,
		"aliasd_planner_planned_values_total": ms.Planner.PlannedValues,
		"aliasd_planner_groups_total":         ms.Planner.Groups,
	} {
		if got := sampleValue(fams, family, mod); got != float64(want) {
			t.Errorf("%s = %v, /v1/stats says %d", family, got, want)
		}
	}
	for path, want := range map[string]int64{
		"sweep":    ms.Planner.SweepNoAlias,
		"index":    ms.Planner.IndexPairs,
		"fallback": ms.Planner.FallbackPairs,
	} {
		lbl := map[string]string{"module": "fig1", "path": path}
		if got := sampleValue(fams, "aliasd_planner_pairs_total", lbl); got != float64(want) {
			t.Errorf("planner pairs path=%s = %v, stats says %d", path, got, want)
		}
	}
	for path, want := range map[string]int64{
		"sweep": ms.Planner.SweepNoAlias,
		"index": ms.Planner.IndexNoAlias,
	} {
		lbl := map[string]string{"module": "fig1", "path": path}
		if got := sampleValue(fams, "aliasd_planner_noalias_total", lbl); got != float64(want) {
			t.Errorf("planner noalias path=%s = %v, stats says %d", path, got, want)
		}
	}

	// Pipeline histograms: every successful query observed end-to-end and
	// per stage, every pair counted.
	wantQueries := float64(clients * 3)
	qh, err := telemetry.FindFamily(fams, "aliasd_query_duration_seconds").Histogram()
	if err != nil {
		t.Fatal(err)
	}
	if float64(qh.Count) != wantQueries {
		t.Errorf("query histogram count = %d, want %v", qh.Count, wantQueries)
	}
	for _, stage := range []string{"decode", "validate", "shard", "plan", "evaluate", "aggregate", "encode"} {
		f := telemetry.FindFamily(fams, "aliasd_query_stage_duration_seconds")
		got := 0.0
		for _, smp := range f.Samples {
			if smp.Name == f.Name+"_count" && smp.Labels["stage"] == stage {
				got = smp.Value
			}
		}
		if got != wantQueries {
			t.Errorf("stage %s observed %v times, want %v", stage, got, wantQueries)
		}
	}
	if got := sampleValue(fams, "aliasd_query_pairs_total", nil); got != wantQueries*float64(len(pairs)) {
		t.Errorf("pairs_total = %v, want %v", got, wantQueries*float64(len(pairs)))
	}
	if got := sampleValue(fams, "aliasd_http_requests_total",
		map[string]string{"route": "/v1/query", "code": "200"}); got != wantQueries {
		t.Errorf("http_requests /v1/query 200 = %v, want %v", got, wantQueries)
	}

	// The budget/backpressure families reconcile in the disabled state too:
	// zeros on both endpoints, live inflight/drain gauges either way. (The
	// enabled-state reconcile is pinned by TestBudgetHardArcShedEvictRecover.)
	if stats.Budget.Enabled {
		t.Error("budget reports enabled without a MemBudget")
	}
	assertBudgetFamiliesReconcile(t, fams, stats.Budget)
}

// TestTraceEcho checks the ?trace=1 contract: the response carries the
// request ID from the X-Request-ID header (client-supplied here) and spans
// for the decode→aggregate stages; without the flag the field is absent.
func TestTraceEcho(t *testing.T) {
	src := fig1Source(t)
	s, ts := startServer(t, Config{})
	defer s.Close()
	resp := postModule(t, ts, "fig1", "minic", src)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("module upload: %d %s", resp.StatusCode, body(t, resp))
	}
	h, _ := s.Registry().Get("fig1")
	pairs := namedPairs(h.Mod)[:1]
	h.Release()
	reqBody, _ := json.Marshal(QueryRequest{Module: "fig1", Pairs: pairs})

	req, _ := http.NewRequest("POST", ts.URL+"/v1/query?trace=1", bytes.NewReader(reqBody))
	req.Header.Set("X-Request-ID", "trace-me-42")
	qr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := qr.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("X-Request-ID echoed %q, want the client's ID", got)
	}
	var out QueryResponse
	if err := json.Unmarshal(body(t, qr), &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("?trace=1 response has no trace section")
	}
	if out.Trace.RequestID != "trace-me-42" {
		t.Errorf("trace request_id = %q", out.Trace.RequestID)
	}
	seen := map[string]bool{}
	for _, sp := range out.Trace.Spans {
		seen[sp.Stage] = true
		if sp.DurationUS < 0 {
			t.Errorf("stage %s has negative duration", sp.Stage)
		}
	}
	for _, stage := range []string{"decode", "validate", "shard", "plan", "evaluate", "aggregate"} {
		if !seen[stage] {
			t.Errorf("trace echo missing stage %q (have %v)", stage, out.Trace.Spans)
		}
	}

	// Untraced request: field absent, so default responses stay
	// byte-identical to earlier releases.
	qr2, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	if b := body(t, qr2); bytes.Contains(b, []byte(`"trace"`)) {
		t.Errorf("untraced response leaked a trace field: %s", b)
	}
}

// TestReadyz drives the readiness probe white-box: a staged build flips it
// to 503/building, finishing the build flips it back to 200/ready.
func TestReadyz(t *testing.T) {
	s, ts := startServer(t, Config{})
	defer s.Close()

	get := func() (int, ReadyResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var rr ReadyResponse
		if err := json.Unmarshal(body(t, resp), &rr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rr
	}

	if code, rr := get(); code != http.StatusOK || rr.Status != "ready" {
		t.Fatalf("idle service: %d %+v, want 200 ready", code, rr)
	}

	h := NewPending("slow", "ir")
	if err := s.Registry().Reserve(h); err != nil {
		t.Fatal(err)
	}
	if code, rr := get(); code != http.StatusServiceUnavailable || rr.Status != "building" || rr.Building != 1 {
		t.Fatalf("mid-build: %d %+v, want 503 building", code, rr)
	}

	s.Registry().Finish(h, fmt.Errorf("synthetic failure"))
	if code, rr := get(); code != http.StatusOK || rr.Status != "ready" {
		t.Fatalf("after build settles: %d %+v, want 200 ready (failed builds are not in-flight)", code, rr)
	}
}

// TestInternerGaugeDropsAcrossDelete pins the per-module interner down: the
// memory-governance item the ROADMAP carried since the handle-lifecycle PR.
// Each build mints its symbolic expressions into a module-owned interner,
// so aliasd_interner_claimed_exprs must rise with an upload and FALL back
// when the module is deleted — the expressions die with the handle instead
// of accreting in a process-wide table. Churn (upload → delete → upload)
// must therefore plateau instead of growing linearly, which is what the
// predecessor of this test (TestInternerGaugeFlatAcrossDelete) documented
// as a leak.
func TestInternerGaugeDropsAcrossDelete(t *testing.T) {
	src := fig1Source(t)
	s, ts := startServer(t, Config{})
	defer s.Close()

	claimed := func() float64 {
		return sampleValue(scrape(t, ts.URL), "aliasd_interner_claimed_exprs", nil)
	}
	deleteModule := func(name string) {
		t.Helper()
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/modules/"+name, nil)
		dr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body(t, dr)
		if dr.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE %s: %d", name, dr.StatusCode)
		}
	}

	if idle := claimed(); idle != 0 {
		t.Fatalf("idle service claims %v interned exprs, want 0", idle)
	}

	var perUpload float64
	for i := 0; i < 3; i++ {
		resp := postModule(t, ts, "fig1", "minic", src)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("round %d upload: %d %s", i, resp.StatusCode, body(t, resp))
		}
		up := claimed()
		if up <= 0 {
			t.Fatalf("round %d: claimed-exprs gauge is %v after upload, want > 0", i, up)
		}
		if i == 0 {
			perUpload = up
		} else if up != perUpload {
			t.Errorf("round %d: claimed %v, want the same %v every round (same module, fresh interner)", i, up, perUpload)
		}
		deleteModule("fig1")
		if down := claimed(); down != 0 {
			t.Errorf("round %d: claimed-exprs gauge is %v after delete, want 0 (module interner must be reclaimed)", i, down)
		}
	}

	// Two live modules claim independently; deleting one releases exactly
	// its share.
	for _, name := range []string{"churn-a", "churn-b"} {
		resp := postModule(t, ts, name, "minic", src)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: %d %s", name, resp.StatusCode, body(t, resp))
		}
	}
	both := claimed()
	if both != 2*perUpload {
		t.Errorf("two live modules claim %v, want %v (independent interners)", both, 2*perUpload)
	}
	deleteModule("churn-a")
	if one := claimed(); one != perUpload {
		t.Errorf("after deleting one of two: claimed %v, want %v", one, perUpload)
	}
	deleteModule("churn-b")
	if zero := claimed(); zero != 0 {
		t.Errorf("after deleting all modules: claimed %v, want 0", zero)
	}
}

// TestMetricsLint runs the full live exposition — every registered family,
// vec children and collectors included — through the in-repo promtool
// stand-in. scrape() lints internally; this test exists so a lint
// regression fails with its own name even if reconciliation also breaks.
func TestMetricsLint(t *testing.T) {
	src := fig1Source(t)
	s, ts := startServer(t, Config{})
	defer s.Close()
	resp := postModule(t, ts, "fig1", "minic", src)
	body(t, resp)
	fams := scrape(t, ts.URL)
	for _, name := range []string{
		"aliasd_http_requests_total",
		"aliasd_query_duration_seconds",
		"aliasd_build_queue_depth",
		"aliasd_modules",
		"aliasd_uptime_seconds",
		"aliasd_interner_claimed_exprs",
	} {
		if telemetry.FindFamily(fams, name) == nil {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
}
