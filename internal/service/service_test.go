package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alias"
	"repro/internal/frontend/minic"
	"repro/internal/ir"
)

func fig1Source(t testing.TB) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/fig1.mc")
	if err != nil {
		t.Fatalf("reading fig1.mc: %v", err)
	}
	return string(src)
}

func startServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postModule(t *testing.T, ts *httptest.Server, name, format, src string) *http.Response {
	t.Helper()
	resp, err := http.Post(
		fmt.Sprintf("%s/v1/modules?name=%s&format=%s", ts.URL, name, format),
		"text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatalf("POST /v1/modules: %v", err)
	}
	return resp
}

func body(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return b
}

// namedPairs maps a module's paper-style query enumeration to the textual
// pair form the service accepts.
func namedPairs(m *ir.Module) []Pair {
	qs := alias.Queries(m)
	out := make([]Pair, len(qs))
	for i, q := range qs {
		out[i] = Pair{Func: q.P.Func.Name, A: q.P.Name, B: q.Q.Name}
	}
	return out
}

// TestBatchedResponseByteIdenticalToDirectManager is the legacy path's
// golden test: with the planner disabled, for every pair of the Fig. 1
// module the /v1/query response body must be byte-for-byte what encoding
// the verdicts of a directly constructed alias.Manager produces.
func TestBatchedResponseByteIdenticalToDirectManager(t *testing.T) {
	src := fig1Source(t)

	// Direct path: compile + analyze in-process, no service involved.
	direct, err := minic.Compile("fig1", src)
	if err != nil {
		t.Fatalf("compiling fig1: %v", err)
	}
	snap := NewChain(direct).Snapshot()
	pairs := namedPairs(direct)
	if len(pairs) == 0 {
		t.Fatal("fig1 yields no pair queries")
	}
	want := QueryResponse{Module: "fig1"}
	for _, pr := range pairs {
		f := direct.Func(pr.Func)
		var p, q *ir.Value
		for _, v := range f.Values() {
			if v.Name == pr.A {
				p = v
			}
			if v.Name == pr.B {
				q = v
			}
		}
		res := encodeVerdict(snap, snap.Evaluate(p, q))
		want.Results = append(want.Results, res)
		if res.Result == "no-alias" {
			want.NoAlias++
		}
	}
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal expected: %v", err)
	}
	wantBytes = append(wantBytes, '\n')

	// Service path: upload the same source, query the same pairs. The
	// planner is disabled so every pair walks the chain — the byte-golden
	// contract covers the fallback path the planner defers to.
	_, ts := startServer(t, Config{Parallel: 4, DisablePlanner: true})
	resp := postModule(t, ts, "fig1", "minic", src)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("module upload: %d %s", resp.StatusCode, body(t, resp))
	}
	body(t, resp)

	reqBody, _ := json.Marshal(QueryRequest{Module: "fig1", Pairs: pairs})
	qresp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatalf("POST /v1/query: %v", err)
	}
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", qresp.StatusCode, body(t, qresp))
	}
	got := body(t, qresp)
	if !bytes.Equal(got, wantBytes) {
		t.Fatalf("service response differs from direct manager encoding\n got: %s\nwant: %s", got, wantBytes)
	}
	if want.NoAlias == 0 {
		t.Fatal("fig1 produced no no-alias answers; golden test is vacuous")
	}
}

// TestPlannerResponseMatchesManagerResults is the planner path's
// differential golden: with the planner on (the default), every pair's
// Result and the aggregate no-alias count must equal the legacy chain's.
// Attribution on sweep-answered pairs is credited to rbaa (whose range
// digests justify the partition) with a genuine Fig. 14 reason — the
// documented contract — so Resolved/Provers are checked for coherence, not
// byte equality.
func TestPlannerResponseMatchesManagerResults(t *testing.T) {
	src := fig1Source(t)
	direct, err := minic.Compile("fig1", src)
	if err != nil {
		t.Fatalf("compiling fig1: %v", err)
	}
	snap := NewChain(direct).Snapshot()
	pairs := namedPairs(direct)

	s, ts := startServer(t, Config{Parallel: 4})
	resp := postModule(t, ts, "fig1", "minic", src)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("module upload: %d %s", resp.StatusCode, body(t, resp))
	}
	body(t, resp)
	reqBody, _ := json.Marshal(QueryRequest{Module: "fig1", Pairs: pairs})
	qresp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatalf("POST /v1/query: %v", err)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body(t, qresp), &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != len(pairs) {
		t.Fatalf("%d results for %d pairs", len(qr.Results), len(pairs))
	}
	wantNoAlias := 0
	for i, pr := range pairs {
		f := direct.Func(pr.Func)
		var p, q *ir.Value
		for _, v := range f.Values() {
			if v.Name == pr.A {
				p = v
			}
			if v.Name == pr.B {
				q = v
			}
		}
		want := snap.Evaluate(p, q)
		if qr.Results[i].Result != want.Result.String() {
			t.Fatalf("pair %d (%s,%s): planner result %q, manager %q",
				i, pr.A, pr.B, qr.Results[i].Result, want.Result)
		}
		if want.Result == alias.NoAlias {
			wantNoAlias++
			if qr.Results[i].Resolved == "" || len(qr.Results[i].Provers) == 0 {
				t.Fatalf("pair %d: no-alias answer lacks attribution: %+v", i, qr.Results[i])
			}
		}
	}
	if qr.NoAlias != wantNoAlias || wantNoAlias == 0 {
		t.Fatalf("noalias = %d, want %d (> 0)", qr.NoAlias, wantNoAlias)
	}

	// The planner actually planned: counters are visible and reconcile.
	h, ok := s.Registry().Get("fig1")
	if !ok {
		t.Fatal("module vanished")
	}
	defer h.Release()
	if h.Planner == nil {
		t.Fatal("default config built no planner")
	}
	st := h.Planner.Stats()
	if st.Pairs != int64(len(pairs)) {
		t.Errorf("planner pairs = %d, want %d", st.Pairs, len(pairs))
	}
	if st.SweepNoAlias+st.IndexPairs+st.FallbackPairs != st.Pairs {
		t.Errorf("planner tally does not reconcile: %+v", st)
	}
	if st.Groups == 0 {
		t.Error("sweep formed no groups on fig1")
	}
}

// TestBatchOrderIndependence shuffles a batch and checks each result still
// lands at its pair's index.
func TestBatchOrderIndependence(t *testing.T) {
	src := fig1Source(t)
	m, err := minic.Compile("fig1", src)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Parallel: 4})
	h, err := BuildHandle("fig1", "minic", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	pairs := namedPairs(m)
	base, err := s.RunBatch(context.Background(), h, pairs)
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(1)).Perm(len(pairs))
	shuffled := make([]Pair, len(pairs))
	for i, j := range perm {
		shuffled[i] = pairs[j]
	}
	got, err := s.RunBatch(context.Background(), h, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range perm {
		if fmt.Sprint(got[i]) != fmt.Sprint(base[j]) {
			t.Fatalf("shuffled result %d = %+v, want %+v", i, got[i], base[j])
		}
	}
}

// TestStatsCountersAfterConcurrentBatches hammers one module from many
// client goroutines and checks the /v1/stats totals reconcile: every issued
// query is counted, computed+hits = queries, computed = distinct pairs.
// Planner disabled: this test pins the Manager counter plumbing the planner
// falls back to (the planner-on accounting is covered by
// TestStatsPlannerCountersReconcile).
func TestStatsCountersAfterConcurrentBatches(t *testing.T) {
	src := fig1Source(t)
	s, ts := startServer(t, Config{Parallel: 2, DisablePlanner: true})
	resp := postModule(t, ts, "fig1", "minic", src)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body(t, resp))
	}
	body(t, resp)

	h, _ := s.Registry().Get("fig1")
	defer h.Release()
	pairs := namedPairs(h.Mod)
	const clients = 8
	const rounds = 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				reqBody, _ := json.Marshal(QueryRequest{Module: "fig1", Pairs: pairs})
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
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
	if len(stats.Modules) != 1 {
		t.Fatalf("stats has %d modules, want 1", len(stats.Modules))
	}
	ms := stats.Modules[0]
	wantQueries := int64(clients * rounds * len(pairs))
	if ms.Queries != wantQueries {
		t.Errorf("queries = %d, want %d", ms.Queries, wantQueries)
	}
	if ms.Computed != int64(len(pairs)) {
		t.Errorf("computed = %d, want %d distinct pairs", ms.Computed, len(pairs))
	}
	if ms.CacheHits+ms.Computed != ms.Queries {
		t.Errorf("cache_hits %d + computed %d != queries %d", ms.CacheHits, ms.Computed, ms.Queries)
	}
	if ms.CacheHitRate <= 0 {
		t.Errorf("cache_hit_rate = %v, want > 0 after replays", ms.CacheHitRate)
	}
	if ms.NoAlias == 0 {
		t.Error("noalias = 0, want > 0 on fig1")
	}
	if len(ms.Members) != 4 {
		t.Fatalf("stats lists %d members, want 4 (scev, basic, rbaa, andersen)", len(ms.Members))
	}
	if ms.Members[2].Name != "rbaa" || len(ms.Members[2].Details) == 0 {
		t.Errorf("rbaa member stats missing attribution details: %+v", ms.Members[2])
	}
}

// TestStatsPlannerCountersReconcile drives concurrent batches through the
// planner and checks the /v1/stats planner section: every issued pair is
// tallied exactly once across the three paths, the fallback share equals
// the Manager's query counter, and the per-path no-alias counts sum to the
// responses' aggregate.
func TestStatsPlannerCountersReconcile(t *testing.T) {
	src := fig1Source(t)
	_, ts := startServer(t, Config{Parallel: 2})
	resp := postModule(t, ts, "fig1", "minic", src)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body(t, resp))
	}
	body(t, resp)

	m, err := minic.Compile("fig1", src)
	if err != nil {
		t.Fatal(err)
	}
	pairs := namedPairs(m)
	const clients, rounds = 6, 3
	var wg sync.WaitGroup
	var noAlias atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				reqBody, _ := json.Marshal(QueryRequest{Module: "fig1", Pairs: pairs})
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				var qr QueryResponse
				if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
					t.Errorf("decode: %v", err)
				}
				resp.Body.Close()
				noAlias.Add(int64(qr.NoAlias))
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
	ms := stats.Modules[0]
	if ms.Planner == nil {
		t.Fatal("stats carry no planner section despite the default config")
	}
	pc := ms.Planner
	wantPairs := int64(clients * rounds * len(pairs))
	if pc.Pairs != wantPairs {
		t.Errorf("planner pairs = %d, want %d", pc.Pairs, wantPairs)
	}
	if pc.SweepNoAlias+pc.IndexPairs+pc.FallbackPairs != pc.Pairs {
		t.Errorf("planner paths do not sum to pairs: %+v", pc)
	}
	if pc.FallbackPairs != ms.Queries {
		t.Errorf("fallback pairs %d != manager queries %d", pc.FallbackPairs, ms.Queries)
	}
	if got := pc.SweepNoAlias + pc.IndexNoAlias + pc.FallbackNoAlias; got != noAlias.Load() {
		t.Errorf("stats no-alias %d != responses' aggregate %d", got, noAlias.Load())
	}
	if pc.Groups == 0 || pc.PlannedValues == 0 || pc.Batches == 0 {
		t.Errorf("sweep counters empty: %+v", pc)
	}
	if pc.SweepNoAlias == 0 {
		t.Error("no pairs were sweep-short-circuited on fig1")
	}
	if ms.MemBytes == 0 {
		t.Error("memory accounting lost the index/interner contribution")
	}
}

// TestModuleLifecycleAndErrors covers the registry endpoints and the error
// surface a hostile or clumsy client sees.
func TestModuleLifecycleAndErrors(t *testing.T) {
	src := fig1Source(t)
	_, ts := startServer(t, Config{MaxBatch: 8, MaxSourceBytes: 1 << 20, MaxModules: 2})

	// healthz before anything.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.Unmarshal(body(t, hresp), &health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz = %+v, err %v", health, err)
	}

	// Upload, duplicate, list, get, delete.
	if resp := postModule(t, ts, "fig1", "minic", src); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body(t, resp))
	} else {
		body(t, resp)
	}
	if resp := postModule(t, ts, "fig1", "minic", src); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate upload: %d, want 409", resp.StatusCode)
	} else {
		body(t, resp)
	}
	lresp, _ := http.Get(ts.URL + "/v1/modules")
	var infos []ModuleInfo
	if err := json.Unmarshal(body(t, lresp), &infos); err != nil || len(infos) != 1 || infos[0].Name != "fig1" {
		t.Fatalf("list = %+v, err %v", infos, err)
	}
	if infos[0].PairQueries == 0 || infos[0].Instrs == 0 {
		t.Fatalf("module info missing stats: %+v", infos[0])
	}

	// Malformed source must be a structured 400, not a panic.
	if resp := postModule(t, ts, "broken", "ir", "module m\nfunc f() void {\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed upload: %d, want 400", resp.StatusCode)
	} else if b := body(t, resp); !bytes.Contains(b, []byte("error")) {
		t.Fatalf("malformed upload body %s lacks error field", b)
	}
	if resp := postModule(t, ts, "weird", "wasm", "x"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: %d, want 400", resp.StatusCode)
	} else {
		body(t, resp)
	}

	post := func(reqBody []byte) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Unknown module.
	b, _ := json.Marshal(QueryRequest{Module: "ghost", Pairs: []Pair{{Func: "f", A: "a", B: "b"}}})
	if resp := post(b); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown module: %d, want 404", resp.StatusCode)
	} else {
		body(t, resp)
	}
	// Unknown value.
	b, _ = json.Marshal(QueryRequest{Module: "fig1", Pairs: []Pair{{Func: "prepare", A: "nope", B: "nada"}}})
	if resp := post(b); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown value: %d, want 400", resp.StatusCode)
	} else {
		body(t, resp)
	}
	// Oversized batch (MaxBatch = 8 here).
	big := QueryRequest{Module: "fig1"}
	for i := 0; i < 9; i++ {
		big.Pairs = append(big.Pairs, Pair{Func: "prepare", A: "x", B: "y"})
	}
	b, _ = json.Marshal(big)
	if resp := post(b); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d, want 400", resp.StatusCode)
	} else {
		body(t, resp)
	}
	// Empty batch.
	b, _ = json.Marshal(QueryRequest{Module: "fig1"})
	if resp := post(b); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp.StatusCode)
	} else {
		body(t, resp)
	}

	// Delete and 404 afterwards.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/modules/fig1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil || dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %v %d", err, dresp.StatusCode)
	}
	gresp, _ := http.Get(ts.URL + "/v1/modules/fig1")
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: %d, want 404", gresp.StatusCode)
	}
	body(t, gresp)
}

// TestSourceSizeLimit checks the upload cap is enforced with a clean error.
func TestSourceSizeLimit(t *testing.T) {
	_, ts := startServer(t, Config{MaxSourceBytes: 64})
	resp := postModule(t, ts, "big", "ir", strings.Repeat("# padding\n", 100))
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized source: %d, want 400/413", resp.StatusCode)
	}
	body(t, resp)
}

// TestRegistryBound checks MaxModules is enforced when eviction is off.
func TestRegistryBound(t *testing.T) {
	reg := NewRegistry(1, false)
	h1, err := BuildHandle("a", "ir", "module a\nfunc f() void {\nentry:\n  ret\n}\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := BuildHandle("b", "ir", "module b\nfunc f() void {\nentry:\n  ret\n}\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(h1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(h2); err == nil {
		t.Fatal("registry accepted a module past its bound")
	}
	if !reg.Remove("a") {
		t.Fatal("remove failed")
	}
	if err := reg.Add(h2); err != nil {
		t.Fatalf("add after remove: %v", err)
	}
}
