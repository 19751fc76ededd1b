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
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alias"
	"repro/internal/benchgen"
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

// TestPlannerResponseMatchesManagerResults is the service's differential
// golden: for Fig. 1 and every Fig. 13 program, a batch of every pair
// answered by the daemon must agree with a separately built Manager chain.
// Every Result must equal the oracle's; pairs the compiled index answered
// must carry the oracle's provers, attribution and detail exactly; pairs
// the sweep answered are credited to rbaa alone with the Fig. 14 reason
// rbaa itself reports — the documented planner contract. After every pair
// has been asked, no module may report a pair that fell outside its index.
func TestPlannerResponseMatchesManagerResults(t *testing.T) {
	type module struct {
		name, format, src string
	}
	mods := []module{{"fig1", "minic", fig1Source(t)}}
	for _, c := range benchgen.Fig13Configs() {
		mods = append(mods, module{c.Name, "ir", benchgen.Generate(c).String()})
	}
	_, ts := startServer(t, Config{Parallel: 4})
	sweepPairs, indexPairs := 0, 0
	for _, mod := range mods {
		resp := postModule(t, ts, mod.name, mod.format, mod.src)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s upload: %d %s", mod.name, resp.StatusCode, body(t, resp))
		}
		body(t, resp)
		// The oracle runs over its own copy of the module, built apart
		// from the service.
		h, err := BuildHandle(mod.name, mod.format, mod.src, 0)
		if err != nil {
			t.Fatalf("%s: %v", mod.name, err)
		}
		direct := h.Mod
		oracle := NewChain(direct, nil)
		pairs := namedPairs(direct)

		reqBody, _ := json.Marshal(QueryRequest{Module: mod.name, Pairs: pairs})
		qresp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatalf("%s: POST /v1/query: %v", mod.name, err)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body(t, qresp), &qr); err != nil {
			t.Fatal(err)
		}
		if len(qr.Results) != len(pairs) {
			t.Fatalf("%s: %d results for %d pairs", mod.name, len(qr.Results), len(pairs))
		}

		// Replay the service's plans on the oracle's copy to learn which
		// pairs the sweep answered: a shard is one function's pairs in
		// request order, and a plan depends only on its set of values.
		ix := h.Planner.Index()
		if ix.Name() != oracle.Name() {
			t.Fatalf("%s: index chain %q, oracle %q", mod.name, ix.Name(), oracle.Name())
		}
		vals := map[string][]*ir.Value{}
		for _, pr := range pairs {
			p, _ := h.Lookup(pr.Func, pr.A)
			q, _ := h.Lookup(pr.Func, pr.B)
			vals[pr.Func] = append(vals[pr.Func], p, q)
		}
		plans := map[string]*alias.Plan{}
		for fn, vs := range vals {
			plans[fn] = alias.NewPlanner(ix).Plan(vs)
		}
		wantNoAlias := 0
		for i, pr := range pairs {
			p, _ := h.Lookup(pr.Func, pr.A)
			q, _ := h.Lookup(pr.Func, pr.B)
			want := encodeVerdict(ix, oracle.Evaluate(p, q))
			got := qr.Results[i]
			if got.Result != want.Result {
				t.Fatalf("%s pair %d (%s,%s): service %q, manager %q", mod.name, i, pr.A, pr.B, got.Result, want.Result)
			}
			if want.Result == "no-alias" {
				wantNoAlias++
			}
			var tally alias.PlanTally
			plans[pr.Func].Evaluate(p, q, &tally)
			if tally.SweepNoAlias == 0 {
				indexPairs++
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s pair %d (%s,%s): index answer %+v, manager %+v", mod.name, i, pr.A, pr.B, got, want)
				}
				continue
			}
			sweepPairs++
			if got.Resolved != "rbaa" || !reflect.DeepEqual(got.Provers, []string{"rbaa"}) ||
				got.Detail != want.Detail || !slices.Contains(want.Provers, "rbaa") {
				t.Fatalf("%s pair %d (%s,%s): sweep answer %+v, manager %+v", mod.name, i, pr.A, pr.B, got, want)
			}
		}
		if qr.NoAlias != wantNoAlias {
			t.Fatalf("%s: noalias = %d, want %d", mod.name, qr.NoAlias, wantNoAlias)
		}
	}
	if sweepPairs == 0 || indexPairs == 0 {
		t.Fatalf("sweep answered %d pairs, index %d: one path went untested", sweepPairs, indexPairs)
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body(t, sresp), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Modules) != len(mods) {
		t.Fatalf("stats lists %d modules, want %d", len(stats.Modules), len(mods))
	}
	for _, ms := range stats.Modules {
		if ms.Planner == nil || ms.Planner.Pairs == 0 || ms.Planner.FallbackPairs != 0 {
			t.Errorf("%s: planner counters %+v, want pairs > 0 and fallback_pairs == 0", ms.Name, ms.Planner)
		}
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

// TestStatsPlannerCountersReconcile drives concurrent batches through the
// planner and checks the /v1/stats planner section: every issued pair is
// tallied exactly once across the three paths, none falls outside the
// index, and the per-path no-alias counts sum to the responses' aggregate.
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
	if pc.FallbackPairs != 0 {
		t.Errorf("fallback pairs = %d, want 0", pc.FallbackPairs)
	}
	if got := pc.SweepNoAlias + pc.IndexNoAlias; got != noAlias.Load() {
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
