package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/frontend/minic"
	"repro/internal/ir"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// serveQuery sends one POST /v1/query body straight to the handler.
func serveQuery(s *Service, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// uploadModule registers one module through the handler.
func uploadModule(t testing.TB, s *Service, name, format, src string) {
	t.Helper()
	rec := httptest.NewRecorder()
	target := fmt.Sprintf("/v1/modules?name=%s&format=%s", name, format)
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(src)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("uploading %s: %d %s", name, rec.Code, rec.Body.Bytes())
	}
}

// errorBody is writeError's framing of msg.
func errorBody(msg string) []byte {
	b, _ := json.Marshal(errorResponse{Error: msg})
	return append(b, '\n')
}

// referenceQuery answers a /v1/query body the way the handler did before
// it had its own codec: encoding/json decodes the body, RunBatch evaluates
// it, and json.Marshal renders the response. The one intended difference
// is kept: a body past MaxBatchBytes gets the 413 however it starts.
func referenceQuery(s *Service, body []byte) (int, []byte) {
	if limit := s.cfg.MaxBatchBytes; int64(len(body)) > limit {
		return http.StatusRequestEntityTooLarge,
			errorBody(fmt.Sprintf("request body exceeds the %d-byte limit", limit))
	}
	var req QueryRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return http.StatusBadRequest, errorBody(fmt.Sprintf("decoding request: %v", err))
	}
	h, ok := s.Registry().Acquire(req.Module)
	if !ok {
		return http.StatusNotFound, errorBody(fmt.Sprintf("module %q not registered", req.Module))
	}
	defer h.Release()
	results, err := s.RunBatch(context.Background(), h, req.Pairs)
	if err != nil {
		return http.StatusBadRequest, errorBody(err.Error())
	}
	resp := QueryResponse{Module: req.Module, Results: results}
	for _, r := range results {
		if r.Result == "no-alias" {
			resp.NoAlias++
		}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		panic(err)
	}
	return http.StatusOK, append(b, '\n')
}

// queryBody renders a fast-shape request body.
func queryBody(module string, pairs []Pair) []byte {
	b, _ := json.Marshal(QueryRequest{Module: module, Pairs: pairs})
	return b
}

// TestQueryResponseByteGolden pins the encoder to encoding/json: for the
// Fig. 1 module and every Fig. 13 program, the handler's response to a
// batch of every pair is byte for byte json.Marshal of a QueryResponse
// holding RunBatch's results, plus the newline writeJSON frames every body
// with.
func TestQueryResponseByteGolden(t *testing.T) {
	type module struct {
		name, format, src string
		m                 *ir.Module
	}
	fig1, err := minic.Compile("fig1", fig1Source(t))
	if err != nil {
		t.Fatal(err)
	}
	mods := []module{{"fig1", "minic", fig1Source(t), fig1}}
	for _, c := range benchgen.Fig13Configs() {
		m := benchgen.Generate(c)
		mods = append(mods, module{c.Name, "ir", m.String(), m})
	}
	s := New(Config{Parallel: 4})
	defer s.Close()
	noAlias := 0
	for _, mod := range mods {
		uploadModule(t, s, mod.name, mod.format, mod.src)
		pairs := namedPairs(mod.m)
		if len(pairs) > s.cfg.MaxBatch {
			t.Fatalf("%s: %d pairs exceed one batch", mod.name, len(pairs))
		}
		h, _ := s.Registry().Get(mod.name)
		results, err := s.RunBatch(context.Background(), h, pairs)
		h.Release()
		if err != nil {
			t.Fatalf("%s: RunBatch: %v", mod.name, err)
		}
		want := QueryResponse{Module: mod.name, Results: results}
		for _, r := range results {
			if r.Result == "no-alias" {
				want.NoAlias++
			}
		}
		wantBytes, _ := json.Marshal(want)
		wantBytes = append(wantBytes, '\n')
		code, got := serveQuery(s, queryBody(mod.name, pairs))
		if code != http.StatusOK || !bytes.Equal(got, wantBytes) {
			t.Fatalf("%s: handler answered %d\n got: %.300s\nwant: %.300s",
				mod.name, code, got, wantBytes)
		}
		noAlias += want.NoAlias
	}
	if noAlias == 0 {
		t.Fatal("no no-alias answers; the golden is vacuous")
	}
}

// TestScanAcceptsOnlyTheFastShape pins the scanner's contract: the shape
// the benchmark and aliasload send is scanned, and every input whose
// encoding/json reading could differ from a byte-for-byte one is left to
// encoding/json.
func TestScanAcceptsOnlyTheFastShape(t *testing.T) {
	const pair = `{"func":"prepare","a":"p","b":"m"}`
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"module":"fig1","pairs":[` + pair + `]}`, true},
		{" \t\r\n{ \"pairs\" : [ { \"b\" : \"m\" , \"a\" : \"p\" , \"func\" : \"prepare\" } ] , \"module\" : \"fig1\" } \n", true},
		{`{"module":"fig1","pairs":[]}`, true},
		{`{"module":"a<b>&c","pairs":[{"func":"","a":" ","b":"~"}]}`, true},
		{`{"module":"fig1","pairs":[{"func":"prep\u0061re","a":"p","b":"m"}]}`, false},
		{`{"module":"fig1","pairs":[{"func":"prepare","a":"p","b":"mé"}]}`, false},
		{"{\"module\":\"fig1\",\"pairs\":[{\"func\":\"prepare\",\"a\":\"p\xff\",\"b\":\"m\"}]}", false},
		{"{\"module\":\"fig1\",\"pairs\":[{\"func\":\"prepare\",\"a\":\"p\x7f\",\"b\":\"m\"}]}", false},
		{`{"Module":"fig1","pairs":[` + pair + `]}`, false},
		{`{"module":"fig1","pairs":[{"FUNC":"prepare","a":"p","b":"m"}]}`, false},
		{`{"module":"fig1","extra":1,"pairs":[` + pair + `]}`, false},
		{`{"module":"fig1","pairs":[{"func":"prepare","a":"p","b":"m","c":"x"}]}`, false},
		{`{"module":"ghost","module":"fig1","pairs":[` + pair + `]}`, false},
		{`{"module":"fig1","pairs":[{"func":"prepare","a":"m","a":"p","b":"m"}]}`, false},
		{`{"module":"fig1","pairs":null}`, false},
		{`{"module":null,"pairs":[` + pair + `]}`, false},
		{`{"module":"fig1","pairs":[{"func":"prepare","a":1,"b":"m"}]}`, false},
		{`{"module":"fig1","pairs":[{"func":"prepare","a":"p"}]}`, false},
		{`{"module":"fig1"}`, false},
		{`{"module":"fig1","pairs":[` + pair + `]} trailing`, false},
		{`{"module":"fig1","pairs":[` + pair + `]}{}`, false},
		{`{"module":"fig1","pairs":[` + pair + `,]}`, false},
		{``, false},
	} {
		var b queryBuf
		b.body.WriteString(tc.body)
		if _, _, fast := b.scan(math.MaxInt); fast != tc.fast {
			t.Errorf("scan(%q) fast = %v, want %v", tc.body, fast, tc.fast)
		}
	}
}

// TestOversizedBodyAlwaysGets413 pins the documented change of reading the
// body in full: a complete request followed by padding past MaxBatchBytes
// is refused, where a streaming decoder could stop before the limit.
func TestOversizedBodyAlwaysGets413(t *testing.T) {
	s := New(Config{MaxBatchBytes: 128})
	defer s.Close()
	uploadModule(t, s, "fig1", "minic", fig1Source(t))
	body := append(queryBody("fig1", []Pair{{Func: "prepare", A: "p", B: "m"}}), bytes.Repeat([]byte(" "), 128)...)
	code, got := serveQuery(s, body)
	if code != http.StatusRequestEntityTooLarge || !bytes.Equal(got, errorBody("request body exceeds the 128-byte limit")) {
		t.Fatalf("padded body: %d %s, want the 413", code, got)
	}
}

// TestQueryHandlerAllocations pins the codec's cost model: a one-function
// batch costs a fixed number of allocations whatever its size, since the
// body, the names, the verdicts and the response all live in pooled
// buffers.
func TestQueryHandlerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s := New(Config{})
	defer s.Close()
	uploadModule(t, s, "fig1", "minic", fig1Source(t))
	h, _ := s.Registry().Get("fig1")
	pairs := namedPairs(h.Mod)
	h.Release()
	allocs := func(n int) float64 {
		var batch []Pair
		for len(batch) < n {
			batch = append(batch, pairs...)
		}
		body := queryBody("fig1", batch[:n])
		return testing.AllocsPerRun(20, func() {
			if code, got := serveQuery(s, body); code != http.StatusOK {
				t.Fatalf("query: %d %s", code, got)
			}
		})
	}
	small, large := allocs(64), allocs(4096)
	if large > small+16 {
		t.Errorf("allocations grow with the batch: %v at 64 pairs, %v at 4096", small, large)
	}
}

// FuzzQueryBody diffs the codec against encoding/json on arbitrary bodies:
// whatever the scanner accepts, encoding/json decodes to the same module
// and pairs; and against the Fig. 1 module the handler's status and body
// equal referenceQuery's. MaxBatch is small so the size check is reached
// too.
func FuzzQueryBody(f *testing.F) {
	s := New(Config{MaxBatch: 4, MaxBatchBytes: 1 << 12})
	defer s.Close()
	uploadModule(f, s, "fig1", "minic", fig1Source(f))
	for _, seed := range []string{
		`{"module":"fig1","pairs":[{"func":"prepare","a":"p","b":"m"},{"func":"prepare","a":"m","b":"i"}]}`,
		`{"module":"fig1","pairs":[{"func":"main","a":"b","b":"s"},{"func":"prepare","a":"e","b":"f"}]}`,
		` { "pairs" : [ { "b" : "m" , "a" : "p" , "func" : "prepare" } ] , "module" : "fig1" } `,
		`{"module":"fig1","pairs":[]}`,
		`{"module":"ghost","pairs":[{"func":"prepare","a":"p","b":"m"}]}`,
		`{"module":"fig1","pairs":[{"func":"nope","a":"p","b":"m"}]}`,
		`{"module":"fig1","pairs":[{"func":"prepare","a":"p","b":"m"},{"func":"prepare","a":"nope","b":"nada"}]}`,
		`{"module":"fig1","pairs":[{"func":"prepare","a":"p","b":"n"}]}`,
		`{"module":"fig1","pairs":[{"func":"prepare","a":"x","b":"y"},{"func":"prepare","a":"x","b":"y"},` +
			`{"func":"prepare","a":"x","b":"y"},{"func":"prepare","a":"x","b":"y"},{"func":"prepare","a":"x","b":"y"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var b queryBuf
		b.body.Write(body)
		if module, n, fast := b.scan(math.MaxInt); fast {
			var req QueryRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("scanner accepted a body encoding/json rejects: %v", err)
			}
			if string(module) != req.Module || n != len(req.Pairs) || len(b.raw) != n {
				t.Fatalf("scanned module %q with %d pairs, encoding/json %q with %d",
					module, n, req.Module, len(req.Pairs))
			}
			for i, p := range req.Pairs {
				if r := b.raw[i]; string(r.fn) != p.Func || string(r.a) != p.A || string(r.b) != p.B {
					t.Fatalf("pair %d scanned as %q/%q/%q, encoding/json %+v", i, r.fn, r.a, r.b, p)
				}
			}
		}
		code, got := serveQuery(s, body)
		wantCode, want := referenceQuery(s, body)
		if code != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("handler answered %d %q, reference %d %q", code, got, wantCode, want)
		}
	})
}
