// Command aliasload replays the Fig. 13 benchmark corpus against a running
// aliasd as concurrent batched /v1/query requests and reports sustained
// throughput and latency percentiles:
//
//	aliasload -addr 127.0.0.1:8417                      # 2 modules, 20k queries
//	aliasload -addr $ADDR -modules 4 -queries 100000 \
//	          -batch 512 -concurrency 16 -out BENCH_service.json
//
// Modules are generated by internal/benchgen (smallest Fig. 13 programs
// first, so default bursts stay fast), uploaded as textual IR, and their
// paper-style pair enumerations are cycled through round-robin — total
// queries beyond a module's unique pairs replay earlier pairs. The JSON
// report (QPS, p50/p90/p99 latency) is the BENCH_service.json artifact CI
// tracks.
//
// -scenario bigbatch is the batch-planner workload: one generated module
// whose single wide function yields thousands of same-function pointer
// pairs, replayed as full-size (-batch, default 4096) single-function
// batches — the shape the sweep-line planner turns from O(N²) chain walks
// into O(N log N) sweeps plus O(1) group compares. The report adds the
// server's planner counters (groups formed, pairs short-circuited, fallback
// rate).
//
// -scenario churn switches to the lifecycle workload: a cold flood sweeps
// every module's full pair enumeration, then a register/query/delete mix
// (including async ?async=1 uploads polled to completion) churns the
// module registry itself.
//
// -scenario restart is the crash-recovery drill: it spawns its own aliasd
// (-daemon-bin) with a -data-dir store, uploads modules and records their
// verdict bytes, SIGKILLs the daemon while churn uploads are mid-persist,
// restarts it over the same directory, and fails unless every module
// recovers with byte-identical verdicts, a zero-quarantine store, a nonzero
// recovery duration, and /v1/stats figures that reconcile with the
// aliasd_store_* metric families.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alias"
	"repro/internal/benchgen"
	"repro/internal/ir"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8417", "aliasd address (host:port)")
	modules := flag.Int("modules", 2, "how many Fig. 13 benchmark modules to upload (smallest first, max 22)")
	queries := flag.Int("queries", 20000, "total pair queries to issue across all modules (steady scenario)")
	batch := flag.Int("batch", 256, "pairs per /v1/query request")
	concurrency := flag.Int("concurrency", 8, "concurrent client connections")
	scenario := flag.String("scenario", "steady", "workload: steady (round-robin replay), churn (flood + register/evict mix), bigbatch (full-size single-function batches through the planner), soak (upload/query/delete cycles against a budget-constrained daemon) or restart (spawn aliasd with -data-dir, kill -9 mid-churn, restart, assert bit-identical recovery)")
	churnMods := flag.Int("churn-modules", 2, "churn scenario: async register/query/delete cycles")
	cycles := flag.Int("cycles", 400, "soak scenario: upload/query/delete cycles (first fifth is unmeasured warmup)")
	rssMaxRatio := flag.Float64("rss-max-ratio", 1.15, "soak scenario: fail when end RSS exceeds this multiple of the post-warmup RSS")
	attempts := flag.Int("retry-attempts", 5, "attempts per request before a 429/503 shed becomes final")
	out := flag.String("out", "", "write the JSON report to this file (e.g. BENCH_service.json)")
	daemonBin := flag.String("daemon-bin", "", "restart scenario: path to an aliasd binary the drill spawns and kills (required)")
	dataDir := flag.String("data-dir", "", "restart scenario: store directory shared across the kill (empty = fresh temp dir)")
	flag.Parse()

	cfg := loadConfig{
		addr:        *addr,
		modules:     *modules,
		queries:     *queries,
		batch:       *batch,
		concurrency: *concurrency,
		churnMods:   *churnMods,
		cycles:      *cycles,
		rssMaxRatio: *rssMaxRatio,
		attempts:    *attempts,
		out:         *out,
		daemonBin:   *daemonBin,
		dataDir:     *dataDir,
	}
	var err error
	switch *scenario {
	case "steady":
		err = runSteady(cfg)
	case "churn":
		err = runChurn(cfg)
	case "bigbatch":
		err = runBigBatch(cfg)
	case "soak":
		err = runSoak(cfg)
	case "restart":
		err = runRestart(cfg)
	default:
		err = fmt.Errorf("unknown -scenario %q (want steady, churn, bigbatch, soak or restart)", *scenario)
	}
	if err != nil {
		log.Fatalf("aliasload: %v", err)
	}
}

type loadConfig struct {
	addr        string
	modules     int
	queries     int
	batch       int
	concurrency int
	churnMods   int
	cycles      int
	rssMaxRatio float64
	attempts    int
	out         string
	daemonBin   string
	dataDir     string
}

// module is one uploaded benchmark and its replayable pair enumeration.
type module struct {
	name  string
	pairs []service.Pair
}

type latencyMS struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

type report struct {
	Timestamp      string    `json:"timestamp"`
	Scenario       string    `json:"scenario"`
	Addr           string    `json:"addr"`
	Modules        []string  `json:"modules"`
	Queries        int       `json:"queries"`
	Requests       int       `json:"requests"`
	Batch          int       `json:"batch"`
	Concurrency    int       `json:"concurrency"`
	WallMS         float64   `json:"wall_ms"`
	QPS            float64   `json:"qps"`
	RequestsPerSec float64   `json:"requests_per_sec"`
	LatencyMS      latencyMS `json:"latency_ms"`
	NoAlias        int64     `json:"noalias"`

	// Retry is the client-side backpressure ledger: every scenario runs
	// through the retrying client, so shed/retry counts are first-class
	// benchmark outputs.
	Retry retryStats `json:"retry"`

	// Soak-scenario section: cycle accounting, RSS flatness, server-side
	// budget counters.
	Soak *soakReport `json:"soak,omitempty"`

	// Server-side latency, recomputed from the /metrics query-duration
	// histogram delta around the burst (absent when the daemon predates
	// /metrics or the scrape failed). ServerP99Share is server p99 over
	// client-observed p99 — how much of the tail the daemon itself accounts
	// for, the rest being HTTP framing, client decode and queueing.
	ServerLatencyMS *latencyMS `json:"server_latency_ms,omitempty"`
	ServerP99Share  float64    `json:"server_p99_share,omitempty"`

	// Churn-scenario columns: the registry churn the run drove.
	AsyncBuilds  int `json:"async_builds,omitempty"`
	ChurnDeletes int `json:"churn_deletes,omitempty"`

	// Bigbatch-scenario columns: the server's batch-planner counter deltas
	// over the run (zero PlannerGroups means the server planned nothing —
	// the batches never reached it).
	PlannerGroups        int64   `json:"planner_groups,omitempty"`
	PlannerPairs         int64   `json:"planner_pairs,omitempty"`
	PlannerSweepNoAlias  int64   `json:"planner_sweep_noalias,omitempty"`
	PlannerIndexPairs    int64   `json:"planner_index_pairs,omitempty"`
	PlannerIndexNoAlias  int64   `json:"planner_index_noalias,omitempty"`
	PlannerFallbackPairs int64   `json:"planner_fallback_pairs,omitempty"`
	PlannerFallbackRate  float64 `json:"planner_fallback_rate,omitempty"`
}

// request is one prepared /v1/query body. marshal() renders the JSON once,
// in the preparation phase, so the timed firing loop spends no client CPU
// re-encoding identical payloads.
type request struct {
	mod   string
	pairs []service.Pair
	body  []byte
}

// prepareBodies marshals every request body ahead of the timed burst.
func prepareBodies(requests []request) {
	for i := range requests {
		requests[i].body, _ = json.Marshal(service.QueryRequest{
			Module: requests[i].mod, Pairs: requests[i].pairs})
	}
}

// runSteady is the original round-robin replay burst.
func runSteady(cfg loadConfig) error {
	base := "http://" + cfg.addr
	client := &http.Client{Timeout: 120 * time.Second}
	rc := newRetryClient(client, cfg.attempts)
	if err := checkHealth(client, base); err != nil {
		return err
	}
	mods, err := uploadModules(client, base, cfg.modules)
	if err != nil {
		return err
	}
	var modNames []string
	for _, m := range mods {
		modNames = append(modNames, m.name)
	}

	// Assign batches round-robin across modules; each module cycles its
	// pair list with wraparound, so runs longer than the unique-pair count
	// replay pairs.
	var requests []request
	offsets := make([]int, len(mods))
	for issued, mi := 0, 0; issued < cfg.queries; mi = (mi + 1) % len(mods) {
		m := mods[mi]
		n := cfg.batch
		if cfg.queries-issued < n {
			n = cfg.queries - issued
		}
		ps := make([]service.Pair, 0, n)
		for k := 0; k < n; k++ {
			ps = append(ps, m.pairs[(offsets[mi]+k)%len(m.pairs)])
		}
		offsets[mi] = (offsets[mi] + n) % len(m.pairs)
		requests = append(requests, request{mod: m.name, pairs: ps})
		issued += n
	}
	prepareBodies(requests)

	h0 := scrapeQueryHist(client, base)
	start := time.Now()
	latencies, noAlias, err := fireBatches(rc, base, requests, cfg.concurrency)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	h1 := scrapeQueryHist(client, base)

	rep := report{
		Timestamp:      start.UTC().Format(time.RFC3339),
		Scenario:       "steady",
		Addr:           cfg.addr,
		Queries:        cfg.queries,
		Requests:       len(requests),
		Batch:          cfg.batch,
		Concurrency:    cfg.concurrency,
		WallMS:         float64(wall.Microseconds()) / 1000.0,
		QPS:            float64(cfg.queries) / wall.Seconds(),
		RequestsPerSec: float64(len(requests)) / wall.Seconds(),
		LatencyMS:      percentiles(latencies),
		NoAlias:        noAlias,
		Retry:          rc.stats(),
		Modules:        modNames,
	}
	rep.ServerLatencyMS, rep.ServerP99Share = serverSide(h0, h1, rep.LatencyMS.P99)
	return emit(rep, cfg.out)
}

// runBigBatch uploads the wide benchgen.WideBatch module — 1600 pointers in
// one function, ~1.28M unique same-function pairs, the paper-scale regime
// the planner targets — and replays its pair enumeration as full-size
// batches, reporting planner counters.
func runBigBatch(cfg loadConfig) error {
	base := "http://" + cfg.addr
	client := &http.Client{Timeout: 120 * time.Second}
	rc := newRetryClient(client, cfg.attempts)
	if err := checkHealth(client, base); err != nil {
		return err
	}
	m := benchgen.WideBatch("bigbatch", 1600)
	pairs := namedPairs(m)
	if len(pairs) == 0 {
		return fmt.Errorf("bigbatch module has no pair queries")
	}
	url := fmt.Sprintf("%s/v1/modules?name=%s&format=ir", base, m.Name)
	resp, err := client.Post(url, "text/plain", bytes.NewReader([]byte(m.String())))
	if err != nil {
		return fmt.Errorf("uploading %s: %w", m.Name, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("uploading %s: status %d", m.Name, resp.StatusCode)
	}
	modNames := []string{m.Name}
	c0, err := fetchCounters(client, base, modNames)
	if err != nil {
		return err
	}

	// Full-size single-function batches, cycling the enumeration.
	var requests []request
	off := 0
	for issued := 0; issued < cfg.queries; {
		nreq := cfg.batch
		if cfg.queries-issued < nreq {
			nreq = cfg.queries - issued
		}
		ps := make([]service.Pair, 0, nreq)
		for k := 0; k < nreq; k++ {
			ps = append(ps, pairs[(off+k)%len(pairs)])
		}
		off = (off + nreq) % len(pairs)
		requests = append(requests, request{mod: m.Name, pairs: ps})
		issued += nreq
	}
	prepareBodies(requests)

	h0 := scrapeQueryHist(client, base)
	start := time.Now()
	latencies, noAlias, err := fireBatches(rc, base, requests, cfg.concurrency)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	h1 := scrapeQueryHist(client, base)

	rep := report{
		Timestamp:      start.UTC().Format(time.RFC3339),
		Scenario:       "bigbatch",
		Addr:           cfg.addr,
		Modules:        modNames,
		Queries:        cfg.queries,
		Requests:       len(requests),
		Batch:          cfg.batch,
		Concurrency:    cfg.concurrency,
		WallMS:         float64(wall.Microseconds()) / 1000.0,
		QPS:            float64(cfg.queries) / wall.Seconds(),
		RequestsPerSec: float64(len(requests)) / wall.Seconds(),
		LatencyMS:      percentiles(latencies),
		NoAlias:        noAlias,
		Retry:          rc.stats(),
	}
	c1, err := fetchCounters(client, base, modNames)
	if err != nil {
		return err
	}
	rep.PlannerGroups = c1.plannerGroups - c0.plannerGroups
	rep.PlannerPairs = c1.plannerPairs - c0.plannerPairs
	rep.PlannerSweepNoAlias = c1.plannerSweep - c0.plannerSweep
	rep.PlannerIndexPairs = c1.plannerIndex - c0.plannerIndex
	rep.PlannerIndexNoAlias = c1.plannerIndexNo - c0.plannerIndexNo
	rep.PlannerFallbackPairs = c1.plannerFallback - c0.plannerFallback
	if rep.PlannerPairs > 0 {
		rep.PlannerFallbackRate = float64(rep.PlannerFallbackPairs) / float64(rep.PlannerPairs)
	}
	rep.ServerLatencyMS, rep.ServerP99Share = serverSide(h0, h1, rep.LatencyMS.P99)
	return emit(rep, cfg.out)
}

// runChurn is the lifecycle workload: a cold flood, then a
// register/query/delete mix over extra modules.
func runChurn(cfg loadConfig) error {
	base := "http://" + cfg.addr
	client := &http.Client{Timeout: 120 * time.Second}
	rc := newRetryClient(client, cfg.attempts)
	if err := checkHealth(client, base); err != nil {
		return err
	}
	mods, err := uploadModules(client, base, cfg.modules)
	if err != nil {
		return err
	}
	var modNames []string
	for _, m := range mods {
		modNames = append(modNames, m.name)
	}
	start := time.Now()
	var allLatencies []time.Duration
	var noAlias int64
	totalQueries := 0

	// Phase 1 — cold flood: every module's full pair enumeration once.
	var flood []request
	for _, m := range mods {
		for lo := 0; lo < len(m.pairs); lo += cfg.batch {
			hi := lo + cfg.batch
			if hi > len(m.pairs) {
				hi = len(m.pairs)
			}
			flood = append(flood, request{mod: m.name, pairs: m.pairs[lo:hi]})
			totalQueries += hi - lo
		}
	}
	lat, na, err := fireBatches(rc, base, flood, cfg.concurrency)
	if err != nil {
		return fmt.Errorf("flood phase: %w", err)
	}
	allLatencies = append(allLatencies, lat...)
	noAlias += na

	// Phase 2 — registry churn: async-upload fresh modules, poll them
	// ready, query them once, delete them. Exercises 202/status polling,
	// refcounted deletion under load, and (when the registry is small)
	// idle-LRU eviction server-side.
	asyncBuilds, deletes := 0, 0
	churnMod := benchgen.Generate(benchgen.Fig13Configs()[0])
	churnSrc := churnMod.String()
	churnPairs := namedPairs(churnMod)
	if len(churnPairs) > cfg.batch {
		churnPairs = churnPairs[:cfg.batch]
	}
	for i := 0; i < cfg.churnMods; i++ {
		name := fmt.Sprintf("churn%d", i)
		if err := uploadAsync(client, base, name, churnSrc); err != nil {
			return fmt.Errorf("churn module %s: %w", name, err)
		}
		asyncBuilds++
		ps := churnPairs
		lat, na, err = fireBatches(rc, base, []request{{mod: name, pairs: ps}}, 1)
		if err != nil {
			return fmt.Errorf("churn query %s: %w", name, err)
		}
		allLatencies = append(allLatencies, lat...)
		noAlias += na
		totalQueries += len(ps)
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/modules/"+name, nil)
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("deleting %s: %w", name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("deleting %s: status %d", name, resp.StatusCode)
		}
		deletes++
	}
	wall := time.Since(start)

	rep := report{
		Timestamp:      start.UTC().Format(time.RFC3339),
		Scenario:       "churn",
		Addr:           cfg.addr,
		Modules:        modNames,
		Queries:        totalQueries,
		Requests:       len(allLatencies),
		Batch:          cfg.batch,
		Concurrency:    cfg.concurrency,
		WallMS:         float64(wall.Microseconds()) / 1000.0,
		QPS:            float64(totalQueries) / wall.Seconds(),
		RequestsPerSec: float64(len(allLatencies)) / wall.Seconds(),
		LatencyMS:      percentiles(allLatencies),
		NoAlias:        noAlias,
		Retry:          rc.stats(),
		AsyncBuilds:    asyncBuilds,
		ChurnDeletes:   deletes,
	}
	return emit(rep, cfg.out)
}

// emit prints the human summary and writes the JSON artifact.
func emit(rep report, outPath string) error {
	fmt.Printf("aliasload[%s]: %d queries in %d requests over %d modules in %.1f ms\n",
		rep.Scenario, rep.Queries, rep.Requests, len(rep.Modules), rep.WallMS)
	fmt.Printf("  throughput:  %.0f queries/s (%.0f requests/s)\n", rep.QPS, rep.RequestsPerSec)
	fmt.Printf("  latency ms:  p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		rep.LatencyMS.P50, rep.LatencyMS.P90, rep.LatencyMS.P99, rep.LatencyMS.Max)
	fmt.Printf("  no-alias answers: %d\n", rep.NoAlias)
	if rep.ServerLatencyMS != nil {
		fmt.Printf("  server ms:   p50 %.2f  p90 %.2f  p99 %.2f  (%.0f%% of client p99; rest is HTTP+decode)\n",
			rep.ServerLatencyMS.P50, rep.ServerLatencyMS.P90, rep.ServerLatencyMS.P99, rep.ServerP99Share*100)
	}
	if rep.Scenario == "churn" {
		fmt.Printf("  churn:       %d async builds, %d deletes\n", rep.AsyncBuilds, rep.ChurnDeletes)
	}
	if rep.Retry.Sheds > 0 || rep.Retry.Retries > 0 {
		fmt.Printf("  backpressure: %d sheds, %d retries, %d recovered, %d give-ups\n",
			rep.Retry.Sheds, rep.Retry.Retries, rep.Retry.RetrySuccesses, rep.Retry.GiveUps)
	}
	if rep.Soak != nil {
		sk := rep.Soak
		fmt.Printf("  soak:        %d/%d cycles (%d skipped, %d shed queries, %d reuploads, %d unexpected)\n",
			sk.Completed, sk.Cycles, sk.SkippedCycles, sk.ShedQueries, sk.Reuploads, sk.UnexpectedStatuses)
		fmt.Printf("  rss:         %d → %d bytes (%.3fx), budget state %s, %d evictions\n",
			sk.RSSStartBytes, sk.RSSEndBytes, sk.RSSRatio, sk.BudgetState, sk.ServerEvictions)
	}
	if rep.Scenario == "bigbatch" {
		fmt.Printf("  planner:     %d pairs (%d sweep-noalias, %d index, %d fallback, rate %.4f), %d groups\n",
			rep.PlannerPairs, rep.PlannerSweepNoAlias, rep.PlannerIndexPairs,
			rep.PlannerFallbackPairs, rep.PlannerFallbackRate, rep.PlannerGroups)
	}
	if outPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  report:      %s\n", outPath)
	}
	return nil
}

// fireBatches posts the prepared requests from `concurrency` workers and
// returns per-request latencies and the summed no-alias count. Requests go
// through the retrying client, so transient 429/503 sheds back off and
// retry; only a shed that survives the whole retry budget (or any other
// non-200) fails the burst. The first failure wins and stops all workers.
func fireBatches(rc *retryClient, base string, requests []request, concurrency int) ([]time.Duration, int64, error) {
	if concurrency < 1 {
		concurrency = 1
	}
	var (
		next      atomic.Int64
		noAlias   atomic.Int64
		wg        sync.WaitGroup
		latencies = make([]time.Duration, len(requests))
		errMu     sync.Mutex
		firstErr  error
		failed    atomic.Bool
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(requests) || failed.Load() {
					return
				}
				req := requests[i]
				body := req.body
				if body == nil {
					body, _ = json.Marshal(service.QueryRequest{Module: req.mod, Pairs: req.pairs})
				}
				t0 := time.Now()
				resp, err := rc.post(base+"/v1/query", "application/json", body)
				if err != nil {
					fail(fmt.Errorf("query request %d: %w", i, err))
					return
				}
				// Results decode as raw messages: the burst loop validates
				// the count and sums the aggregate without paying per-field
				// parsing for thousands of verdicts per response.
				var qr struct {
					Results []json.RawMessage `json:"results"`
					NoAlias int64             `json:"noalias"`
				}
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				latencies[i] = time.Since(t0)
				if err != nil || resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("query request %d: status %d, decode err %v", i, resp.StatusCode, err))
					return
				}
				if len(qr.Results) != len(req.pairs) {
					fail(fmt.Errorf("query request %d: %d results for %d pairs", i, len(qr.Results), len(req.pairs)))
					return
				}
				noAlias.Add(qr.NoAlias)
			}
		}()
	}
	wg.Wait()
	return latencies, noAlias.Load(), firstErr
}

// checkHealth gates the run on the daemon's readiness, not just liveness:
// /readyz fails while module builds are in flight or the build queue is
// backlogged, so polling it replaces the sleep-and-hope startup scripts
// used to need. A 404 means an older daemon without /readyz — fall back to
// the liveness probe once rather than polling a 404 into a timeout.
func checkHealth(client *http.Client, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(base + "/readyz")
		if err != nil {
			return fmt.Errorf("readyz: %w", err)
		}
		rbody, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return nil
		case http.StatusNotFound:
			resp, err := client.Get(base + "/healthz")
			if err != nil {
				return fmt.Errorf("healthz: %w", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("healthz: status %d", resp.StatusCode)
			}
			return nil
		case http.StatusServiceUnavailable:
			if time.Now().After(deadline) {
				return fmt.Errorf("readyz: still not ready: %s", bytes.TrimSpace(rbody))
			}
			time.Sleep(50 * time.Millisecond)
		default:
			return fmt.Errorf("readyz: status %d", resp.StatusCode)
		}
	}
}

// scrapeQueryHist snapshots the server's end-to-end query-latency histogram
// from /metrics. Returns nil (no error) when the endpoint is absent or
// unparseable — server-side attribution is an enrichment, not a
// requirement, so an old daemon must not fail the load run.
func scrapeQueryHist(client *http.Client, base string) *telemetry.HistogramSnapshot {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil
	}
	fams, err := telemetry.Parse(string(b))
	if err != nil {
		return nil
	}
	f := telemetry.FindFamily(fams, "aliasd_query_duration_seconds")
	if f == nil {
		return nil
	}
	snap, err := f.Histogram()
	if err != nil {
		return nil
	}
	return &snap
}

// serverSide converts the burst's histogram delta into the report's
// server-side latency block: quantiles interpolated within buckets, in ms.
func serverSide(before, after *telemetry.HistogramSnapshot, clientP99 float64) (*latencyMS, float64) {
	if before == nil || after == nil {
		return nil, 0
	}
	delta := after.Sub(*before)
	if delta.Count == 0 {
		return nil, 0
	}
	toMS := func(q float64) float64 { return delta.Quantile(q) * 1000 }
	lm := &latencyMS{P50: toMS(0.50), P90: toMS(0.90), P99: toMS(0.99), Max: toMS(1.0)}
	share := 0.0
	if clientP99 > 0 {
		share = lm.P99 / clientP99
	}
	return lm, share
}

// uploadModules generates the n smallest Fig. 13 programs and registers
// them, tolerating 409 (already registered) so reruns against a long-lived
// daemon work.
func uploadModules(client *http.Client, base string, n int) ([]module, error) {
	configs := benchgen.Fig13Configs()
	if n < 1 || n > len(configs) {
		return nil, fmt.Errorf("-modules %d out of range 1..%d", n, len(configs))
	}
	sort.SliceStable(configs, func(i, j int) bool {
		if configs[i].Workers != configs[j].Workers {
			return configs[i].Workers < configs[j].Workers
		}
		return configs[i].Name < configs[j].Name
	})
	var mods []module
	for _, cfg := range configs[:n] {
		m := benchgen.Generate(cfg)
		pairs := namedPairs(m)
		if len(pairs) == 0 {
			return nil, fmt.Errorf("module %s has no pair queries", cfg.Name)
		}
		url := fmt.Sprintf("%s/v1/modules?name=%s&format=ir", base, cfg.Name)
		resp, err := client.Post(url, "text/plain", bytes.NewReader([]byte(m.String())))
		if err != nil {
			return nil, fmt.Errorf("uploading %s: %w", cfg.Name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
			return nil, fmt.Errorf("uploading %s: status %d", cfg.Name, resp.StatusCode)
		}
		mods = append(mods, module{name: cfg.Name, pairs: pairs})
	}
	return mods, nil
}

// uploadAsync registers one module through the async path and polls its
// status until the build lands (ready) or fails. A rejection (409 registry
// full / duplicate, 503 build queue full) is surfaced with the server's
// error message rather than being polled into a timeout.
func uploadAsync(client *http.Client, base, name, src string) error {
	url := fmt.Sprintf("%s/v1/modules?name=%s&format=ir&async=1", base, name)
	resp, err := client.Post(url, "text/plain", bytes.NewReader([]byte(src)))
	if err != nil {
		return err
	}
	rbody, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("async upload: status %d: %s", resp.StatusCode, bytes.TrimSpace(rbody))
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(base + "/v1/modules/" + name)
		if err != nil {
			return err
		}
		var info service.ModuleInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("polling %s: %w", name, err)
		}
		switch info.Status {
		case "ready":
			return nil
		case "failed":
			return fmt.Errorf("build of %s failed: %s", name, info.Error)
		case "building":
			// still in flight
		default:
			return fmt.Errorf("polling %s: unexpected status %q", name, info.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("build of %s stuck in %q", name, info.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// namedPairs maps the module's paper-style query enumeration to the textual
// pair form of the service API.
func namedPairs(m *ir.Module) []service.Pair {
	qs := alias.Queries(m)
	out := make([]service.Pair, len(qs))
	for i, q := range qs {
		out[i] = service.Pair{Func: q.P.Func.Name, A: q.P.Name, B: q.Q.Name}
	}
	return out
}

// counters is one point-in-time sum of the named modules' /v1/stats
// planner rows.
type counters struct {
	plannerGroups, plannerPairs, plannerSweep, plannerIndex, plannerFallback int64
	plannerIndexNo                                                           int64
}

// fetchCounters sums the planner counters of the named modules from
// /v1/stats.
func fetchCounters(client *http.Client, base string, names []string) (counters, error) {
	var c counters
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return c, fmt.Errorf("stats: %w", err)
	}
	defer resp.Body.Close()
	var st service.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return c, fmt.Errorf("stats: %w", err)
	}
	mine := map[string]bool{}
	for _, n := range names {
		mine[n] = true
	}
	for _, ms := range st.Modules {
		if mine[ms.Name] && ms.Planner != nil {
			c.plannerGroups += ms.Planner.Groups
			c.plannerPairs += ms.Planner.Pairs
			c.plannerSweep += ms.Planner.SweepNoAlias
			c.plannerIndex += ms.Planner.IndexPairs
			c.plannerIndexNo += ms.Planner.IndexNoAlias
			c.plannerFallback += ms.Planner.FallbackPairs
		}
	}
	return c, nil
}

// percentiles summarizes request latencies with interpolated ranks (the
// floor-truncated nearest-rank it replaces under-reported the upper tail;
// see stats.Percentile).
func percentiles(ds []time.Duration) latencyMS {
	if len(ds) == 0 {
		return latencyMS{}
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d.Microseconds()) / 1000.0
	}
	ps := stats.Percentiles(ms, 0.50, 0.90, 0.99, 1.0)
	return latencyMS{P50: ps[0], P90: ps[1], P99: ps[2], Max: ps[3]}
}
