package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/benchgen"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// soakReport is the soak scenario's section of the JSON artifact: cycle
// accounting, the RSS flatness figures the scenario asserts, and the
// server-side budget counters accumulated over the run.
type soakReport struct {
	Cycles    int `json:"cycles"`
	Completed int `json:"completed"`
	// SkippedCycles counts cycles whose upload was shed past the retry
	// budget — expected under a tight -mem-budget, never an error.
	SkippedCycles int `json:"skipped_cycles"`
	// Reuploads counts resident modules re-registered after the budget
	// governor evicted them out from under a query (the 404 path).
	Reuploads int `json:"reuploads"`
	// ShedQueries counts query batches dropped after exhausting retries.
	ShedQueries int `json:"shed_queries"`
	// UnexpectedStatuses counts responses outside the documented surface
	// (2xx, 404 on evicted modules, 429/503 sheds). Must be zero.
	UnexpectedStatuses int `json:"unexpected_statuses"`

	RSSStartBytes  int64   `json:"rss_start_bytes"`
	RSSEndBytes    int64   `json:"rss_end_bytes"`
	RSSRatio       float64 `json:"rss_ratio"`
	HeapStartBytes int64   `json:"heap_start_bytes"`
	HeapEndBytes   int64   `json:"heap_end_bytes"`

	// Server-side deltas over the measured window, from /v1/stats.
	ServerSheds     map[string]int64 `json:"server_sheds"`
	ServerEvictions int64            `json:"server_budget_evictions"`
	BudgetState     string           `json:"budget_state"`
}

// scrapeGauge reads one sample of a /metrics family (first sample matching
// the label subset); 0 when the endpoint, family or sample is absent.
func scrapeGauge(client *http.Client, base, family string, labels map[string]string) float64 {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0
	}
	fams, err := telemetry.Parse(string(b))
	if err != nil {
		return 0
	}
	f := telemetry.FindFamily(fams, family)
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

// fetchBudget reads the /v1/stats budget section.
func fetchBudget(client *http.Client, base string) (service.BudgetStats, error) {
	var st service.StatsResponse
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st.Budget, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st.Budget, err
	}
	return st.Budget, nil
}

// runSoak is the robustness workload: -cycles upload/query/delete cycles
// against a (typically budget-constrained, chaos-injected) daemon, driven
// entirely through the retrying client, so every 429/503 becomes a backoff
// and a retry rather than a failure. Resident modules stay registered as
// the budget governor's eviction victims; a query that finds one evicted
// (404) re-uploads it and carries on. The first fifth of the cycles is
// warmup: the RSS flatness assertion compares the post-warmup plateau to
// the end of the run, and fails the process when end > -rss-max-ratio ×
// start. Any status outside the documented surface also fails the run.
func runSoak(cfg loadConfig) error {
	base := "http://" + cfg.addr
	client := &http.Client{Timeout: 120 * time.Second}
	rc := newRetryClient(client, cfg.attempts)
	if err := checkHealth(client, base); err != nil {
		return err
	}

	// Residents: the smallest Fig. 13 program under distinct names. Small
	// on purpose — cycle churn, not resident bulk, must dominate the memory
	// the governor manages.
	type soakTarget struct {
		name  string
		pairs []service.Pair
		src   []byte
	}
	resCfg := smallestFig13()
	var residents []soakTarget
	var modNames []string
	for i := 0; i < cfg.modules; i++ {
		c := resCfg
		c.Name = fmt.Sprintf("soak-res-%d", i)
		m := benchgen.Generate(c)
		tgt := soakTarget{name: c.Name, pairs: namedPairs(m), src: []byte(m.String())}
		if err := soakUpload(rc, base, tgt.name, tgt.src); err != nil {
			return fmt.Errorf("resident %s: %w", tgt.name, err)
		}
		residents = append(residents, tgt)
		modNames = append(modNames, tgt.name)
	}
	churn := benchgen.Generate(resCfg)
	churnSrc := []byte(churn.String())
	churnPairs := namedPairs(churn)
	if len(churnPairs) > cfg.batch {
		churnPairs = churnPairs[:cfg.batch]
	}

	warmup := cfg.cycles / 5
	if warmup < 2 {
		warmup = 2
	}
	var (
		sk           soakReport
		latencies    []time.Duration
		noAlias      int64
		totalQueries int
		measuredAt   time.Time
		budget0      service.BudgetStats
	)
	sk.Cycles = cfg.cycles
	start := time.Now()
	for cycle := 0; cycle < cfg.cycles; cycle++ {
		if cycle == warmup {
			// The plateau snapshot: everything before this point (module
			// builds, first chaos spikes) is warmup.
			sk.RSSStartBytes = int64(scrapeGauge(client, base, "aliasd_process_rss_bytes", nil))
			sk.HeapStartBytes = int64(scrapeGauge(client, base, "aliasd_budget_bytes", map[string]string{"kind": "heap"}))
			budget0, _ = fetchBudget(client, base)
			measuredAt = time.Now()
		}
		measured := cycle >= warmup

		// Upload this cycle's churn module. A shed that survives the retry
		// budget skips the cycle; the daemon said "not now" and the client
		// honors it.
		name := fmt.Sprintf("soak-c%d", cycle)
		resp, err := rc.post(fmt.Sprintf("%s/v1/modules?name=%s&format=ir", base, name), "text/plain", churnSrc)
		if err != nil {
			return fmt.Errorf("cycle %d upload: %w", cycle, err)
		}
		code := drainStatus(resp)
		switch {
		case code == http.StatusCreated:
		case shedStatus(code):
			sk.SkippedCycles++
			continue
		default:
			sk.UnexpectedStatuses++
			continue
		}

		// Query the fresh module and one resident (round-robin). Residents
		// may have been evicted by the governor: 404 → re-upload once.
		res := residents[cycle%len(residents)]
		for _, target := range []soakTarget{{name: name, pairs: churnPairs, src: churnSrc}, res} {
			pairs := target.pairs
			if len(pairs) > cfg.batch {
				pairs = pairs[:cfg.batch]
			}
			body, _ := json.Marshal(service.QueryRequest{Module: target.name, Pairs: pairs})
			for attempt := 0; ; attempt++ {
				t0 := time.Now()
				qresp, err := rc.post(base+"/v1/query", "application/json", body)
				if err != nil {
					return fmt.Errorf("cycle %d query %s: %w", cycle, target.name, err)
				}
				var qr struct {
					NoAlias int64 `json:"noalias"`
				}
				decErr := json.NewDecoder(qresp.Body).Decode(&qr)
				io.Copy(io.Discard, qresp.Body)
				qresp.Body.Close()
				if qresp.StatusCode == http.StatusOK && decErr == nil {
					if measured {
						latencies = append(latencies, time.Since(t0))
					}
					totalQueries += len(pairs)
					noAlias += qr.NoAlias
					break
				}
				if qresp.StatusCode == http.StatusNotFound {
					if attempt == 0 {
						// Evicted under budget pressure: re-register, retry.
						if err := soakUpload(rc, base, target.name, target.src); err == nil {
							sk.Reuploads++
							continue
						}
					}
					// Re-upload shed, or the governor evicted the module
					// again before the retry landed: drop this batch.
					sk.ShedQueries++
					break
				}
				if shedStatus(qresp.StatusCode) {
					sk.ShedQueries++
					break
				}
				sk.UnexpectedStatuses++
				break
			}
		}

		// Delete the churn module; 404 is fine (the governor got there
		// first), a shed past retries leaves it for the governor to evict.
		dresp, err := rc.del(base + "/v1/modules/" + name)
		if err != nil {
			return fmt.Errorf("cycle %d delete: %w", cycle, err)
		}
		code = drainStatus(dresp)
		if code != http.StatusNoContent && code != http.StatusNotFound && !shedStatus(code) {
			sk.UnexpectedStatuses++
		}
		sk.Completed++
	}
	wall := time.Since(start)
	measuredWall := wall
	if !measuredAt.IsZero() {
		measuredWall = time.Since(measuredAt)
	}

	sk.RSSEndBytes = int64(scrapeGauge(client, base, "aliasd_process_rss_bytes", nil))
	sk.HeapEndBytes = int64(scrapeGauge(client, base, "aliasd_budget_bytes", map[string]string{"kind": "heap"}))
	if sk.RSSStartBytes > 0 {
		sk.RSSRatio = float64(sk.RSSEndBytes) / float64(sk.RSSStartBytes)
	}
	if budget1, err := fetchBudget(client, base); err == nil {
		sk.BudgetState = budget1.State
		sk.ServerEvictions = budget1.Evictions - budget0.Evictions
		sk.ServerSheds = map[string]int64{}
		for reason, n := range budget1.Sheds {
			sk.ServerSheds[reason] = n - budget0.Sheds[reason]
		}
	}

	rep := report{
		Timestamp:      start.UTC().Format(time.RFC3339),
		Scenario:       "soak",
		Addr:           cfg.addr,
		Modules:        modNames,
		Queries:        totalQueries,
		Requests:       len(latencies),
		Batch:          cfg.batch,
		Concurrency:    1,
		WallMS:         float64(wall.Microseconds()) / 1000.0,
		QPS:            float64(totalQueries) / measuredWall.Seconds(),
		RequestsPerSec: float64(len(latencies)) / measuredWall.Seconds(),
		LatencyMS:      percentiles(latencies),
		NoAlias:        noAlias,
		Retry:          rc.stats(),
		Soak:           &sk,
	}
	if err := emit(rep, cfg.out); err != nil {
		return err
	}
	// The scenario's own acceptance: no statuses outside the contract, and
	// a flat RSS plateau (skipped where the gauge is unavailable).
	if sk.UnexpectedStatuses > 0 {
		return fmt.Errorf("soak: %d responses outside the documented status surface", sk.UnexpectedStatuses)
	}
	if sk.RSSStartBytes > 0 && sk.RSSRatio > cfg.rssMaxRatio {
		return fmt.Errorf("soak: RSS grew %.3fx over the measured window (limit %.2fx): %d → %d bytes",
			sk.RSSRatio, cfg.rssMaxRatio, sk.RSSStartBytes, sk.RSSEndBytes)
	}
	return nil
}

// soakUpload registers a module through the retrying client, tolerating 409
// (already registered — reruns and re-upload races). A shed past the retry
// budget or any other status is the caller's error.
func soakUpload(rc *retryClient, base, name string, src []byte) error {
	resp, err := rc.post(fmt.Sprintf("%s/v1/modules?name=%s&format=ir", base, name), "text/plain", src)
	if err != nil {
		return err
	}
	code := drainStatus(resp)
	if code != http.StatusCreated && code != http.StatusConflict {
		return fmt.Errorf("upload %s: status %d", name, code)
	}
	return nil
}

// drainStatus drains and closes the body, returning the status code —
// keep-alive hygiene for the cycle loop's many small responses.
func drainStatus(resp *http.Response) int {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// smallestFig13 returns the smallest Fig. 13 benchmark config (fewest
// workers, then name order) — the soak's module template.
func smallestFig13() benchgen.Config {
	configs := benchgen.Fig13Configs()
	best := configs[0]
	for _, c := range configs[1:] {
		if c.Workers < best.Workers || (c.Workers == best.Workers && c.Name < best.Name) {
			best = c
		}
	}
	return best
}
