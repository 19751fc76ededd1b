package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/benchgen"
	"repro/internal/service"
)

// restartReport is the crash-recovery drill's section of the JSON artifact.
type restartReport struct {
	// Modules uploaded and golden-queried before the kill.
	ModulesUploaded int `json:"modules_uploaded"`
	// ChurnUploads issued (best-effort) while the SIGKILL landed.
	ChurnUploads int `json:"churn_uploads"`
	// ModulesRecovered that answered queries after the restart.
	ModulesRecovered int `json:"modules_recovered"`
	// VerdictsIdentical: every recovered module's post-restart query
	// response was byte-for-byte its pre-kill golden.
	VerdictsIdentical bool    `json:"verdicts_identical"`
	RecoverySeconds   float64 `json:"recovery_seconds"`
	StoreRecords      int     `json:"store_records"`
	Quarantined       int64   `json:"quarantined"`
	// CountersReconcile: /v1/stats store figures equal the aliasd_store_*
	// metric families on the restarted daemon.
	CountersReconcile bool `json:"counters_reconcile"`
}

// daemon is one spawned aliasd process under the drill's control.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon spawns the aliasd binary against dataDir on a random port and
// waits for the portfile. The daemon inherits our stderr so its logs land
// in the drill's output.
func startDaemon(bin, dataDir, portfile string, extra ...string) (*daemon, error) {
	os.Remove(portfile)
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-portfile", portfile,
		"-data-dir", dataDir,
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(portfile)
		if err == nil && len(bytes.TrimSpace(b)) > 0 {
			return &daemon{cmd: cmd, base: "http://" + string(bytes.TrimSpace(b))}, nil
		}
		if cmd.ProcessState != nil {
			return nil, fmt.Errorf("daemon exited before binding")
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			return nil, fmt.Errorf("daemon never wrote %s", portfile)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill9 delivers the real thing — SIGKILL, no cleanup, no flush — and reaps
// the process.
func (d *daemon) kill9() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// runRestart is the crash-recovery drill: spawn aliasd with -data-dir,
// upload modules and record golden verdict bytes, SIGKILL the daemon while
// churn uploads are in flight, restart it against the same directory, wait
// for /readyz, and assert the recovered daemon returns bit-identical
// verdicts with a clean (zero-quarantine) store whose /v1/stats figures
// reconcile with the aliasd_store_* metric families.
func runRestart(cfg loadConfig) error {
	if cfg.daemonBin == "" {
		return fmt.Errorf("-scenario restart needs -daemon-bin (path to an aliasd binary)")
	}
	dataDir := cfg.dataDir
	if dataDir == "" {
		d, err := os.MkdirTemp("", "aliasload-restart-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dataDir = d
	}
	portfile := filepath.Join(dataDir, "addr.txt")
	client := &http.Client{Timeout: 60 * time.Second}

	d1, err := startDaemon(cfg.daemonBin, dataDir, portfile)
	if err != nil {
		return err
	}
	defer d1.kill9()
	if err := checkHealth(client, d1.base); err != nil {
		return err
	}

	// Upload and golden-query: one full-enumeration (capped at -batch)
	// request per module, response bytes kept verbatim.
	configs := benchgen.Fig13Configs()
	n := cfg.modules
	if n < 1 {
		n = 1
	}
	if n > len(configs) {
		n = len(configs)
	}
	goldens := map[string][]byte{}
	var modNames []string
	for _, bc := range configs[:n] {
		m := benchgen.Generate(bc)
		pairs := namedPairs(m)
		if len(pairs) > cfg.batch {
			pairs = pairs[:cfg.batch]
		}
		url := fmt.Sprintf("%s/v1/modules?name=%s&format=ir", d1.base, bc.Name)
		resp, err := client.Post(url, "text/plain", strings.NewReader(m.String()))
		if err != nil {
			return fmt.Errorf("uploading %s: %w", bc.Name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("uploading %s: status %d", bc.Name, resp.StatusCode)
		}
		got, code, err := queryRaw(client, d1.base, bc.Name, pairs)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("golden query %s: status %d err %v", bc.Name, code, err)
		}
		goldens[bc.Name] = got
		modNames = append(modNames, bc.Name)
	}

	// Churn: re-upload fresh names in a loop and SIGKILL the daemon while
	// they are in flight — the torn-write window the store must survive.
	churnSrc := benchgen.Generate(configs[0]).String()
	churn := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			url := fmt.Sprintf("%s/v1/modules?name=restartchurn%d&format=ir", d1.base, i)
			resp, err := client.Post(url, "text/plain", strings.NewReader(churnSrc))
			if err != nil {
				return // daemon died mid-request: exactly the point
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			churn++
		}
	}()
	time.Sleep(150 * time.Millisecond)
	d1.kill9()
	<-done

	// Restart over the same directory; recovery replays the manifest
	// before /readyz goes ready, so checkHealth doubles as the recovery
	// barrier.
	d2, err := startDaemon(cfg.daemonBin, dataDir, portfile)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer d2.kill9()
	if err := checkHealth(client, d2.base); err != nil {
		return fmt.Errorf("restarted daemon never became ready: %w", err)
	}

	rr := restartReport{ModulesUploaded: n, ChurnUploads: churn, VerdictsIdentical: true}
	for _, bc := range configs[:n] {
		m := benchgen.Generate(bc)
		pairs := namedPairs(m)
		if len(pairs) > cfg.batch {
			pairs = pairs[:cfg.batch]
		}
		got, code, err := queryRaw(client, d2.base, bc.Name, pairs)
		if err != nil {
			return fmt.Errorf("post-restart query %s: %w", bc.Name, err)
		}
		if code != http.StatusOK {
			rr.VerdictsIdentical = false
			fmt.Fprintf(os.Stderr, "aliasload[restart]: module %s not recovered (status %d)\n", bc.Name, code)
			continue
		}
		rr.ModulesRecovered++
		if !bytes.Equal(got, goldens[bc.Name]) {
			rr.VerdictsIdentical = false
			fmt.Fprintf(os.Stderr, "aliasload[restart]: module %s verdicts differ after restart\n", bc.Name)
		}
	}

	// Counter reconciliation: the same store figures on both surfaces.
	resp, err := client.Get(d2.base + "/v1/stats")
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	var st service.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if st.Store == nil {
		return fmt.Errorf("restarted daemon reports no store section on /v1/stats")
	}
	rr.RecoverySeconds = st.Store.RecoverySeconds
	rr.StoreRecords = st.Store.Records
	rr.Quarantined = st.Store.Quarantined
	rr.CountersReconcile =
		scrapeGauge(client, d2.base, "aliasd_store_records", nil) == float64(st.Store.Records) &&
			scrapeGauge(client, d2.base, "aliasd_store_corrupt_quarantined_total", nil) == float64(st.Store.Quarantined) &&
			scrapeGauge(client, d2.base, "aliasd_store_recovery_duration_seconds", nil) > 0

	fmt.Printf("aliasload[restart]: %d modules uploaded, %d churn uploads, killed -9, %d recovered\n",
		rr.ModulesUploaded, rr.ChurnUploads, rr.ModulesRecovered)
	fmt.Printf("  recovery:    %.4fs, %d store records, %d quarantined\n",
		rr.RecoverySeconds, rr.StoreRecords, rr.Quarantined)
	fmt.Printf("  verdicts:    identical=%v  counters reconcile=%v\n", rr.VerdictsIdentical, rr.CountersReconcile)

	if cfg.out != "" {
		b, err := json.MarshalIndent(struct {
			Scenario string         `json:"scenario"`
			Restart  *restartReport `json:"restart"`
		}{"restart", &rr}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  report:      %s\n", cfg.out)
	}

	switch {
	case rr.ModulesRecovered != rr.ModulesUploaded:
		return fmt.Errorf("recovered %d of %d modules", rr.ModulesRecovered, rr.ModulesUploaded)
	case !rr.VerdictsIdentical:
		return fmt.Errorf("post-restart verdicts differ from pre-kill goldens")
	case rr.Quarantined != 0:
		return fmt.Errorf("%d records quarantined by a clean kill (torn write escaped the protocol)", rr.Quarantined)
	case rr.RecoverySeconds <= 0:
		return fmt.Errorf("recovery duration is zero: replay never ran")
	case !rr.CountersReconcile:
		return fmt.Errorf("store counters disagree between /v1/stats and /metrics")
	}
	return nil
}

// queryRaw posts one batch and returns the raw response bytes — the unit
// the drill byte-compares across the crash.
func queryRaw(client *http.Client, base, module string, pairs []service.Pair) ([]byte, int, error) {
	body, err := json.Marshal(service.QueryRequest{Module: module, Pairs: pairs})
	if err != nil {
		return nil, 0, err
	}
	resp, err := client.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return b, resp.StatusCode, nil
}
