// Command aliasd serves batched alias queries over HTTP/JSON — the daemon
// face of internal/service.
//
//	aliasd                             # listen on 127.0.0.1:8417
//	aliasd -addr 127.0.0.1:0 -portfile addr.txt   # random port, written to a file
//	aliasd -parallel 8 -max-batch 8192 # bigger query worker pool and batches
//	aliasd -evict-modules -build-workers 4
//	                                   # idle-LRU registry eviction, async builds
//	aliasd -mem-budget 512MB -max-inflight 64 -query-timeout 2s
//	                                   # watermark-governed degradation,
//	                                   # bounded admission, per-batch deadline
//	aliasd -chaos build-delay=50ms,alloc-spike=16MB,slow-client=5ms
//	                                   # synthetic faults for robustness drills
//	aliasd -data-dir /var/lib/aliasd
//	                                   # crash-safe module store, replayed on boot
//	aliasd -debug-addr 127.0.0.1:8418 -log-level debug
//	                                   # pprof/expvar sidecar + per-request logs
//
// A session:
//
//	curl -X POST --data-binary @prog.mc "http://localhost:8417/v1/modules?name=prog&format=minic"
//	curl -X POST -d '{"module":"prog","pairs":[{"func":"main","a":"p","b":"q"}]}' http://localhost:8417/v1/query
//	curl http://localhost:8417/metrics
//	curl http://localhost:8417/v1/stats
//
// The production listener serves the API plus /healthz, /readyz and
// /metrics. Profiling endpoints (net/http/pprof, expvar) are deliberately
// NOT on that mux: they expose internals and can stall the process, so they
// bind only to the separate -debug-addr listener, which defaults to off.
//
// Shutdown is graceful: SIGINT/SIGTERM flips /readyz to draining (load
// balancers stop routing), new work is shed with structured 503s, in-flight
// batches finish within -drain-timeout, then the HTTP server closes idle
// connections and the process exits 0. A second signal aborts immediately.
//
// See the package documentation of internal/service for the full API.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// parseBytes reads a byte count with an optional KB/MB/GB (or K/M/G) suffix:
// "512MB", "64M", "1073741824".
func parseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	for _, suf := range []struct {
		name string
		mult int64
	}{
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
		{"B", 1},
	} {
		if strings.HasSuffix(t, suf.name) {
			t = strings.TrimSuffix(t, suf.name)
			mult = suf.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n * mult, nil
}

// chaosInjector is the -chaos flag's service.Injector: fixed fault
// magnitudes parsed once at startup, applied at every seam they name.
type chaosInjector struct {
	buildDelay time.Duration // sleep at the top of every module build
	allocSpike int64         // transient garbage allocated per query batch
	slowClient time.Duration // stall before writing each success response

	// crashAfterWrite hard-exits the process after the Nth completed store
	// write step (0 = disabled). os.Exit skips every deferred flush — the
	// in-process stand-in for kill -9 mid-persist that the crash-recovery
	// drills lean on.
	crashAfterWrite int64
	storeWrites     atomic.Int64
}

// chaosSink keeps the allocated spike reachable long enough that the
// compiler cannot elide the allocation; it is overwritten per batch so the
// garbage is transient — exactly the pressure pattern the budget governor
// must absorb.
var chaosSink []byte

func (c *chaosInjector) BuildStart(string) {
	if c.buildDelay > 0 {
		time.Sleep(c.buildDelay)
	}
}

func (c *chaosInjector) QueryStart(string, int) {
	if c.allocSpike > 0 {
		b := make([]byte, c.allocSpike)
		for i := 0; i < len(b); i += 4096 {
			b[i] = 1 // touch every page: real RSS, not lazy mappings
		}
		chaosSink = b
	}
}

func (c *chaosInjector) ResponseWrite() {
	if c.slowClient > 0 {
		time.Sleep(c.slowClient)
	}
}

func (c *chaosInjector) StoreWrite(step string) {
	if c.crashAfterWrite <= 0 {
		return
	}
	if n := c.storeWrites.Add(1); n == c.crashAfterWrite {
		fmt.Fprintf(os.Stderr, "aliasd: chaos crash-after-write: hard exit after store step %d (%s)\n", n, step)
		os.Exit(3)
	}
}

// parseChaos reads the -chaos spec: comma-separated key=value pairs from
// build-delay=<dur>, alloc-spike=<bytes>, slow-client=<dur>,
// crash-after-write=<n>. Empty spec = no injector (the production nil
// path).
func parseChaos(spec string) (service.Injector, error) {
	if spec == "" {
		return nil, nil
	}
	inj := &chaosInjector{}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -chaos entry %q (want key=value)", part)
		}
		switch key {
		case "build-delay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("bad -chaos build-delay: %v", err)
			}
			inj.buildDelay = d
		case "alloc-spike":
			n, err := parseBytes(val)
			if err != nil {
				return nil, fmt.Errorf("bad -chaos alloc-spike: %v", err)
			}
			inj.allocSpike = n
		case "slow-client":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("bad -chaos slow-client: %v", err)
			}
			inj.slowClient = d
		case "crash-after-write":
			n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad -chaos crash-after-write %q (want positive integer)", val)
			}
			inj.crashAfterWrite = n
		default:
			return nil, fmt.Errorf("unknown -chaos key %q", key)
		}
	}
	return inj, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8417", "listen address (use port 0 for a random port)")
	portfile := flag.String("portfile", "", "write the bound address to this file once listening (for scripted callers)")
	debugAddr := flag.String("debug-addr", "", "separate listener for pprof and expvar (empty = disabled; never exposed on -addr)")
	debugPortfile := flag.String("debug-portfile", "", "write the bound debug address to this file (requires -debug-addr)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error (debug includes per-request stage breakdowns)")
	parallel := flag.Int("parallel", -1, "query-stage worker pool size (-1 = GOMAXPROCS, 0/1 = sequential)")
	maxBatch := flag.Int("max-batch", service.DefaultMaxBatch, "maximum pairs per /v1/query request")
	maxBatchBytes := flag.String("max-batch-bytes", "", "maximum /v1/query request body size, e.g. 4MB (empty = 16MB default)")
	maxSource := flag.Int("max-source-bytes", service.DefaultMaxSourceBytes, "maximum module source size accepted by /v1/modules")
	maxModules := flag.Int("max-modules", service.DefaultMaxModules, "maximum registered modules")
	evictModules := flag.Bool("evict-modules", false, "evict the least-recently-queried module when the registry is full instead of refusing the upload")
	buildWorkers := flag.Int("build-workers", service.DefaultBuildWorkers, "async module-build workers (POST /v1/modules?async=1)")
	memBudget := flag.String("mem-budget", "", "approximate process memory budget, e.g. 512MB; past 70% the daemon evicts idle modules, past 85% it sheds work (empty = unlimited)")
	maxInFlight := flag.Int("max-inflight", service.DefaultMaxInFlight, "maximum concurrently admitted /v1/query batches; excess is shed with 503 (negative = unbounded)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-batch evaluation deadline; exceeded batches are cancelled mid-flight and shed with 503 (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight batches after SIGTERM before the server is forced down")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "HTTP server read timeout (slow-request defense)")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "HTTP server write timeout (slow-client defense)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "HTTP server keep-alive idle timeout")
	chaosSpec := flag.String("chaos", "", "fault injection: comma-separated build-delay=<dur>, alloc-spike=<bytes>, slow-client=<dur>, crash-after-write=<n> (empty = off)")
	dataDir := flag.String("data-dir", "", "crash-safe on-disk module store; modules persist across restarts and are replayed on boot (empty = in-memory only)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "aliasd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(1)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var budgetBytes int64
	if *memBudget != "" {
		n, err := parseBytes(*memBudget)
		if err != nil {
			logger.Error("bad -mem-budget", "error", err)
			os.Exit(1)
		}
		budgetBytes = n
	}
	var batchBytes int64
	if *maxBatchBytes != "" {
		n, err := parseBytes(*maxBatchBytes)
		if err != nil {
			logger.Error("bad -max-batch-bytes", "error", err)
			os.Exit(1)
		}
		batchBytes = n
	}
	chaos, err := parseChaos(*chaosSpec)
	if err != nil {
		logger.Error("bad -chaos", "error", err)
		os.Exit(1)
	}
	if chaos != nil {
		logger.Warn("chaos injection enabled", "spec", *chaosSpec)
	}

	var st *store.Store
	if *dataDir != "" {
		st, err = store.Open(*dataDir)
		if err != nil {
			logger.Error("opening data dir failed", "dir", *dataDir, "error", err)
			os.Exit(1)
		}
		logger.Info("module store open", "dir", *dataDir,
			"records", st.Len(), "bytes", st.SizeBytes())
	}

	svc := service.New(service.Config{
		MaxBatch:       *maxBatch,
		MaxBatchBytes:  batchBytes,
		MaxSourceBytes: *maxSource,
		MaxModules:     *maxModules,
		Parallel:       *parallel,
		EvictModules:   *evictModules,
		BuildWorkers:   *buildWorkers,
		MemBudget:      budgetBytes,
		MaxInFlight:    *maxInFlight,
		QueryTimeout:   *queryTimeout,
		Chaos:          chaos,
		Logger:         logger,
		Store:          st,
	})
	defer svc.Close()

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Error("debug listen failed", "addr", *debugAddr, "error", err)
			os.Exit(1)
		}
		if *debugPortfile != "" {
			if err := os.WriteFile(*debugPortfile, []byte(dln.Addr().String()+"\n"), 0o644); err != nil {
				logger.Error("writing debug portfile failed", "error", err)
				os.Exit(1)
			}
		}
		// A dedicated mux: pprof's init() registers on http.DefaultServeMux,
		// which we never serve, so the explicit routes below are the only
		// way in — and only via this listener.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		logger.Info("debug listener up", "addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				logger.Error("debug serve failed", "error", err)
			}
		}()
	} else if *debugPortfile != "" {
		logger.Error("-debug-portfile requires -debug-addr")
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(bound+"\n"), 0o644); err != nil {
			logger.Error("writing portfile failed", "error", err)
			os.Exit(1)
		}
	}
	fmt.Printf("aliasd: listening on %s\n", bound)
	logger.Info("listening", "addr", bound, "parallel", *parallel,
		"mem_budget", budgetBytes, "max_inflight", *maxInFlight)

	srv := &http.Server{
		Handler:      svc.Handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Replay the store after the listener is up: probes see a structured
	// "recovering" /readyz instead of connection refused, and queries shed
	// with a retryable reason until the registry is whole again.
	if err := svc.Recover(); err != nil {
		logger.Error("store recovery failed", "error", err)
		os.Exit(1)
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		// Graceful sequence: stop admitting (readyz goes draining, so load
		// balancers route away), let in-flight batches finish under the
		// drain deadline, then close the listener and idle connections.
		logger.Info("signal received: draining", "signal", sig.String(),
			"in_flight", svc.InFlight(), "drain_timeout", *drainTimeout)
		svc.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			// A second signal skips the grace period.
			<-sigs
			logger.Warn("second signal: aborting drain")
			cancel()
		}()
		if err := svc.Drain(ctx); err != nil {
			logger.Warn("drain incomplete, shutting down anyway", "error", err)
		} else {
			logger.Info("drain complete")
		}
		if err := svc.FlushStore(); err != nil {
			logger.Warn("store flush failed", "error", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("http shutdown incomplete", "error", err)
			srv.Close()
		}
		cancel()
		logger.Info("shutdown complete")
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			logger.Error("serve failed", "error", err)
			os.Exit(1)
		}
	}
}
