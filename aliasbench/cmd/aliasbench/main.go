// Command aliasbench runs one aliasd benchmark workload against an
// in-process service and prints its end-to-end metrics.
//
// It uploads the workload's modules through Service.Handler, sends a fixed
// warm-up, then whole rounds of the workload's batches from one closed-loop
// client for the given number of seconds, checks every distinct answer and
// prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A failed check prints "correct": false and exits 1.
//
// Usage (from the root of the repository):
//
//	bash aliasbench/run.sh --workload bigbatch --seed 0 --seconds 30 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/aliasbench/internal/bench"
)

func main() {
	workload := flag.String("workload", bench.BigBatch, "workload: bigbatch, corpus or scale")
	seed := flag.Int64("seed", 0, "input seed; 0 is the default inputs")
	seconds := flag.Int("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "must be 0; the traced run is cmd/aliastrace")
	flag.Parse()
	if *trace != 0 {
		fmt.Fprintln(os.Stderr, "aliasbench: the traced run is cmd/aliastrace")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "aliasbench: --seconds must be at least 1")
		os.Exit(2)
	}
	correct, err := run(*workload, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aliasbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// run measures one workload and prints its result line. It reports whether
// every check passed; an error means no result was printed.
func run(workload string, seed int64, d time.Duration) (bool, error) {
	w, err := bench.New(workload, seed)
	if err != nil {
		return false, err
	}
	r, err := bench.Start(w, d)
	if err != nil {
		return false, err
	}
	defer r.Close()
	checkErr := r.Check()
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "aliasbench: check failed:", checkErr)
	}

	if p := bench.TailPercentile(r.Lat.Len()); p > 0 {
		fmt.Printf("tail: batch p%g = %.4f ms over %d batches (not gated)\n", p, r.Lat.Percentile(p), r.Lat.Len())
	}
	pairs := float64(r.Pairs)
	err = bench.PrintResult(checkErr == nil, r.Requests, r.Failed, []bench.Metric{
		{Name: "setup_s", Unit: "s", Value: r.Setup.Seconds()},
		{Name: "pairs_per_s", Unit: "pairs/s", Value: bench.Rate(r.Pairs, r.Wall)},
		{Name: "pairs_per_cpu_s", Unit: "pairs/CPU-s", Value: bench.Rate(r.Pairs, r.CPU)},
		{Name: "batch_p50_ms", Unit: "ms", Value: r.Lat.Percentile(50)},
		{Name: "alloc_bytes_per_pair", Unit: "B", Value: float64(r.AllocBytes) / pairs},
		{Name: "retained_mb", Unit: "MiB", Value: float64(r.RetainedBytes) / (1 << 20)},
	})
	return checkErr == nil, err
}
