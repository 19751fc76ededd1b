// Command benchtables regenerates the paper's evaluation tables and figures
// on the synthetic benchmark suites:
//
//	benchtables -fig 13    # precision comparison (Fig. 13)
//	benchtables -fig 14    # global-test attribution (Fig. 14)
//	benchtables -fig 15    # scalability / linearity (Fig. 15)
//	benchtables -fig ratio # §5 symbolic-only pointer ratio
//	benchtables -fig all   # everything
//
// -parallel N fans benchmarks and query chunks out over N workers (the
// tables are byte-identical for every N). Fig. 15 is the exception: it is
// a timing experiment and always runs sequentially so the reported numbers
// cannot be distorted by CPU contention. -xl appends the two extra-large
// scalability programs to the Fig. 15 suite.
//
// -json replaces the text tables with one machine-readable report (the
// experiments.Report schema) covering the selected figures — the format
// bench-tracking tooling and cmd/aliasload consumers parse.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchgen"
	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 13, 14, 15, ratio, all")
	scalePrograms := flag.Int("scale-programs", 50, "number of programs in the Fig. 15 suite")
	parallel := flag.Int("parallel", 1, "worker count for fig 13/14/ratio (-1 = GOMAXPROCS); fig 15 timing always runs sequentially")
	xl := flag.Bool("xl", false, "append the extra-large (≥1.9M instruction) programs to Fig. 15")
	asJSON := flag.Bool("json", false, "emit one machine-readable JSON report instead of text tables")
	indexed := flag.Bool("indexed", true, "answer the precision sweeps through each module's compiled alias index (verdict-identical; false walks the chain per pair)")
	flag.Parse()

	d := &experiments.Driver{Parallel: *parallel, Indexed: *indexed}

	needPrecision := *fig == "13" || *fig == "14" || *fig == "ratio" || *fig == "all"
	var rows []experiments.PrecisionRow
	if needPrecision {
		rows = d.RunFig13Suite()
	}

	runScale := func() []experiments.ScaleRow {
		cfgs := benchgen.ScalabilityConfigs(*scalePrograms)
		if *xl {
			cfgs = append(cfgs, benchgen.XLScalabilityConfigs()...)
		}
		return d.RunScale(cfgs)
	}

	if *asJSON {
		var scale []experiments.ScaleRow
		switch *fig {
		case "13", "14", "ratio":
		case "15":
			scale = runScale()
		case "all":
			scale = runScale()
		default:
			fmt.Fprintf(os.Stderr, "unknown -fig %q\n", *fig)
			os.Exit(2)
		}
		if err := experiments.WriteJSON(os.Stdout, experiments.BuildReport(rows, scale)); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		return
	}

	switch *fig {
	case "13":
		experiments.RenderFig13(os.Stdout, rows)
	case "14":
		experiments.RenderFig14(os.Stdout, rows)
	case "ratio":
		experiments.RenderRatio(os.Stdout, rows)
	case "15":
		experiments.RenderFig15(os.Stdout, runScale())
	case "all":
		fmt.Println("=== Fig. 13: precision comparison ===")
		experiments.RenderFig13(os.Stdout, rows)
		fmt.Println("\n=== Fig. 14: queries solved by the global test ===")
		experiments.RenderFig14(os.Stdout, rows)
		fmt.Println("\n=== §5: symbolic-only pointer ratio ===")
		experiments.RenderRatio(os.Stdout, rows)
		fmt.Println("\n=== Fig. 15: scalability ===")
		experiments.RenderFig15(os.Stdout, runScale())
	default:
		fmt.Fprintf(os.Stderr, "unknown -fig %q\n", *fig)
		os.Exit(2)
	}
}
