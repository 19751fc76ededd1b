package repro

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/alias/basicaa"
	"repro/internal/alias/rbaa"
	"repro/internal/alias/scevaa"
	"repro/internal/benchgen"
	"repro/internal/pointer"
)

// Analysis-core microbenchmarks, both with allocation accounting: the
// uncached Manager query over the scev→basic→rbaa chain and one rbaa
// module build. The daemon answers from the compiled index instead of the
// Manager; aliasbench (its own module) is the end-to-end benchmark of the
// service.

// managerBench builds the scev→basic→rbaa chain over the espresso module;
// every Evaluate measures member analysis work.
func managerBench(b *testing.B) (*alias.Manager, []alias.Pair) {
	b.Helper()
	m := benchgen.Generate(benchgen.Fig13Configs()[1])
	mgr := alias.NewManager(
		alias.ManagerOptions{Label: "scev+basic+rbaa"},
		scevaa.New(m), basicaa.New(m), rbaa.New(m, pointer.Options{}))
	return mgr, alias.Queries(m)
}

func BenchmarkManagerQuery(b *testing.B) {
	mgr, qs := managerBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		mgr.Evaluate(q.P, q.Q)
	}
}

func BenchmarkModuleBuild(b *testing.B) {
	m := benchgen.Generate(benchgen.Fig13Configs()[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := rbaa.New(m, pointer.Options{})
		if a == nil {
			b.Fatal("nil analysis")
		}
	}
}
