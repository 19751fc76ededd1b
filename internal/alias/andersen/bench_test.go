package andersen

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/benchgen"
)

// Solver benchmarks over the synthetic corpus: the constraint solve runs on
// every module build, so its allocation profile feeds straight into service
// build latency and async-build throughput.

// BenchmarkAnalyze solves espresso, the largest Fig. 13 program, and the
// Fig. 15 program [44] (~95k instructions), where the points-to sets'
// representation decides how the solve scales with the allocation sites.
func BenchmarkAnalyze(b *testing.B) {
	for _, c := range []benchgen.Config{benchgen.Fig13Configs()[1], benchgen.ScalabilityConfigs(50)[44]} {
		m := benchgen.Generate(c)
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if Analyze(m) == nil {
					b.Fatal("nil result")
				}
			}
		})
	}
}

func BenchmarkAlias(b *testing.B) {
	m := benchgen.Generate(benchgen.Fig13Configs()[1])
	r := Analyze(m)
	qs := alias.Queries(m)
	if len(qs) == 0 {
		b.Skip("no pointer pairs")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		_ = r.Alias(q.P, q.Q)
	}
}
