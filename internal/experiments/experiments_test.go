package experiments

import (
	"strings"
	"testing"

	"repro/internal/benchgen"
)

func TestRunPrecisionInvariants(t *testing.T) {
	cfg := benchgen.Fig13Configs()[0]
	row := RunPrecision(cfg.Name, benchgen.Generate(cfg))
	if row.Queries == 0 {
		t.Fatal("no queries")
	}
	// Soundness-side invariants of the counters.
	if row.Rbaa > row.Queries || row.Basic > row.Queries || row.Scev > row.Queries {
		t.Errorf("counts exceed queries: %+v", row)
	}
	if row.RplusB < row.Rbaa || row.RplusB < row.Basic {
		t.Errorf("combination must dominate members: %+v", row)
	}
	if row.Disjoint+row.Global+row.Local != row.Rbaa {
		t.Errorf("attribution must decompose rbaa's count: %+v", row)
	}
	if row.SymOnly > row.SymTotal {
		t.Errorf("symbolic-only exceeds total: %+v", row)
	}
}

func TestTotalSums(t *testing.T) {
	rows := []PrecisionRow{
		{Name: "a", Queries: 10, Scev: 1, Basic: 2, Rbaa: 3, RplusB: 4,
			Disjoint: 1, Global: 1, Local: 1, SymOnly: 2, SymTotal: 5},
		{Name: "b", Queries: 20, Scev: 2, Basic: 4, Rbaa: 6, RplusB: 8,
			Disjoint: 2, Global: 2, Local: 2, SymOnly: 3, SymTotal: 6},
	}
	tot := Total(rows)
	if tot.Queries != 30 || tot.Rbaa != 9 || tot.RplusB != 12 || tot.SymTotal != 11 {
		t.Errorf("totals wrong: %+v", tot)
	}
}

func TestRenderers(t *testing.T) {
	rows := []PrecisionRow{{
		Name: "demo", Queries: 100, Scev: 5, Basic: 30, Rbaa: 40, RplusB: 45,
		Disjoint: 20, Global: 15, Local: 5, SymOnly: 10, SymTotal: 40,
	}}
	var b strings.Builder
	RenderFig13(&b, rows)
	out := b.String()
	for _, want := range []string{"%scev", "%rbaa", "demo", "40.00", "Total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig13 render missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	RenderFig14(&b, rows)
	if !strings.Contains(b.String(), "global test share") {
		t.Errorf("Fig14 render missing share line:\n%s", b.String())
	}
	b.Reset()
	RenderRatio(&b, rows)
	if !strings.Contains(b.String(), "25.00%") {
		t.Errorf("ratio render = %q, want 10/40 = 25.00%%", b.String())
	}
}

// TestFig15SmallRun times six programs of 208 to ~5.8k instructions from
// the Fig. 15 suite. Each row keeps its fastest of three runs, so one
// descheduled run cannot outweigh the size signal and flip the sign of a
// correlation; RunScale itself still times every program once.
func TestFig15SmallRun(t *testing.T) {
	suite := benchgen.ScalabilityConfigs(50)
	var cfgs []benchgen.Config
	for _, i := range []int{0, 4, 9, 14, 19, 24} {
		cfgs = append(cfgs, suite[i])
	}
	d := &Driver{}
	rows := d.RunScale(cfgs)
	for run := 1; run < 3; run++ {
		for i, r := range d.RunScale(cfgs) {
			rows[i].Elapsed = min(rows[i].Elapsed, r.Elapsed)
		}
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Instrs <= 0 || r.Elapsed <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	ri, rp := Fig15Correlations(rows)
	if ri < 0 || rp < 0 {
		t.Errorf("negative correlation on a growing suite: %v, %v", ri, rp)
	}
	var b strings.Builder
	RenderFig15(&b, rows)
	if !strings.Contains(b.String(), "linear correlation") {
		t.Errorf("Fig15 render missing correlation:\n%s", b.String())
	}
}
