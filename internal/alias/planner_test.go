package alias_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/alias"
	"repro/internal/alias/andersen"
	"repro/internal/alias/basicaa"
	"repro/internal/alias/rbaa"
	"repro/internal/alias/scevaa"
	"repro/internal/benchgen"
	"repro/internal/ir"
	"repro/internal/pointer"
)

// newServiceChain mirrors service.NewChain: the full four-member chain the
// daemon compiles an index for.
func newServiceChain(m *ir.Module) *alias.Manager {
	return alias.NewManager(alias.ManagerOptions{},
		scevaa.New(m), basicaa.New(m), rbaa.New(m, pointer.Options{}), andersen.Analyze(m))
}

// fullVerdictEqual compares two verdicts member for member.
func fullVerdictEqual(a, b alias.Verdict, members int) bool {
	if a.Result != b.Result || a.Resolved != b.Resolved {
		return false
	}
	for i := 0; i < members; i++ {
		if a.MemberNoAlias(i) != b.MemberNoAlias(i) || a.Detail(i) != b.Detail(i) {
			return false
		}
	}
	return true
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// diffConfigs are randomly parameterized generator configs: the Fig. 13
// idiom generators re-seeded and re-mixed, so every run of the corpus
// covers programs none of the goldens pin down.
func diffConfigs() []benchgen.Config {
	rng := rand.New(rand.NewSource(20260728))
	var out []benchgen.Config
	for i := 0; i < 8; i++ {
		out = append(out, benchgen.Config{
			Name:    fmt.Sprintf("diff%d", i),
			Seed:    rng.Int63(),
			Workers: 3 + rng.Intn(8),
			Mix: benchgen.Mix{
				Message:  rng.Intn(4),
				Stride:   rng.Intn(4),
				Fields:   rng.Intn(4),
				MultiObj: rng.Intn(4),
				Chase:    rng.Intn(3),
				Soup:     rng.Intn(3),
				Cond:     rng.Intn(3),
				Local:    1 + rng.Intn(3),
			},
		})
	}
	return out
}

// overflowIR is a function whose φs join ptradd offsets 0 and 0 on one arm
// with 2^62 and −2^63+10 on the other: GR(p) = [0, 2^62] and GR(q) =
// [−2^63+10, 0] share offset 0 (on the left arm p and q are the same
// address), but 2^62 − (−2^63+10) overflows an int64, and a prover that
// orders bounds by the sign of their wrapped difference proves them
// disjoint.
const overflowIR = `module overflow

func f(n int) void {
entry:
  %a = alloc heap 16
  %c = cmp lt %n, 0
  condbr %c, left, right
left:
  %p1 = ptradd %a, 0
  %q1 = ptradd %a, 0
  br join
right:
  %p2 = ptradd %a, 4611686018427387904
  %q2 = ptradd %a, -9223372036854775798
  br join
join:
  %p = phi [%p1, left], [%p2, right]
  %q = phi [%q1, left], [%q2, right]
  ret
}
`

// diffModules are the differential tests' inputs: the diffConfigs
// programs plus overflowIR.
func diffModules(t *testing.T) []*ir.Module {
	var mods []*ir.Module
	for _, cfg := range diffConfigs() {
		mods = append(mods, benchgen.Generate(cfg))
	}
	m, err := ir.Parse(overflowIR)
	if err != nil {
		t.Fatal(err)
	}
	return append(mods, m)
}

// TestIndexVerdictsIdenticalToManager is the compiled index's differential
// property: for every pair of every function of randomly generated IR
// programs, the index verdict must equal the legacy Manager chain's —
// result, chain attribution, per-member mask and Fig. 14 detail alike.
func TestIndexVerdictsIdenticalToManager(t *testing.T) {
	sawOverflow := false
	for _, m := range diffModules(t) {
		oracle := newServiceChain(m)
		indexed := newServiceChain(m)
		ix := alias.BuildIndex(indexed, m)
		if ix == nil {
			t.Fatalf("%s: BuildIndex returned nil for a fully digestible chain", m.Name)
		}
		if ix.NumFuncs() == 0 {
			t.Fatalf("%s: index compiled no functions", m.Name)
		}
		qs := alias.Queries(m)
		if len(qs) == 0 {
			t.Fatalf("%s: no queries", m.Name)
		}
		inconclusive := 0
		for _, q := range qs {
			want := oracle.Evaluate(q.P, q.Q)
			got, ok := ix.Evaluate(q.P, q.Q)
			if !ok {
				inconclusive++
				continue
			}
			if !fullVerdictEqual(got, want, oracle.NumMembers()) {
				t.Fatalf("%s: index verdict for (%s,%s) in %s diverges\n got: %+v provers=%d\nwant: %+v provers=%d",
					m.Name, q.P.Name, q.Q.Name, q.P.Func.Name,
					got.Result, got.NumProvers(), want.Result, want.NumProvers())
			}
			// Symmetry: the index must not depend on operand order.
			if rev, ok := ix.Evaluate(q.Q, q.P); !ok || rev.Result != got.Result {
				t.Fatalf("%s: index verdict for (%s,%s) is order-dependent", m.Name, q.P.Name, q.Q.Name)
			}
			if m.Name == "overflow" && q.P.Name+q.Q.Name == "pq" {
				sawOverflow = true
				if want.Result != alias.MayAlias {
					t.Errorf("overflow: p and q share an address on one arm, but the chain answers %v (%q)",
						want.Result, want.Detail(2))
				}
			}
		}
		if inconclusive > 0 {
			t.Errorf("%s: %d/%d pairs index-inconclusive; same-function pointer pairs must all be covered",
				m.Name, inconclusive, len(qs))
		}
	}
	if !sawOverflow {
		t.Error("the overflow module's (p, q) pair was never asked")
	}
}

// TestIndexEvaluateAllocatesNothing pins the index's verdict path as
// allocation-free: every Fig. 14 detail the range member reports is a
// shared slice built with the index, so answering every pair of a
// generated module allocates nothing.
func TestIndexEvaluateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := benchgen.Generate(benchgen.Fig13Configs()[0])
	ix := alias.BuildIndex(newServiceChain(m), m)
	if ix == nil {
		t.Fatal("BuildIndex returned nil for a fully digestible chain")
	}
	qs := alias.Queries(m)
	details := 0
	for _, q := range qs {
		v, ok := ix.Evaluate(q.P, q.Q)
		if ok && v.Detail(2) != "" {
			details++
		}
	}
	if details == 0 {
		t.Fatal("no pair carries an rbaa detail; the test would pass vacuously")
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, q := range qs {
			ix.Evaluate(q.P, q.Q)
		}
	})
	if allocs != 0 {
		t.Errorf("evaluating %d pairs allocated %v times, want 0", len(qs), allocs)
	}
}

// TestIndexSizeLinear checks that the compiled index grows linearly with
// the module: its MemBytes per instruction on the Fig. 15 program [44]
// (~95k instructions) must lie within 10% of [34]'s (~24k). Points-to rows
// as wide as the module's site count grew it ~1.8x over that span.
func TestIndexSizeLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("builds two large modules; slow under the race detector")
	}
	if testing.Short() {
		t.Skip("builds two large modules")
	}
	cfgs := benchgen.ScalabilityConfigs(50)
	var per [2]float64
	for k, i := range []int{34, 44} {
		m := benchgen.Generate(cfgs[i])
		ix := alias.BuildIndex(newServiceChain(m), m)
		instrs := m.Stats().Instrs
		per[k] = float64(ix.MemBytes()) / float64(instrs)
		t.Logf("%s: %d instrs, MemBytes %d, %.1f B/instr", m.Name, instrs, ix.MemBytes(), per[k])
	}
	if r := per[1] / per[0]; r > 1.10 || r < 0.90 {
		t.Errorf("index bytes per instruction went from %.1f to %.1f (%.2fx) over a 4x larger module; want within 10%%",
			per[0], per[1], r)
	}
}

// TestPlannerBatchesMatchManagerUnderRace drives random batches through the
// sweep-line planner from concurrent workers and checks every answer's
// Result against a per-pair Manager.Evaluate on an untouched oracle — the
// differential contract of the batch fast path — while the tallies
// reconcile with the number of pairs issued.
func TestPlannerBatchesMatchManagerUnderRace(t *testing.T) {
	for _, cfg := range diffConfigs()[:4] {
		m := benchgen.Generate(cfg)
		oracle := newServiceChain(m)
		indexed := newServiceChain(m)
		ix := alias.BuildIndex(indexed, m)
		pl := alias.NewPlanner(ix)

		// Group the query enumeration by function, as the service pipeline
		// shards batches.
		byFunc := map[*ir.Func][]alias.Pair{}
		for _, q := range alias.Queries(m) {
			byFunc[q.P.Func] = append(byFunc[q.P.Func], q)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		type batch struct {
			plan  *alias.Plan
			pairs []alias.Pair
		}
		var batches []batch
		totalPairs := 0
		for _, pairs := range byFunc {
			// Random slice of the function's pairs, both orientations.
			bp := make([]alias.Pair, 0, len(pairs))
			for _, q := range pairs {
				if rng.Intn(4) == 0 {
					continue
				}
				if rng.Intn(2) == 0 {
					q.P, q.Q = q.Q, q.P
				}
				bp = append(bp, q)
			}
			if len(bp) == 0 {
				continue
			}
			vals := make([]*ir.Value, 0, 2*len(bp))
			for _, q := range bp {
				vals = append(vals, q.P, q.Q)
			}
			batches = append(batches, batch{plan: pl.Plan(vals), pairs: bp})
			totalPairs += len(bp)
		}

		var wg sync.WaitGroup
		results := make([][]alias.Result, len(batches))
		for bi := range batches {
			for w := 0; w < 2; w++ { // two workers per plan: shared-plan reads must race cleanly
				wg.Add(1)
				go func(bi, w int) {
					defer wg.Done()
					b := batches[bi]
					var tally alias.PlanTally
					out := make([]alias.Result, len(b.pairs))
					for i, q := range b.pairs {
						out[i] = b.plan.Evaluate(q.P, q.Q, &tally).Result
					}
					pl.Fold(tally)
					if w == 0 {
						results[bi] = out
					}
				}(bi, w)
			}
		}
		wg.Wait()

		for bi, b := range batches {
			for i, q := range b.pairs {
				want := oracle.Evaluate(q.P, q.Q).Result
				if results[bi][i] != want {
					t.Fatalf("%s: planner result for (%s,%s) = %v, manager says %v",
						cfg.Name, q.P.Name, q.Q.Name, results[bi][i], want)
				}
			}
		}

		st := pl.Stats()
		if st.Pairs != int64(2*totalPairs) {
			t.Errorf("%s: planner tallied %d pairs, want %d", cfg.Name, st.Pairs, 2*totalPairs)
		}
		if st.SweepNoAlias+st.IndexPairs+st.FallbackPairs != st.Pairs {
			t.Errorf("%s: tally does not reconcile: sweep %d + index %d + fallback %d != pairs %d",
				cfg.Name, st.SweepNoAlias, st.IndexPairs, st.FallbackPairs, st.Pairs)
		}
		if st.FallbackPairs != 0 {
			t.Errorf("%s: %d same-function pairs fell outside the index", cfg.Name, st.FallbackPairs)
		}
		if st.Batches != int64(len(batches)) {
			t.Errorf("%s: batches = %d, want %d", cfg.Name, st.Batches, len(batches))
		}
		if st.Groups == 0 || st.PlannedValues == 0 {
			t.Errorf("%s: sweep formed no groups (groups=%d planned=%d)", cfg.Name, st.Groups, st.PlannedValues)
		}
	}
}

// TestPlannerBottomVsTopMatchesManager is the regression test for the ⊥/⊤
// sweep rule: a freed pointer (GR = ⊥) paired with a pointer loaded from
// memory an unknown value reached (GR = ⊤, points-to unknown) is may-alias
// under the chain — rbaa's global test bails on ⊤ before looking at
// supports — so the sweep must not claim the ⊥ value disjoint from it.
func TestPlannerBottomVsTopMatchesManager(t *testing.T) {
	m := ir.NewModule("freetop")
	f := m.NewFunc("f", ir.TVoid, ir.Param("p", ir.TPtr))
	b := ir.NewBuilder(f)
	b.SetBlock(b.Block("entry"))
	obj := b.Malloc(b.Int(8), "obj")
	b.Store(obj, f.Params[0]) // unknown pointer escapes into obj
	ld := b.Load(ir.TPtr, obj, "ld")
	fr := b.Free(obj, "fr")
	b.Ret(nil)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}

	oracle := newServiceChain(m)
	indexed := newServiceChain(m)
	pl := alias.NewPlanner(alias.BuildIndex(indexed, m))
	plan := pl.Plan([]*ir.Value{fr, ld, obj})
	var tally alias.PlanTally
	for _, pair := range [][2]*ir.Value{{fr, ld}, {ld, fr}, {fr, obj}, {obj, ld}} {
		got := plan.Evaluate(pair[0], pair[1], &tally).Result
		want := oracle.Evaluate(pair[0], pair[1]).Result
		if got != want {
			t.Errorf("planner result for (%s,%s) = %v, manager says %v",
				pair[0].Name, pair[1].Name, got, want)
		}
	}
}

// TestPlanScratchBoundedByUniverse pins Plan's allocation to the shard's
// distinct values, not its pairs: a 4096-pair shard of the 1600-pointer
// bigbatch function repeats each value many times, and the sweep scratch
// must be sized by the universe it can hold.
func TestPlanScratchBoundedByUniverse(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const ptrs, pairs = 1600, 4096
	m := benchgen.WideBatch("widebatch", ptrs)
	pl := alias.NewPlanner(alias.BuildIndex(newServiceChain(m), m))
	qs := alias.Queries(m)[:pairs]
	vals := make([]*ir.Value, 0, 2*pairs)
	for _, q := range qs {
		vals = append(vals, q.P, q.Q)
	}
	if n := pl.Index().Func(vals[0].Func).Len(); n != ptrs {
		t.Fatalf("universe holds %d values, want %d", n, ptrs)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pl.Plan(vals)
		}
	})
	// 16 B of position and 40 B of sweep scratch per universe value;
	// sizing the scratch by len(vals) costs ~330 KB more.
	const limit = 64*ptrs + 16<<10
	if got := res.AllocedBytesPerOp(); got > limit {
		t.Errorf("Plan over %d pairs allocated %d bytes, want at most %d", pairs, got, limit)
	}
}
