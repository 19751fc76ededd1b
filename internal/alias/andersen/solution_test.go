package andersen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/ir"
)

// mergeModule builds one function whose points-to sets span several words
// with few sites in each: 300 mallocs stored into cells at interleaved
// strides, loaded pointers stored back into other cells and objects, a loop
// φ that chases its own loads, and a published cell whose contents escape.
// Every known set of the generated corpora holds at most one site, so this
// is the module that exercises multi-word unions, differences and
// intersections.
func mergeModule() *ir.Module {
	m := ir.NewModule("merge")
	f := m.NewFunc("f", ir.TVoid, ir.Param("n", ir.TInt))
	b := ir.NewBuilder(f)
	entry, loop, exit := b.Block("entry"), b.Block("loop"), b.Block("exit")
	b.SetBlock(entry)
	n := f.Params[0]
	var cells [5]*ir.Value
	for i := range cells {
		cells[i] = b.Alloca(1, fmt.Sprintf("c%d", i))
	}
	for k := 0; k < 300; k++ {
		q := b.Malloc(n, fmt.Sprintf("q%d", k))
		if k%7 != 0 {
			b.Store(cells[k%3], q)
		}
		if k%64 < 3 {
			b.Store(cells[3], q)
		}
		if k == 250 {
			b.Store(cells[4], q)
		}
	}
	var r [5]*ir.Value
	for i := range r {
		r[i] = b.Load(ir.TPtr, cells[i], fmt.Sprintf("r%d", i))
	}
	b.Store(cells[1], r[0])
	b.Store(r[3], r[2])
	b.Extern("publish", ir.TVoid, "", cells[4])
	b.Br(loop)
	b.SetBlock(loop)
	x := b.Phi(ir.TPtr, "x")
	y := b.PtrAdd(x.Res, n, "y")
	z := b.Load(ir.TPtr, y, "z")
	ir.AddIncoming(x, r[1], entry)
	ir.AddIncoming(x, z, loop)
	b.CondBr(b.Cmp(ir.PLt, n, b.Int(0), "c"), loop, exit)
	b.SetBlock(exit)
	b.Ret(nil)
	return m
}

// TestSolutionDigest pins the solver's least solution: a sha256 over every
// pointer value's PointsTo result (module, function, name, unknown flag and
// sites) on the 22 Fig. 13 programs, the Fig. 15 programs [4], [9], …,
// [24], WideBatch(1600) and mergeModule. The digest was taken with the
// dense-bitset solver the sparse sets replaced, so any set the
// representation change moved fails here.
func TestSolutionDigest(t *testing.T) {
	const want = "e8a9e96af9b429cd6113506bdcb6b9155fb5bcaf29710a1ff061bec35284294b"
	var mods []*ir.Module
	for _, c := range benchgen.Fig13Configs() {
		mods = append(mods, benchgen.Generate(c))
	}
	cfgs := benchgen.ScalabilityConfigs(50)
	for i := 4; i <= 24; i += 5 {
		mods = append(mods, benchgen.Generate(cfgs[i]))
	}
	mods = append(mods, benchgen.WideBatch("wide", 1600), mergeModule())
	h := sha256.New()
	values, known, multi := 0, 0, 0
	for _, m := range mods {
		r := Analyze(m)
		for _, f := range m.Funcs {
			for _, v := range f.Values() {
				if v.Typ != ir.TPtr {
					continue
				}
				sites, unknown := r.PointsTo(v)
				if unknown {
					sites = nil // meaningless under ⊤
				} else {
					known++
					if len(sites) > 0 && sites[len(sites)-1]/64 != sites[0]/64 {
						multi++
					}
				}
				fmt.Fprintf(h, "%s %s %s %t %v\n", m.Name, f.Name, v.Name, unknown, sites)
				values++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d modules, %d pointer values, %d known, %d spanning several words", len(mods), values, known, multi)
	if multi == 0 {
		t.Fatal("no known set spans several words; the digest would not cover multi-word sets")
	}
	if got != want {
		t.Errorf("solution digest = %s, want %s", got, want)
	}
}
