package bench

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/alias"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Member and reason names as the service renders them.
const (
	noAlias  = "no-alias"
	mayAlias = "may-alias"
)

// absoluteForbidden are the chain members whose no-alias contract is
// absolute — a pair that touched one address at any two moments must not be
// proved by them. rbaa is absolute only through its global reasons.
var absoluteForbidden = []string{"basic", "andersen"}

var rbaaGlobalReasons = []string{"global-range", "disjoint-support"}

// Result is one answer of a /v1/query response.
type Result struct {
	Result   string   `json:"result"`
	Resolved string   `json:"resolved,omitempty"`
	Provers  []string `json:"provers,omitempty"`
	Detail   string   `json:"detail,omitempty"`
}

// response is the body of a successful /v1/query. Results stay raw: equal
// answers are equal bytes, so each distinct answer is decoded once.
type response struct {
	Module  string            `json:"module"`
	Results []json.RawMessage `json:"results"`
	NoAlias int               `json:"noalias"`
}

// pairRule is what a check requires of one pair.
type pairRule uint8

const (
	unchecked    pairRule = iota
	notAbsolute           // collided at two moments: no absolute prover may claim it
	mustMayAlias          // collided in one block instance, or meets by construction
	mustNoAlias           // disjoint by construction
)

// maxReported caps the failure messages a Verifier keeps.
const maxReported = 10

// Verifier checks a workload's answers. Feed it every distinct batch's
// response with Batch (and, on corpus, the reversed batch with Reversed),
// then call Finish.
type Verifier struct {
	w      *Workload
	shapes map[string]uint16
	res    []Result
	mods   []*modCheck
	last   []uint16 // shape ids of the most recent Batch call
	fails  int
	report []string
}

// modCheck is the per-module state of a Verifier.
type modCheck struct {
	// first holds, per pair of the enumeration, 1 + the shape id of the
	// pair's first answer; 0 while unanswered.
	first []uint16
	// rule returns the check a pair is under.
	rule func(PairRef) pairRule
	// floor is the no-alias count the service must reach over one pass of
	// the enumeration; floorWhy names where it comes from.
	floor    int
	floorWhy string
	// collisions counts the concretely colliding pairs the service is
	// asked about; skipped counts the colliding instruction pairs it cannot
	// be asked about (operands that are globals or constants, or accesses
	// in different functions).
	collisions, skipped int
}

// NewVerifier prepares the checks of w. Bigbatch is checked against its
// construction. Corpus and scale are checked against concrete execution
// (interp.Observe on each module's main) and against the precision the
// experiments driver reaches on the same module through the chain walk.
func NewVerifier(w *Workload) (*Verifier, error) {
	v := &Verifier{w: w, shapes: map[string]uint16{}}
	for _, mod := range w.Modules {
		mc := &modCheck{first: make([]uint16, mod.NumPairs)}
		m := mod.Gen()
		if n := len(alias.Queries(m)); n != mod.NumPairs {
			return nil, fmt.Errorf("%s: client enumerates %d pairs, alias.Queries %d", mod.Name, mod.NumPairs, n)
		}
		switch w.Name {
		case BigBatch:
			rule, err := wideRule(mod, m)
			if err != nil {
				return nil, err
			}
			mc.rule = rule
		default:
			if err := mc.observe(mod, m); err != nil {
				return nil, err
			}
			row := (&experiments.Driver{Parallel: -1}).RunPrecision(mod.Name, m)
			mc.floor, mc.floorWhy = row.RplusB, fmt.Sprintf("r+b proves %d", row.RplusB)
			if row.Scev > mc.floor {
				mc.floor, mc.floorWhy = row.Scev, fmt.Sprintf("scev proves %d", row.Scev)
			}
		}
		v.mods = append(v.mods, mc)
	}
	return v, nil
}

// observe runs the module's main concretely and records which enumerated
// pairs collided, and how.
func (mc *modCheck) observe(mod *Module, m *ir.Module) error {
	col, err := interp.Observe(m, "main", interp.Options{MaxSteps: 1 << 22})
	if err != nil {
		return fmt.Errorf("%s: concrete execution: %v", mod.Name, err)
	}
	funcs := map[string]int{}
	index := make([]map[string]int, len(mod.Funcs))
	for fi, f := range mod.Funcs {
		funcs[f.Name] = fi
		index[fi] = make(map[string]int, len(f.Ptrs))
		for i, p := range f.Ptrs {
			index[fi][p] = i
		}
	}
	// ref maps two address operands to their pair of the enumeration; ok is
	// false when the service cannot be asked about them.
	ref := func(p, q *ir.Value) (PairRef, bool) {
		if p.Kind == ir.VConst || p.Kind == ir.VGlobal || q.Kind == ir.VConst || q.Kind == ir.VGlobal || p.Func != q.Func {
			return PairRef{}, false
		}
		fi, ok := funcs[p.Func.Name]
		if !ok {
			return PairRef{}, false
		}
		a, aok := index[fi][p.Name]
		b, bok := index[fi][q.Name]
		return PairRef{Func: fi, A: min(a, b), B: max(a, b)}, aok && bok
	}
	rules := map[PairRef]pairRule{}
	// Every same-moment collision is an absolute one too, so the first loop
	// sees every colliding pair and the second only strengthens the rule.
	for pair := range col.Absolute {
		p, q := pair.A.Args[0], pair.B.Args[0]
		if p == q {
			continue
		}
		r, ok := ref(p, q)
		if !ok {
			mc.skipped++
			continue
		}
		if _, seen := rules[r]; !seen {
			mc.collisions++
		}
		rules[r] = notAbsolute
	}
	for pair := range col.SameMoment {
		if r, ok := ref(pair.A.Args[0], pair.B.Args[0]); ok && pair.A.Args[0] != pair.B.Args[0] {
			rules[r] = mustMayAlias
		}
	}
	mc.rule = func(r PairRef) pairRule { return rules[r] }
	return nil
}

// ptrClass is where a WideBatch pointer points: an allocation and an offset
// that is a constant c, or n+c for the function's parameter n.
type ptrClass struct {
	obj   *ir.Value // nil: loaded from memory, not checked
	sym   bool
	konst int64
}

// wideRule derives bigbatch's expected answers from its construction.
// Pointers into different allocations never alias. Within one allocation,
// distinct constant offsets and distinct n+c offsets never alias. The base
// (offset 0) against an n+c pointer into it may alias: they meet at n = −c.
// Loaded pointers and constant-versus-symbolic pairs are not checked.
func wideRule(mod *Module, m *ir.Module) (func(PairRef) pairRule, error) {
	if len(mod.Funcs) != 1 || len(m.Funcs) != 1 {
		return nil, fmt.Errorf("%s: want one function", mod.Name)
	}
	f := m.Funcs[0]
	byName := map[string]ptrClass{}
	for _, v := range f.Values() {
		if v.Typ != ir.TPtr {
			continue
		}
		c, err := classify(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", mod.Name, err)
		}
		byName[v.Name] = c
	}
	cls := make([]ptrClass, len(mod.Funcs[0].Ptrs))
	for i, p := range mod.Funcs[0].Ptrs {
		cls[i] = byName[p]
	}
	return func(r PairRef) pairRule { return wideExpect(cls[r.A], cls[r.B]) }, nil
}

func wideExpect(p, q ptrClass) pairRule {
	switch {
	case p.obj == nil || q.obj == nil:
		return unchecked
	case p.obj != q.obj:
		return mustNoAlias
	case p.sym == q.sym && p.konst != q.konst:
		return mustNoAlias
	case p.sym == q.sym:
		return mustMayAlias
	case (!p.sym && p.konst == 0) || (!q.sym && q.konst == 0):
		return mustMayAlias
	}
	return unchecked
}

// classify reads a WideBatch pointer's allocation and offset off its
// defining instruction.
func classify(v *ir.Value) (ptrClass, error) {
	if v.Def == nil {
		return ptrClass{}, fmt.Errorf("pointer %s has no defining instruction", v.Name)
	}
	in := v.Def
	switch in.Op {
	case ir.OpAlloc:
		return ptrClass{obj: v}, nil
	case ir.OpLoad:
		return ptrClass{}, nil
	case ir.OpPtrAdd:
		base, off := in.Args[0], in.Args[1]
		if base.Def == nil || base.Def.Op != ir.OpAlloc {
			break
		}
		if c, ok := off.IsConst(); ok {
			return ptrClass{obj: base, konst: c}, nil
		}
		if d := off.Def; d != nil && d.Op == ir.OpAdd && d.Args[0].Kind == ir.VParam {
			if c, ok := d.Args[1].IsConst(); ok {
				return ptrClass{obj: base, sym: true, konst: c}, nil
			}
		}
	}
	return ptrClass{}, fmt.Errorf("pointer %s: unexpected definition %s", v.Name, in)
}

// fail records one check failure.
func (v *Verifier) fail(format string, args ...any) {
	v.fails++
	if len(v.report) < maxReported {
		v.report = append(v.report, fmt.Sprintf(format, args...))
	}
}

// shape returns the id of one raw answer, decoding it on first sight.
func (v *Verifier) shape(raw json.RawMessage) (uint16, error) {
	if id, ok := v.shapes[string(raw)]; ok {
		return id, nil
	}
	var r Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, err
	}
	if r.Result != noAlias && r.Result != mayAlias {
		return 0, fmt.Errorf("answer %s: result %q", raw, r.Result)
	}
	if len(v.res) == 1<<16-1 {
		return 0, fmt.Errorf("more than %d distinct answers", len(v.res))
	}
	id := uint16(len(v.res))
	v.res = append(v.res, r)
	v.shapes[string(raw)] = id
	return id, nil
}

// Batch checks one response to batch b.
func (v *Verifier) Batch(b Batch, body []byte) {
	v.last = v.last[:0]
	mod := v.w.Modules[b.Mod]
	var resp response
	if err := json.Unmarshal(body, &resp); err != nil {
		v.fail("%s batch at %d: decoding response: %v", mod.Name, b.Start, err)
		return
	}
	if resp.Module != mod.Name {
		v.fail("%s batch at %d: response names module %q", mod.Name, b.Start, resp.Module)
	}
	if len(resp.Results) != b.Size {
		v.fail("%s batch at %d: %d results for %d pairs", mod.Name, b.Start, len(resp.Results), b.Size)
		return
	}
	mc := v.mods[b.Mod]
	noalias := 0
	c := mod.cursorAt(b.Start)
	for k, raw := range resp.Results {
		id, err := v.shape(raw)
		if err != nil {
			v.fail("%s batch at %d, pair %d: %v", mod.Name, b.Start, k, err)
			return
		}
		v.last = append(v.last, id)
		r := &v.res[id]
		if r.Result == noAlias {
			noalias++
		}
		t := (b.Start + k) % mod.NumPairs
		if mc.first[t] == 0 {
			mc.first[t] = id + 1
		}
		ref := c.ref()
		if why := violates(mc.rule(ref), r); why != "" {
			f := mod.Funcs[ref.Func]
			v.fail("%s: %s(%s, %s) answered %s %v %q: %s", mod.Name, f.Name, f.Ptrs[ref.A], f.Ptrs[ref.B],
				r.Result, r.Provers, r.Detail, why)
		}
		c.next()
	}
	if noalias != resp.NoAlias {
		v.fail("%s batch at %d: noalias is %d, results hold %d", mod.Name, b.Start, resp.NoAlias, noalias)
	}
}

// violates returns why answer r breaks rule, or "".
func violates(rule pairRule, r *Result) string {
	switch rule {
	case mustNoAlias:
		if r.Result != noAlias {
			return "the construction proves no-alias"
		}
	case mustMayAlias:
		if r.Result != mayAlias {
			return "the pointers meet"
		}
	case notAbsolute:
		for _, p := range append([]string{r.Resolved}, r.Provers...) {
			if slices.Contains(absoluteForbidden, p) {
				return "collided concretely, yet " + p + " proves no-alias"
			}
			if p == "rbaa" && slices.Contains(rbaaGlobalReasons, r.Detail) {
				return "collided concretely, yet rbaa's " + r.Detail + " test proves no-alias"
			}
		}
	}
	return ""
}

// Reversed checks the response to batch b sent with every pair reversed
// against the answers of the preceding Batch call for b.
func (v *Verifier) Reversed(b Batch, body []byte) {
	mod := v.w.Modules[b.Mod]
	fwd := slices.Clone(v.last)
	if len(fwd) != b.Size {
		v.fail("%s batch at %d: no forward answers to compare the reversed batch with", mod.Name, b.Start)
		return
	}
	v.Batch(b, body)
	if len(v.last) != b.Size {
		return
	}
	c := mod.cursorAt(b.Start)
	for k := range fwd {
		if fwd[k] != v.last[k] {
			ref := c.ref()
			f := mod.Funcs[ref.Func]
			v.fail("%s: %s(%s, %s) answered %+v, reversed %+v", mod.Name, f.Name, f.Ptrs[ref.A], f.Ptrs[ref.B],
				v.res[fwd[k]], v.res[v.last[k]])
		}
		c.next()
	}
}

// Finish checks what only a whole pass shows — every pair answered, and
// each module's no-alias count at or above its floor — and returns an error
// describing every failure seen.
func (v *Verifier) Finish() error {
	for i, mc := range v.mods {
		mod := v.w.Modules[i]
		noalias, missing := 0, 0
		for _, id := range mc.first {
			switch {
			case id == 0:
				missing++
			case v.res[id-1].Result == noAlias:
				noalias++
			}
		}
		if missing > 0 {
			v.fail("%s: %d of %d pairs never answered", mod.Name, missing, mod.NumPairs)
		}
		if err := checkFloor(mod.Name, noalias, mc.floor, mc.floorWhy); err != nil {
			v.fail("%v", err)
		}
	}
	if v.fails == 0 {
		return nil
	}
	return fmt.Errorf("%d check failures; first %d:\n  %s", v.fails, len(v.report), strings.Join(v.report, "\n  "))
}

// checkFloor fails when the service proves fewer no-alias pairs than the
// experiments driver's chain walk over the same module.
func checkFloor(module string, noalias, floor int, why string) error {
	if noalias < floor {
		return fmt.Errorf("%s: service proves %d no-alias pairs over one pass, below the floor (%s)", module, noalias, why)
	}
	return nil
}

// Collisions returns how many concretely colliding pairs were checked and
// how many could not be asked.
func (v *Verifier) Collisions() (checked, skipped int) {
	for _, mc := range v.mods {
		checked += mc.collisions
		skipped += mc.skipped
	}
	return checked, skipped
}
