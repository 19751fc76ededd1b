// Package bench holds what the aliasd benchmark's timed command and its
// traced run share: the workloads' inputs, the in-process client that drives
// Service.Handler, the output checks and the statistics.
//
// It reaches the program only through service.New, service.Config and
// Service.Handler; benchgen, ir, interp, experiments and alias.Queries
// supply the inputs and the checks. A change that deletes or reshapes a
// layer behind the handler therefore leaves this package building.
package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/benchgen"
	"repro/internal/ir"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	BigBatch = "bigbatch"
	Corpus   = "corpus"
	Scale    = "scale"
)

// Batch sizes per workload, in pairs.
const (
	bigBatchPairs = 4096
	corpusPairs   = 512
	scalePairs    = 1024
)

// seedStride spreads the --seed offset over benchgen's seeds so that two
// nearby benchmark seeds never regenerate a neighbouring config's program.
const seedStride = 1_000_003

// Func is one function of a module as the client sees it: its name and its
// pointer values in enumeration order. Names are kept JSON-quoted, ready to
// append to a request body.
type Func struct {
	Name  string
	Ptrs  []string
	qName []byte
	qPtrs [][]byte
}

// Pairs returns the number of unordered pointer pairs of f.
func (f *Func) Pairs() int { return len(f.Ptrs) * (len(f.Ptrs) - 1) / 2 }

// Module is one uploaded program: its IR text (dropped after upload), its
// size, and the pair enumeration the client walks.
type Module struct {
	Name   string
	Src    string
	Instrs int
	Funcs  []*Func
	// NumPairs is the length of the enumeration: every unordered pair of
	// distinct pointer values within one function, as alias.Queries
	// enumerates them.
	NumPairs int
	// Gen regenerates the module for the checks; generation is
	// deterministic, so it yields the program that was uploaded.
	Gen   func() *ir.Module
	qName []byte
}

// Batch is one request: Size pairs of one module's enumeration starting at
// pair Start. A batch that runs past the end wraps to the start.
type Batch struct {
	Mod   int
	Start int
	Size  int
}

// Workload is one benchmark input: the modules to upload and the distinct
// batches one round sends, in sending order.
type Workload struct {
	Name    string
	Seed    int64
	Modules []*Module
	Batches []Batch
	// Warmup is how many batches (cycling Batches) are sent after the
	// uploads and before the timed phase. Zero for scale, whose first
	// round is the cold compiler-client pass.
	Warmup int
}

// SrcBytes returns the bytes of module text the workload holds.
func (w *Workload) SrcBytes() int64 {
	var n int64
	for _, m := range w.Modules {
		n += int64(len(m.Src))
	}
	return n
}

// New generates the named workload for seed. Seed 0 is the default: the
// benchgen seeds as the repository ships them and pointer order as
// alias.Queries enumerates it. Any other seed offsets every benchgen seed
// and shuffles each function's pointer order, which reorders the pairs.
func New(name string, seed int64) (*Workload, error) {
	w := &Workload{Name: name, Seed: seed}
	switch name {
	case BigBatch:
		w.Modules = []*Module{newModule(0, seed, func() *ir.Module {
			return benchgen.WideBatch("bigbatch", 1600)
		})}
		w.Batches = wrappedBatches(0, w.Modules[0].NumPairs, bigBatchPairs)
		w.Warmup = 32
	case Corpus:
		per := make([][]Batch, 0, 22)
		for i, c := range benchgen.Fig13Configs() {
			m := newModule(i, seed, genFunc(c, seed))
			w.Modules = append(w.Modules, m)
			per = append(per, wrappedBatches(i, m.NumPairs, corpusPairs))
		}
		// Round-robin across modules: the j-th batch of every module that
		// has one, for j = 0, 1, … — one round is one pass over every
		// module's enumeration.
		for j := 0; ; j++ {
			sent := false
			for _, bs := range per {
				if j < len(bs) {
					w.Batches = append(w.Batches, bs[j])
					sent = true
				}
			}
			if !sent {
				break
			}
		}
		w.Warmup = 4 * len(w.Batches)
	case Scale:
		cfgs := benchgen.ScalabilityConfigs(50)
		for i := 4; i < len(cfgs); i += 5 {
			k := len(w.Modules)
			m := newModule(k, seed, genFunc(cfgs[i], seed))
			w.Modules = append(w.Modules, m)
			// Each pair once, module after module, as a compiler client
			// asks: the last batch of a module is short.
			for start := 0; start < m.NumPairs; start += scalePairs {
				w.Batches = append(w.Batches, Batch{Mod: k, Start: start, Size: min(scalePairs, m.NumPairs-start)})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, BigBatch, Corpus, Scale)
	}
	for _, m := range w.Modules {
		if m.NumPairs == 0 {
			return nil, fmt.Errorf("module %s has no pointer pairs", m.Name)
		}
	}
	return w, nil
}

// genFunc returns the generator of c with its seed offset by the benchmark
// seed.
func genFunc(c benchgen.Config, seed int64) func() *ir.Module {
	c.Seed += seed * seedStride
	return func() *ir.Module { return benchgen.Generate(c) }
}

// wrappedBatches cuts an enumeration of n pairs into ⌈n/size⌉ batches of
// exactly size pairs; the last one wraps around to the start, so a module
// with fewer than size pairs repeats its enumeration within one batch.
func wrappedBatches(mod, n, size int) []Batch {
	var out []Batch
	for start := 0; start < n; start += size {
		out = append(out, Batch{Mod: mod, Start: start, Size: size})
	}
	return out
}

// newModule generates a module, prints its text and records its pointer
// lists; the IR itself is dropped so the client's heap stays small.
func newModule(index int, seed int64, gen func() *ir.Module) *Module {
	m := gen()
	// The clone sizes the text's heap object to its length, which is what
	// the retained-heap accounting subtracts once the text is dropped.
	out := &Module{Name: m.Name, Src: strings.Clone(m.String()), Instrs: m.Stats().Instrs, Gen: gen, qName: quote(m.Name)}
	var rng *rand.Rand
	if seed != 0 {
		rng = rand.New(rand.NewSource(seed*seedStride + int64(index)))
	}
	for _, f := range m.Funcs {
		fn := &Func{Name: f.Name, qName: quote(f.Name)}
		for _, v := range f.Values() {
			if v.Typ == ir.TPtr {
				fn.Ptrs = append(fn.Ptrs, v.Name)
			}
		}
		if len(fn.Ptrs) < 2 {
			continue
		}
		if rng != nil {
			rng.Shuffle(len(fn.Ptrs), func(i, j int) { fn.Ptrs[i], fn.Ptrs[j] = fn.Ptrs[j], fn.Ptrs[i] })
		}
		for _, p := range fn.Ptrs {
			fn.qPtrs = append(fn.qPtrs, quote(p))
		}
		out.Funcs = append(out.Funcs, fn)
		out.NumPairs += fn.Pairs()
	}
	return out
}

func quote(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

// PairRef is one pair of a module's enumeration: function index and the
// indices of both pointers in its Ptrs, with A < B.
type PairRef struct {
	Func, A, B int
}

// cursor walks a module's enumeration, wrapping at its end.
type cursor struct {
	m       *Module
	f, a, b int
}

// cursorAt positions a cursor on pair t (0 ≤ t < NumPairs).
func (m *Module) cursorAt(t int) cursor {
	c := cursor{m: m}
	for c.f = 0; t >= m.Funcs[c.f].Pairs(); c.f++ {
		t -= m.Funcs[c.f].Pairs()
	}
	n := len(m.Funcs[c.f].Ptrs)
	for c.a = 0; t >= n-1-c.a; c.a++ {
		t -= n - 1 - c.a
	}
	c.b = c.a + 1 + t
	return c
}

func (c *cursor) ref() PairRef { return PairRef{c.f, c.a, c.b} }

func (c *cursor) next() {
	n := len(c.m.Funcs[c.f].Ptrs)
	if c.b++; c.b < n {
		return
	}
	if c.a++; c.a < n-1 {
		c.b = c.a + 1
		return
	}
	c.f = (c.f + 1) % len(c.m.Funcs)
	c.a, c.b = 0, 1
}

// Refs returns the pairs of b in request order.
func (w *Workload) Refs(b Batch) []PairRef {
	out := make([]PairRef, 0, b.Size)
	c := w.Modules[b.Mod].cursorAt(b.Start)
	for k := 0; k < b.Size; k++ {
		out = append(out, c.ref())
		c.next()
	}
	return out
}

// AppendBody appends the POST /v1/query body of b to dst. With reversed
// set, every pair is sent as (b, a) instead of (a, b).
func (w *Workload) AppendBody(dst []byte, b Batch, reversed bool) []byte {
	m := w.Modules[b.Mod]
	dst = append(dst, `{"module":`...)
	dst = append(dst, m.qName...)
	dst = append(dst, `,"pairs":[`...)
	c := m.cursorAt(b.Start)
	for k := 0; k < b.Size; k++ {
		if k > 0 {
			dst = append(dst, ',')
		}
		f := m.Funcs[c.f]
		x, y := f.qPtrs[c.a], f.qPtrs[c.b]
		if reversed {
			x, y = y, x
		}
		dst = append(dst, `{"func":`...)
		dst = append(dst, f.qName...)
		dst = append(dst, `,"a":`...)
		dst = append(dst, x...)
		dst = append(dst, `,"b":`...)
		dst = append(dst, y...)
		dst = append(dst, '}')
		c.next()
	}
	return append(dst, "]}"...)
}
