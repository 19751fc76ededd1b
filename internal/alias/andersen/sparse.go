package andersen

import (
	"math/bits"
	"slices"
)

// Sparse sets of abstract-object indices (allocation sites plus the ⊤
// marker bit) in alias.SetColumn's layout: a run of (word index, word)
// pairs, ascending by word index and with no zero word, where bit b is in
// the set when the pair with index b>>6 has bit b&63.

// arena holds the solver's growing points-to sets in shared arrays, so a
// set costs no slice header or allocation of its own. Set s occupies
// idx/words[off : off+n] of its span, with room up to cap. Every set starts
// with room for one pair, which is all most points-to sets ever need; a set
// that outgrows its room moves to the arena's end with at least double the
// room and abandons the old span, which nothing overwrites afterwards.
// Doubling bounds the abandoned space by the live room.
//
// Each pair also carries its done word: the bits of that word already
// propagated. The done set is a subset of the set, so it needs no word
// indices of its own; a pair added by a union starts with nothing done.
type arena struct {
	spans []span
	idx   []int32
	words []uint64
	done  []uint64
}

type span struct{ off, n, cap int32 }

func newArena(sets int32) arena {
	a := arena{
		spans: make([]span, sets),
		idx:   make([]int32, sets),
		words: make([]uint64, sets),
		done:  make([]uint64, sets),
	}
	for s := range sets {
		a.spans[s] = span{off: s, cap: 1}
	}
	return a
}

// get returns set s's pairs. The slices alias the arena: they see later
// in-place updates of s but not a move, so re-read them after s grows.
func (a *arena) get(s int32) ([]int32, []uint64) {
	sp := a.spans[s]
	return a.idx[sp.off : sp.off+sp.n], a.words[sp.off : sp.off+sp.n]
}

// top reports whether set s holds bit t, the highest bit any set holds (the
// ⊤ marker): it can only sit in the last pair.
func (a *arena) top(s int32, t int) bool {
	sp := a.spans[s]
	if sp.n == 0 {
		return false
	}
	last := sp.off + sp.n - 1
	return a.idx[last] == int32(t>>6) && a.words[last]&(1<<uint(t&63)) != 0
}

// add sets bit b in set s, reporting whether it was clear.
func (a *arena) add(s int32, b int) bool {
	k, w := [1]int32{int32(b >> 6)}, [1]uint64{1 << uint(b&63)}
	return a.union(s, k[:], w[:])
}

// union adds the pairs (si, sw) to set d, reporting whether d grew. The
// source must not be d's own pairs; it may be another set's.
func (a *arena) union(d int32, si []int32, sw []uint64) bool {
	di, dw := a.get(d)
	// Count the source words d lacks, and whether any shared word adds a bit.
	fresh, grew := int32(0), false
	x := 0
	for y, k := range si {
		for x < len(di) && di[x] < k {
			x++
		}
		if x < len(di) && di[x] == k {
			grew = grew || sw[y]&^dw[x] != 0
		} else {
			fresh++
		}
	}
	if fresh == 0 {
		if !grew {
			return false
		}
		x = 0
		for y, k := range si {
			for di[x] < k {
				x++
			}
			dw[x] |= sw[y]
		}
		return true
	}
	sp := &a.spans[d]
	n, m := sp.n, sp.n+fresh
	if m > sp.cap {
		a.relocate(sp, m)
	}
	// Merge from the back, so d's pairs are read before they are
	// overwritten. A source in this arena is never written here, and after
	// a move it still reads its unchanged pairs from the old arrays.
	oi, ow, od := a.idx[sp.off:sp.off+m], a.words[sp.off:sp.off+m], a.done[sp.off:sp.off+m]
	i, j := n-1, int32(len(si))-1
	for k := m - 1; j >= 0; k-- {
		switch {
		case i >= 0 && oi[i] > si[j]:
			oi[k], ow[k], od[k] = oi[i], ow[i], od[i]
			i--
		case i >= 0 && oi[i] == si[j]:
			oi[k], ow[k], od[k] = oi[i], ow[i]|sw[j], od[i]
			i--
			j--
		default:
			oi[k], ow[k], od[k] = si[j], sw[j], 0
			j--
		}
	}
	sp.n = m
	return true
}

// relocate moves the set at sp to fresh room for at least want pairs at
// the arena's end, keeping its pairs first.
func (a *arena) relocate(sp *span, want int32) {
	room := max(want, 2*sp.cap)
	off := int32(len(a.idx))
	a.idx = slices.Grow(a.idx, int(room))[:off+room]
	a.words = slices.Grow(a.words, int(room))[:off+room]
	a.done = slices.Grow(a.done, int(room))[:off+room]
	copy(a.idx[off:], a.idx[sp.off:sp.off+sp.n])
	copy(a.words[off:], a.words[sp.off:sp.off+sp.n])
	copy(a.done[off:], a.done[sp.off:sp.off+sp.n])
	sp.off, sp.cap = off, room
}

// takeDelta appends to (ki, kw) the pairs of set s's bits not yet done and
// marks the whole set done.
func (a *arena) takeDelta(s int32, ki []int32, kw []uint64) ([]int32, []uint64) {
	sp := a.spans[s]
	for x := sp.off; x < sp.off+sp.n; x++ {
		if w := a.words[x] &^ a.done[x]; w != 0 {
			ki = append(ki, a.idx[x])
			kw = append(kw, w)
			a.done[x] = a.words[x]
		}
	}
	return ki, kw
}

// forEach calls f for every bit of the pairs (ki, kw) in ascending order.
func forEach(ki []int32, kw []uint64, f func(b int)) {
	for x, k := range ki {
		for w := kw[x]; w != 0; w &= w - 1 {
			f(int(k)<<6 + bits.TrailingZeros64(w))
		}
	}
}
