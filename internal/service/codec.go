package service

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"

	"repro/internal/alias"
	"repro/internal/ir"
)

// The POST /v1/query wire codec. The hot path reads the body into a pooled
// buffer and walks it once in the fast shape
//
//	{"module":S,"pairs":[{"func":S,"a":S,"b":S},…]}
//
// with JSON whitespace anywhere, keys in any order but each exactly once,
// and every string printable ASCII without a backslash. The names stay
// sub-slices of the body until the validate stage resolves them against
// the handle's value index with non-allocating m[string(b)] lookups. Any
// other body — escapes, non-ASCII or invalid UTF-8, keys encoding/json
// would match case-insensitively or ignore, duplicate keys, null or
// non-string values, missing fields, bytes after the closing brace — is
// decoded by encoding/json from the same bytes, so the accepted inputs and
// the error messages are exactly encoding/json's. The encoder appends each
// verdict's JSON into a pooled byte slice, byte-identical to json.Marshal
// of the equivalent QueryResponse.

// queryBuf is the per-request scratch of one batch, recycled through
// queryBufPool and nowhere else: a buffer kept on Service or Handle would
// outlive every GC, where a pooled one is dropped after two.
type queryBuf struct {
	body bytes.Buffer
	// raw holds the fast path's scanned pairs, sub-slices of body; nothing
	// may keep them past the request.
	raw []rawPair
	// fallback marks a body encoding/json decoded into pairs.
	fallback bool
	pairs    []Pair

	resolved []resolvedPair
	sorted   []resolvedPair // shard stage: resolved, grouped by function
	shards   []shard
	vals     []*ir.Value // plan stage: one shard's values
	verdicts []alias.Verdict
	out      []byte // the encoded response
}

var queryBufPool = sync.Pool{New: func() any { return new(queryBuf) }}

func getQueryBuf() *queryBuf { return queryBufPool.Get().(*queryBuf) }

// putQueryBuf recycles b. The caller must be done with everything it
// holds: the next request overwrites it.
func putQueryBuf(b *queryBuf) {
	b.pairs = nil
	queryBufPool.Put(b)
}

// grow returns s resized to n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// rawPair is one scanned pair: sub-slices of the pooled request body.
type rawPair struct{ fn, a, b []byte }

// decode is the decode stage over the body read into b.body: the fast-shape
// scan, or encoding/json when the scanner declines. It returns the module
// name and the number of pairs; the names stay in b for resolve. The scan
// keeps at most maxPairs pairs but counts them all, so an oversized batch
// costs no more scratch than a full one and still reports its size.
func (b *queryBuf) decode(maxPairs int) (module string, n int, err error) {
	if mod, n, ok := b.scan(maxPairs); ok {
		b.fallback, b.pairs = false, nil
		return string(mod), n, nil
	}
	var req QueryRequest
	if err := json.NewDecoder(bytes.NewReader(b.body.Bytes())).Decode(&req); err != nil {
		return "", 0, err
	}
	b.fallback, b.pairs = true, req.Pairs
	return req.Module, len(req.Pairs), nil
}

// resolve is the validate stage over the decoded names (see resolveNames).
func (b *queryBuf) resolve(h *Handle, out []resolvedPair) error {
	if b.fallback {
		return resolveBatch(h, b.pairs, out)
	}
	raw := b.raw
	return resolveNames(h, out, func(i int) ([]byte, []byte, []byte) {
		return raw[i].fn, raw[i].a, raw[i].b
	})
}

// scan walks the body in the fast shape, filling b.raw with up to maxPairs
// pairs. ok is false when the body is not in the fast shape.
func (b *queryBuf) scan(maxPairs int) (module []byte, n int, ok bool) {
	s := scanner{buf: b.body.Bytes()}
	raw := b.raw[:0]
	var seen uint8
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "module":
			if seen&1 != 0 {
				return false
			}
			seen |= 1
			var ok bool
			module, ok = s.str()
			return ok
		case "pairs":
			if seen&2 != 0 {
				return false
			}
			seen |= 2
			return s.array(func() bool {
				p, ok := s.pair()
				if n < maxPairs {
					raw = append(raw, p)
				}
				n++
				return ok
			})
		}
		return false
	})
	b.raw = raw
	s.skipSpace()
	return module, n, ok && seen == 3 && s.pos == len(s.buf)
}

// scanner is the fast-shape cursor over one body.
type scanner struct {
	buf []byte
	pos int
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// lit consumes the byte c after optional whitespace.
func (s *scanner) lit(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// str consumes one fast-shape string and returns its contents.
func (s *scanner) str() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	start := s.pos
	for ; s.pos < len(s.buf); s.pos++ {
		switch c := s.buf[s.pos]; {
		case c == '"':
			s.pos++
			return s.buf[start : s.pos-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// object consumes one object, calling field after each key and its colon;
// field consumes the value and reports whether it was in the fast shape.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.lit(':') || !field(key) {
			return false
		}
		if s.lit('}') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// array consumes one array, calling elem to consume each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.lit('[') {
		return false
	}
	if s.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.lit(']') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// pair consumes one {"func":S,"a":S,"b":S} object.
func (s *scanner) pair() (rawPair, bool) {
	var p rawPair
	var seen uint8
	ok := s.object(func(key []byte) bool {
		var bit uint8
		var dst *[]byte
		switch string(key) {
		case "func":
			bit, dst = 1, &p.fn
		case "a":
			bit, dst = 2, &p.a
		case "b":
			bit, dst = 4, &p.b
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		var ok bool
		*dst, ok = s.str()
		return ok
	})
	return p, ok && seen == 7
}

// wireNames are a module's names quoted once at build time with
// json.Marshal, so the encoder's HTML escaping and U+2028/U+2029 handling
// are encoding/json's own.
type wireNames struct {
	module  []byte
	members [][]byte // by chain position
}

func newWireNames(module string, ix *alias.Index) wireNames {
	quote := func(s string) []byte {
		b, _ := json.Marshal(s) // a string always marshals
		return b
	}
	w := wireNames{module: quote(module), members: make([][]byte, ix.NumMembers())}
	for i := range w.members {
		w.members[i] = quote(ix.MemberName(i))
	}
	return w
}

// appendResponse is the encode stage: it appends the bytes writeJSON would
// produce for QueryResponse{Module: h.Name, Results: the verdicts rendered
// by encodeVerdict, NoAlias: noAlias, Trace: echo}, trailing newline
// included. The request's module name is h.Name: the registry matched it
// exactly.
func appendResponse(dst []byte, h *Handle, verdicts []alias.Verdict, noAlias int, echo *TraceEcho) []byte {
	dst = append(dst, `{"module":`...)
	dst = append(dst, h.wire.module...)
	dst = append(dst, `,"results":[`...)
	for i := range verdicts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendVerdict(dst, h.wire.members, &verdicts[i])
	}
	dst = append(dst, `],"noalias":`...)
	dst = strconv.AppendInt(dst, int64(noAlias), 10)
	if echo != nil {
		b, _ := json.Marshal(echo) // strings and finite floats always marshal
		dst = append(dst, `,"trace":`...)
		dst = append(dst, b...)
	}
	return append(dst, "}\n"...)
}

// appendVerdict appends the JSON of encodeVerdict's Result for v, given the
// chain's quoted member names: the omitempty fields appear exactly when
// encodeVerdict would set them.
func appendVerdict(dst []byte, members [][]byte, v *alias.Verdict) []byte {
	dst = append(dst, `{"result":`...)
	dst = appendString(dst, v.Result.String())
	if v.Result == alias.NoAlias && v.Resolved >= 0 {
		if name := members[v.Resolved]; len(name) > len(`""`) {
			dst = append(dst, `,"resolved":`...)
			dst = append(dst, name...)
		}
	}
	sep := `,"provers":[`
	for i, name := range members {
		if v.MemberNoAlias(i) {
			dst = append(dst, sep...)
			dst = append(dst, name...)
			sep = ","
		}
	}
	if sep == "," {
		dst = append(dst, ']')
	}
	for i := range members {
		if d := v.Detail(i); d != "" {
			dst = append(dst, `,"detail":`...)
			dst = appendString(dst, d)
			break
		}
	}
	return append(dst, '}')
}

// appendString appends s as a JSON string the way encoding/json renders it:
// verbatim between quotes when s is printable ASCII with nothing to escape,
// through json.Marshal otherwise.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
