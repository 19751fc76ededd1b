package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder flags inconsistent mutex acquisition order — the static-lock-
// graph analysis behind the registry/cache/pool concurrency story. A
// held-set dataflow (union join over the CFG) tracks which mutexes may be
// held at each acquisition; every "acquire B while holding A" adds the edge
// A→B to a program-wide lock graph, including acquisitions reached through
// local callees via the interprocedural may-acquire summaries of locks.go.
// A cycle in the graph is a potential deadlock and is reported once at each
// participating in-package acquisition site. Acquiring a lock that the
// held-set says is already exclusively held through the same receiver
// expression is reported as a self-deadlock.
//
// Deferred unlocks keep the lock held for the rest of the function (that is
// their point); `go` statements start a fresh goroutine, so neither the
// held set nor the callee's locks order against the caller's.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "flags lock-order inversion cycles and recursive acquisitions via a " +
		"held-set dataflow and a program-wide static lock graph",
	Run: runLockOrder,
}

// heldEntry is one held lock: its mode bits and the receiver expression it
// was acquired through (for self-deadlock precision across shard loops:
// two distinct shards share a field identity but not a rendered receiver).
type heldEntry struct {
	bits uint8
	text string
}

type heldFact map[*types.Var]heldEntry

// lockOrderProblem is the held-set dataflow for one function body.
type lockOrderProblem struct {
	prog  *Program
	info  *types.Info
	graph *lockGraph

	// findings dedups self-deadlock reports across fixpoint revisits.
	findings map[token.Pos]string
}

func (p *lockOrderProblem) Entry() any                   { return heldFact{} }
func (p *lockOrderProblem) FlowEdge(e *CEdge, f any) any { return f }

func (p *lockOrderProblem) Join(a, b any) any {
	fa, fb := a.(heldFact), b.(heldFact)
	out := make(heldFact, len(fa)+len(fb))
	for k, v := range fa {
		out[k] = v
	}
	for k, v := range fb {
		if old, ok := out[k]; ok {
			old.bits |= v.bits
			out[k] = old
		} else {
			out[k] = v
		}
	}
	return out
}

func (p *lockOrderProblem) Equal(a, b any) bool {
	fa, fb := a.(heldFact), b.(heldFact)
	if len(fa) != len(fb) {
		return false
	}
	for k, v := range fa {
		if fb[k] != v {
			return false
		}
	}
	return true
}

func (p *lockOrderProblem) Transfer(n ast.Node, fact any) any {
	switch n.(type) {
	case *ast.DeferStmt:
		// Deferred unlocks run at function exit; the lock stays held here.
		return fact
	case *ast.GoStmt:
		// A new goroutine: its acquisitions do not order against ours.
		return fact
	}
	held := fact.(heldFact)
	copied := false
	mutate := func() heldFact {
		if !copied {
			cp := make(heldFact, len(held))
			for k, v := range held {
				cp[k] = v
			}
			held, copied = cp, true
		}
		return held
	}
	inspectNodeShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj, text, meth := mutexMethod(p.info, call); obj != nil {
			switch meth {
			case "Lock", "TryLock", "RLock", "TryRLock":
				bits := uint8(lockExcl)
				if strings.HasPrefix(meth, "R") || strings.HasPrefix(meth, "TryR") {
					bits = lockShared
				}
				if e, ok := held[obj]; ok && e.bits&lockExcl != 0 && bits == lockExcl && e.text == text {
					p.note(call.Pos(), fmt.Sprintf(
						"%s locked again while already held (self-deadlock)", text))
				}
				for h := range held {
					if h != obj {
						p.graph.addEdge(h, obj, call.Pos(),
							fmt.Sprintf("%s while holding %s", lockName(obj), lockName(h)))
					}
				}
				e := mutate()[obj]
				e.bits |= bits
				if e.text == "" {
					e.text = text
				}
				mutate()[obj] = e
			case "Unlock", "RUnlock":
				if _, ok := held[obj]; ok {
					delete(mutate(), obj)
				}
			}
			return true
		}
		if callee := calleeObj(p.info, call); callee != nil && len(held) > 0 {
			for acq := range lockSummaryOf(p.prog, callee) {
				for h := range held {
					if h != acq {
						p.graph.addEdge(h, acq, call.Pos(), fmt.Sprintf(
							"%s via %s while holding %s", lockName(acq), callee.Name(), lockName(h)))
					}
				}
			}
		}
		return true
	})
	return held
}

func (p *lockOrderProblem) note(pos token.Pos, msg string) {
	if p.findings == nil {
		p.findings = map[token.Pos]string{}
	}
	p.findings[pos] = msg
}

// inspectNodeShallow walks one CFG node without descending into function
// literals (their bodies are separate CFGs).
func inspectNodeShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return f(m)
	})
}

func runLockOrder(pass *Pass) error {
	graph := lockGraphOf(pass.Prog)
	prob := &lockOrderProblem{prog: pass.Prog, info: pass.TypesInfo(), graph: graph}
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, body := range funcBodies(fd.Body) {
				Fixpoint(BuildCFG(body), prob)
			}
		}
	}
	// Self-deadlocks, sorted for determinism.
	var poss []token.Pos
	for pos := range prob.findings {
		poss = append(poss, pos)
	}
	sort.Slice(poss, func(i, j int) bool { return poss[i] < poss[j] })
	for _, pos := range poss {
		pass.Reportf(pos, "%s", prob.findings[pos])
	}
	// Cycle detection over the accumulated graph. A cycle is reported once,
	// at each of its in-package edges (other packages' passes see the cycle
	// key as already reported).
	for _, c := range graph.findCycles(pass.Fset()) {
		names := make([]string, 0, len(c.nodes)+1)
		for _, n := range c.nodes {
			names = append(names, lockName(n))
		}
		names = append(names, lockName(c.nodes[0]))
		desc := strings.Join(names, " → ")
		graph.mu.Lock()
		var local, all []lockEdgeInfo
		for i, from := range c.nodes {
			to := c.nodes[(i+1)%len(c.nodes)]
			if e, ok := graph.edges[from][to]; ok {
				all = append(all, e)
				if posInPackage(pass, e.pos) {
					local = append(local, e)
				}
			}
		}
		graph.mu.Unlock()
		if len(local) == 0 && len(all) > 0 {
			// Cross-package cycle with no local edge: report the first edge
			// so the finding is never silently dropped.
			local = all[:1]
		}
		for _, e := range local {
			pass.Reportf(e.pos, "lock acquisition order cycle: %s (this edge acquires %s)",
				desc, e.text)
		}
	}
	return nil
}

// posInPackage reports whether pos falls inside one of the pass package's
// files.
func posInPackage(pass *Pass, pos token.Pos) bool {
	for _, f := range pass.Files() {
		if f.FileStart <= pos && pos < f.FileEnd {
			return true
		}
	}
	return false
}
