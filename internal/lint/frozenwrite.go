package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FrozenWrite flags assignments to fields of types annotated
// "aliaslint:frozen" outside their constructor/build functions.
//
// A frozen type is read-only after construction: the compiled
// FuncIndex/Index columns, planner Plans and interned symbolic.Exprs are
// all shared across goroutines on the strength of this contract, which
// until now lived only in comments. The analyzer makes it mechanical: a
// write to a frozen field — `x.F = v`, `x.F += v`, `x.F++`, or a write
// through a field's map/slice (`x.F[k] = v`) — is a finding unless the
// enclosing function is an approved initializer.
//
// Approved initializers are, in the frozen type's own package only:
// functions named like constructors (prefixes new/New/build/Build/make/Make,
// plus init), and functions explicitly annotated "aliaslint:mutator".
var FrozenWrite = &Analyzer{
	Name: "frozenwrite",
	Doc: "flags writes to fields of aliaslint:frozen types outside their " +
		"constructor/build functions",
	Run: runFrozenWrite,
}

func runFrozenWrite(pass *Pass) error {
	info := pass.TypesInfo()

	// frozenBase returns the frozen named type that expr ultimately writes
	// into, or nil. It unwraps writes through field maps/slices/arrays and
	// pointer indirection: `fi.vnum[i] = -1` writes FuncIndex state.
	var frozenBase func(e ast.Expr) *types.Named
	frozenBase = func(e ast.Expr) *types.Named {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			// Only field selections count; method values cannot be assigned.
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				if tv, ok := info.Types[e.X]; ok {
					if n := namedOf(tv.Type); n != nil && pass.Annotated(n.Obj(), "frozen") {
						return n
					}
				}
				// The base itself may be a frozen field of a frozen value
				// deeper down (x.Plan.pos[i] = …).
				return frozenBase(e.X)
			}
			return nil
		case *ast.IndexExpr:
			return frozenBase(e.X)
		case *ast.StarExpr:
			return frozenBase(e.X)
		}
		return nil
	}

	for _, file := range pass.Files() {
		allowed := func(at ast.Node, frozen *types.Named) bool {
			fd := enclosingFuncDecl(file, at)
			if fd == nil {
				return true // package-level var initializer
			}
			// Same-package rule: a foreign package can never write.
			if frozen.Obj().Pkg() != pass.Pkg.Types {
				return false
			}
			obj := info.Defs[fd.Name]
			if pass.Annotated(obj, "mutator") {
				return true
			}
			return isConstructorName(fd.Name.Name)
		}
		report := func(at ast.Node, frozen *types.Named, how string) {
			pass.Reportf(at.Pos(),
				"%s %s of frozen type %s outside its constructor/build functions; "+
					"%s is read-only after construction (mark an approved writer with aliaslint:mutator)",
				how, "field", frozen.Obj().Name(), frozen.Obj().Name())
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range n.Lhs {
					if frozen := frozenBase(lhs); frozen != nil && !allowed(n, frozen) {
						report(n, frozen, "assignment to")
					}
				}
			case *ast.IncDecStmt:
				if frozen := frozenBase(n.X); frozen != nil && !allowed(n, frozen) {
					report(n, frozen, "increment/decrement of")
				}
			}
			return true
		})
	}
	return nil
}
