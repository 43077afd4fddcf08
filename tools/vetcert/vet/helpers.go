package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// Well-known engine package suffixes. Rules match packages by import
// path suffix so the same rule binds to certsql/internal/guard in the
// real module and to eng/internal/guard in the self-test corpus.
const (
	guardPkg = "internal/guard"
	tablePkg = "internal/table"
	evalPkg  = "internal/eval"
	planPkg  = "internal/plan"
)

// governorMethods are the calls that constitute "touching the
// Governor" on a hot path: polling, budget checks, charges, and the
// fault-injection hook (which every instrumented site calls).
var governorMethods = map[string]bool{
	"Poll": true, "CheckRows": true, "ChargeCost": true, "ChargeMem": true, "Fault": true,
}

// calleeOf resolves the object a call expression invokes: the
// *types.Func for direct calls and method calls, nil for calls through
// function-typed variables, conversions, and builtins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isMethodOn reports whether fn is a method named name whose receiver's
// type is the named type typeName declared in a package whose import
// path ends in pkgSuffix.
func isMethodOn(fn *types.Func, pkgSuffix, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && PathHasSuffix(obj.Pkg(), pkgSuffix)
}

// namedOf unwraps pointers and aliases down to the *types.Named, nil
// for everything else.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(u)
		default:
			return nil
		}
	}
}

// isGovernorCall reports whether call invokes one of the Governor's
// governance methods (Poll/CheckRows/ChargeCost/ChargeMem/Fault).
func isGovernorCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil || !governorMethods[fn.Name()] {
		return false
	}
	return isMethodOn(fn, guardPkg, "Governor", fn.Name())
}

// guardSentinelUse resolves an expression to the guard sentinel
// variable it references (an exported package-level Err* var declared
// in internal/guard), or nil.
func guardSentinelUse(info *types.Info, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || !PathHasSuffix(v.Pkg(), guardPkg) {
		return nil
	}
	if !strings.HasPrefix(v.Name(), "Err") || !v.Exported() {
		return nil
	}
	// Only package-level sentinels count; a local err variable that
	// happens to be named ErrX is not part of the taxonomy.
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// callGraph is the package-local static call graph: which top-level
// function declarations (including calls made from closures inside
// them) call which same-package top-level functions.
type callGraph struct {
	decls map[*types.Func]*ast.FuncDecl
	calls map[*types.Func][]*types.Func          // intra-package edges
	hits  map[*types.Func]map[*ast.CallExpr]bool // direct calls, for predicates
}

// graph computes (once per package) the package-local call graph.
func (p *Pass) graph() *callGraph {
	if p.state.graph != nil {
		return p.state.graph
	}
	g := &callGraph{
		decls: map[*types.Func]*ast.FuncDecl{},
		calls: map[*types.Func][]*types.Func{},
		hits:  map[*types.Func]map[*ast.CallExpr]bool{},
	}
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[fn] = fd
			g.hits[fn] = map[*ast.CallExpr]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				g.hits[fn][call] = true
				if callee := calleeOf(info, call); callee != nil && callee.Pkg() == p.Pkg.Types {
					g.calls[fn] = append(g.calls[fn], callee)
				}
				return true
			})
		}
	}
	p.state.graph = g
	return g
}

// reaches computes the set of top-level functions that satisfy pred
// directly or through any chain of same-package calls — the fixed
// point rules use to accept governance (or memory release) delegated
// to a helper.
func (g *callGraph) reaches(info *types.Info, pred func(*ast.CallExpr) bool) map[*types.Func]bool {
	sat := map[*types.Func]bool{}
	for fn, calls := range g.hits {
		for call := range calls {
			if pred(call) {
				sat[fn] = true
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range g.decls {
			if sat[fn] {
				continue
			}
			for _, callee := range g.calls[fn] {
				if sat[callee] {
					sat[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return sat
}

// enclosingFuncDecl returns the top-level function declaration whose
// body contains pos, nil at file scope.
func enclosingFuncDecl(files []*ast.File, pos ast.Node) *ast.FuncDecl {
	for _, file := range files {
		if pos.Pos() < file.Pos() || pos.Pos() >= file.End() {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Pos() <= pos.Pos() && pos.Pos() < fd.End() {
				return fd
			}
		}
	}
	return nil
}

// funcDecls iterates the package's top-level function declarations
// that have bodies.
func (p *Pass) funcDecls(fn func(*ast.FuncDecl, *types.Func)) {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fn(fd, obj)
		}
	}
}
