package lint

import (
	"go/ast"
	"go/types"
)

// AtomicSwapAnalyzer freezes the copy-on-write publication discipline of
// the serving stack (DESIGN.md §10, §13): registry-style atomic.Pointer
// fields are the single publication point readers load without locks; a
// Store from anywhere but the owning type's blessed install/swap methods
// (or its constructor) can publish a snapshot that skipped versioning,
// persistence, or the writer mutex.
var AtomicSwapAnalyzer = &Analyzer{
	Name: "atomicswap",
	Doc: `restrict atomic.Pointer publication

In internal/serve, a Store/Swap/CompareAndSwap on an atomic.Pointer field
is allowed only inside a method of the field's owning type or where the
owner was just constructed locally.`,
	Run: runAtomicSwap,
}

// atomicScope lists the guarded packages by final import-path element.
var atomicScope = map[string]bool{
	"serve": true,
}

// atomicMutators are the atomic.Pointer methods that publish a new value.
var atomicMutators = map[string]bool{
	"Store":          true,
	"Swap":           true,
	"CompareAndSwap": true,
}

func runAtomicSwap(pass *Pass) error {
	if pass.Pkg == nil || !atomicScope[pathBase(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkPointerMutation(pass, fd, call)
				}
				return true
			})
		}
	}
	return nil
}

// recvTypeName returns the base type name of a method receiver ("" for
// plain functions).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// checkPointerMutation flags Store/Swap/CompareAndSwap on an
// atomic.Pointer that the enclosing function does not own.
func checkPointerMutation(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.TypesInfo
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !atomicMutators[sel.Sel.Name] {
		return
	}
	if !isAtomicPointer(info.Types[sel.X].Type) {
		return
	}
	owner := ""
	if inner, ok := sel.X.(*ast.SelectorExpr); ok {
		if named := namedOf(info.Types[inner.X].Type); named != nil {
			owner = named.Obj().Name()
		}
	}
	switch {
	case owner != "" && recvTypeName(fd) == owner:
		// A blessed method of the owning type (Install and friends).
	case locallyConstructed(info, fd, sel.X):
		// Constructor pattern: the owner was declared in this function and
		// is not yet visible to any reader.
	default:
		pass.Reportf(call.Pos(), "atomic.Pointer %s outside the owning type's methods; publish through its blessed Install/swap method so versioning and persistence cannot be skipped", sel.Sel.Name)
	}
}

// isAtomicPointer reports whether t is sync/atomic.Pointer[...].
func isAtomicPointer(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Pointer"
}

// namedOf unwraps pointers and aliases down to a named type, nil if the
// type is not named.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// locallyConstructed reports whether the mutated value's root identifier
// was declared inside this function — the not-yet-published constructor
// case (r := &Registry{}; r.cur.Store(...)).
func locallyConstructed(info *types.Info, fd *ast.FuncDecl, x ast.Expr) bool {
	root := rootIdent(x)
	if root == nil {
		return false
	}
	obj := info.Uses[root]
	if obj == nil {
		obj = info.Defs[root]
	}
	return obj != nil && declaredWithin(obj, fd.Body)
}
