package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PoolOwnershipAnalyzer statically encodes the serve pool protocol
// (internal/serve/pool.go, DESIGN.md §12–§13): a frame buffer obtained
// from the pool is owned by exactly one goroutine until it is released
// (putBuf), transferred (returned, sent on a
// channel, handed to a goroutine, or passed to an //mithra:owns callee),
// or parked in a defer. The analyzer walks every control-flow path of a
// function in internal/serve and reports
//
//   - acquisitions that can leak (a path reaches a return, continue,
//     break, or the end of scope with the object still owned),
//   - uses of an object (or any alias of it) after its release,
//   - double releases on one path,
//   - releases of objects that never came from the pool (a foreign
//     buffer poisons the size-class and debug-canary tracking).
//
// Aliases are tracked through assignments, composite literals holding the
// object (frameTask{buf: buf}), and same-typed results of calls the object was
// passed to (frame, err := AppendFrame(buf, msg) makes frame an alias of
// buf). Channel receives are the protocol's entry point on the consumer
// side and are deliberately untracked: a consumer's putBuf(t.buf) is a
// release of a field selector, which is always an allowed origin.
var PoolOwnershipAnalyzer = &Analyzer{
	Name: "poolownership",
	Doc: `enforce the pooled-object ownership protocol in internal/serve

Every getBuf acquisition (and every parameter declared in an
//mithra:owns doc line) must be released with putBuf, returned,
sent on a channel, handed to go/defer, or passed to an //mithra:owns
callee on every control-flow path; no alias may be used after the
release; nothing may be put that is not pool-originated.`,
	Run: runPoolOwnership,
}

// poolScope guards the serving runtime by final import-path element.
var poolScope = map[string]bool{
	"serve": true,
}

// poolAcquire maps acquisition functions to what they hand out;
// poolRelease maps release functions to the same vocabulary.
var poolAcquire = map[string]string{
	"getBuf": "buffer from getBuf",
}

var poolRelease = map[string]bool{
	"putBuf": true,
}

func runPoolOwnership(pass *Pass) error {
	if pass.Pkg == nil || !poolScope[pathBase(pass.Pkg.Path())] {
		return nil
	}
	owns := collectOwns(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a := &ownAnalysis{pass: pass, owns: owns, fd: fd,
				locallyBuilt: map[types.Object]bool{}}
			st := newOwnState()
			a.seedOwnedParams(st)
			term := a.walk(fd.Body.List, st, nil)
			if !term {
				a.leakCheck(st, nil)
			}
			a.reportLeaks()
		}
	}
	return nil
}

// collectOwns maps function objects to the parameter index their
// //mithra:owns doc line names, validating the parameter exists.
func collectOwns(pass *Pass) map[types.Object]int {
	out := map[types.Object]int{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				rest, ok := strings.CutPrefix(c.Text, ownsDirective+" ")
				if !ok {
					continue
				}
				name := strings.TrimSpace(rest)
				idx := paramIndex(fd, name)
				if idx < 0 {
					pass.Reportf(c.Pos(), "//mithra:owns names unknown parameter %q of %s", name, fd.Name.Name)
					continue
				}
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					out[obj] = idx
				}
			}
		}
	}
	return out
}

// paramIndex finds a parameter's flattened position, -1 if absent.
func paramIndex(fd *ast.FuncDecl, name string) int {
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, n := range field.Names {
			if n.Name == name {
				return i
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return -1
}

// An ownGroup tracks one pooled object and every alias of it within one
// function.
type ownGroup struct {
	id      int
	what    string // "buffer from getBuf", "owned parameter req", ...
	pos     token.Pos
	typ     types.Type // the pooled object's static type, for call aliasing
	members map[types.Object]bool

	deferred bool // a defer releases it on every remaining path
	leaked   bool // reported (once) after the walk
}

// ownState is the per-path ownership state: which groups still await
// release, and which were already released on this path (for
// use-after-put detection).
type ownState struct {
	pending map[int]bool
	putAt   map[int]bool
}

func newOwnState() *ownState {
	return &ownState{pending: map[int]bool{}, putAt: map[int]bool{}}
}

func (st *ownState) clone() *ownState {
	c := newOwnState()
	for k, v := range st.pending {
		c.pending[k] = v
	}
	for k, v := range st.putAt {
		c.putAt[k] = v
	}
	return c
}

// merge folds a non-terminating branch outcome into st (OR semantics:
// pending or released-earlier on any surviving path).
func (st *ownState) merge(b *ownState) {
	for k, v := range b.pending {
		if v {
			st.pending[k] = true
		}
	}
	for k, v := range b.putAt {
		if v {
			st.putAt[k] = true
		}
	}
}

// loopFrame records which groups pre-existed a loop, so continue/break
// and end-of-body only leak-check groups acquired inside the iteration.
type loopFrame struct {
	outer map[int]bool
}

type ownAnalysis struct {
	pass         *Pass
	owns         map[types.Object]int
	fd           *ast.FuncDecl
	groups       []*ownGroup
	locallyBuilt map[types.Object]bool
}

// seedOwnedParams creates a group for each //mithra:owns parameter of the
// function under analysis: ownership arrives at entry and must leave on
// every path.
func (a *ownAnalysis) seedOwnedParams(st *ownState) {
	obj := a.pass.TypesInfo.Defs[a.fd.Name]
	idx, ok := a.owns[obj]
	if !ok {
		return
	}
	i := 0
	for _, field := range a.fd.Type.Params.List {
		for _, n := range field.Names {
			if i == idx {
				if pobj := a.pass.TypesInfo.Defs[n]; pobj != nil {
					g := a.newGroup("owned parameter "+n.Name, n.Pos(), pobj.Type(), pobj)
					a.markPending(g, st)
				}
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
}

func (a *ownAnalysis) newGroup(what string, pos token.Pos, typ types.Type, obj types.Object) *ownGroup {
	g := &ownGroup{id: len(a.groups), what: what, pos: pos, typ: typ,
		members: map[types.Object]bool{}}
	if obj != nil {
		g.members[obj] = true
	}
	a.groups = append(a.groups, g)
	return g
}

// groupOf returns the group an expression's root object belongs to, nil
// when untracked.
func (a *ownAnalysis) groupOf(obj types.Object) *ownGroup {
	if obj == nil {
		return nil
	}
	for _, g := range a.groups {
		if g.members[obj] {
			return g
		}
	}
	return nil
}

// mentioned returns the groups any identifier inside n resolves into.
func (a *ownAnalysis) mentioned(n ast.Node) []*ownGroup {
	if n == nil {
		return nil
	}
	seen := map[int]bool{}
	var out []*ownGroup
	ast.Inspect(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj := a.pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = a.pass.TypesInfo.Defs[id]
		}
		if obj == nil {
			return true
		}
		// One name can belong to several groups at once (the
		// put-then-reacquire rebind keeps it in the old group for the
		// sibling path); report every one.
		for _, g := range a.groups {
			if g.members[obj] && !seen[g.id] {
				seen[g.id] = true
				out = append(out, g)
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// leakCheck marks every pending, undeferred group as leaked. With a
// frame, only groups born inside the current loop iteration are checked
// (outer groups survive into code after the loop).
func (a *ownAnalysis) leakCheck(st *ownState, frame *loopFrame) {
	for _, g := range a.groups {
		if !st.pending[g.id] || g.deferred {
			continue
		}
		if frame != nil && frame.outer[g.id] {
			continue
		}
		g.leaked = true
		st.pending[g.id] = false
	}
}

func (a *ownAnalysis) reportLeaks() {
	for _, g := range a.groups {
		if g.leaked {
			a.pass.Reportf(g.pos, "pooled %s is not released, returned, or transferred on every path; a leaked pool object defeats the zero-alloc steady state", g.what)
		}
	}
}

// resolve marks a group released/transferred on this path. asPut also
// arms use-after-put tracking (transfers hand the object to code that
// may legally keep using it on its side; releases must not be followed
// by any local use).
func (a *ownAnalysis) resolve(st *ownState, g *ownGroup, asPut bool) {
	st.pending[g.id] = false
	if asPut {
		st.putAt[g.id] = true
	}
}

// walk processes a statement sequence, returning whether every path
// through it terminates (return/branch) before falling off the end.
// frames is the enclosing loop stack (innermost last).
func (a *ownAnalysis) walk(stmts []ast.Stmt, st *ownState, frames []*loopFrame) bool {
	for _, s := range stmts {
		if a.stmt(s, st, frames) {
			return true
		}
	}
	return false
}

// stmt processes one statement; true means control never continues past
// it on any path.
func (a *ownAnalysis) stmt(s ast.Stmt, st *ownState, frames []*loopFrame) bool {
	switch v := s.(type) {
	case *ast.ExprStmt:
		call, isCall := v.X.(*ast.CallExpr)
		if isCall && isReleaseExpr(call) {
			// A release gets its own double-put diagnostic; the generic
			// use-after-put check would shadow it.
			a.exprEffects(v.X, st)
			return false
		}
		a.useCheck(v, st, nil)
		if isCall {
			a.bareAcquireCheck(call)
			a.exprEffects(v.X, st)
		}
		return false

	case *ast.AssignStmt:
		a.assign(v, st)
		return false

	case *ast.DeclStmt:
		a.useCheck(v, st, nil)
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					a.valueSpec(vs, st)
				}
			}
		}
		return false

	case *ast.SendStmt:
		a.useCheck(v, st, nil)
		for _, g := range a.mentioned(v.Value) {
			if st.pending[g.id] {
				a.resolve(st, g, false)
			}
		}
		return false

	case *ast.GoStmt:
		a.useCheck(v, st, nil)
		for _, g := range a.mentioned(v.Call) {
			if st.pending[g.id] {
				a.resolve(st, g, false)
			}
		}
		return false

	case *ast.DeferStmt:
		a.deferStmt(v, st)
		return false

	case *ast.ReturnStmt:
		a.useCheck(v, st, nil)
		for _, r := range v.Results {
			for _, g := range a.mentioned(r) {
				a.resolve(st, g, false)
			}
		}
		a.leakCheck(st, nil)
		return true

	case *ast.BranchStmt:
		return a.branch(v, st, frames)

	case *ast.BlockStmt:
		return a.walk(v.List, st, frames)

	case *ast.LabeledStmt:
		return a.stmt(v.Stmt, st, frames)

	case *ast.IfStmt:
		if v.Init != nil {
			a.stmt(v.Init, st, frames)
		}
		a.useCheck(v.Cond, st, nil)
		thenSt := st.clone()
		thenTerm := a.walk(v.Body.List, thenSt, frames)
		elseSt := st.clone()
		elseTerm := false
		if v.Else != nil {
			elseTerm = a.stmt(v.Else, elseSt, frames)
		}
		*st = *newOwnState()
		if !thenTerm {
			st.merge(thenSt)
		}
		if !elseTerm {
			st.merge(elseSt)
		}
		return thenTerm && elseTerm

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return a.branchy(v, st, frames)

	case *ast.ForStmt:
		if v.Init != nil {
			a.stmt(v.Init, st, frames)
		}
		a.loopBody(v.Body, st, frames, v.Cond == nil)
		if v.Cond == nil && !hasBreak(v.Body) {
			return true // for {} with no break never falls through
		}
		return false

	case *ast.RangeStmt:
		a.useCheck(v.X, st, nil)
		a.loopBody(v.Body, st, frames, false)
		return false

	case *ast.IncDecStmt:
		a.useCheck(v, st, nil)
		return false

	default:
		return false
	}
}

// loopBody walks one loop body under a fresh loop frame. The body's
// outcome does not feed the post-loop state: acquisitions inside are
// iteration-local (checked at each iteration exit), and releases inside
// cannot satisfy an outer acquisition (the loop may run zero times).
func (a *ownAnalysis) loopBody(body *ast.BlockStmt, st *ownState, frames []*loopFrame, infinite bool) {
	frame := &loopFrame{outer: map[int]bool{}}
	for id, p := range st.pending {
		if p {
			frame.outer[id] = true
		}
	}
	bodySt := st.clone()
	if term := a.walk(body.List, bodySt, append(frames, frame)); !term {
		// Falling off the body's end is an iteration boundary: anything
		// acquired this iteration must already be resolved.
		a.leakCheck(bodySt, frame)
	}
}

// branchy handles switch/type-switch/select: walk each clause from the
// same entry state and merge the survivors. A switch without a default
// may skip every clause; a select without a default always runs one.
func (a *ownAnalysis) branchy(s ast.Stmt, st *ownState, frames []*loopFrame) bool {
	var clauses []ast.Stmt
	hasDefault := false
	switch v := s.(type) {
	case *ast.SwitchStmt:
		if v.Init != nil {
			a.stmt(v.Init, st, frames)
		}
		a.useCheck(v.Tag, st, nil)
		clauses = v.Body.List
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			a.stmt(v.Init, st, frames)
		}
		clauses = v.Body.List
	case *ast.SelectStmt:
		clauses = v.Body.List
	}

	merged := newOwnState()
	any := false
	allTerm := true
	for _, cl := range clauses {
		clSt := st.clone()
		var body []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				a.stmt(c.Comm, clSt, frames)
			}
			body = c.Body
		}
		if term := a.walk(body, clSt, frames); !term {
			merged.merge(clSt)
			any = true
			allTerm = false
		}
	}
	_, isSelect := s.(*ast.SelectStmt)
	if !hasDefault && !isSelect || len(clauses) == 0 {
		// The skip path: no clause matched.
		merged.merge(st)
		any = true
		allTerm = false
	}
	if any {
		*st = *merged
	}
	return allTerm && len(clauses) > 0
}

// branch handles break/continue/goto at an iteration or scope boundary.
func (a *ownAnalysis) branch(v *ast.BranchStmt, st *ownState, frames []*loopFrame) bool {
	switch v.Tok {
	case token.CONTINUE, token.BREAK:
		// Both are iteration/loop exits for ownership purposes: anything
		// acquired inside the innermost loop must be resolved. (An
		// unlabeled break inside switch/select only exits the clause — the
		// clause walk treats it as termination either way, and the
		// conservative loop-frame check still only fires for objects the
		// iteration itself acquired.)
		if len(frames) > 0 {
			a.leakCheck(st, frames[len(frames)-1])
		} else {
			a.leakCheck(st, nil)
		}
		return true
	case token.GOTO:
		a.leakCheck(st, nil)
		return true
	case token.FALLTHROUGH:
		return false
	}
	return false
}

// hasBreak reports whether a loop body contains any break (labeled or
// not) at its own nesting level — good enough to tell `for { select ...
// return } }` apart from loops that do fall through.
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BranchStmt:
			if v.Tok == token.BREAK {
				found = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false // a break in there targets that construct
		}
		return !found
	})
	return found
}

// deferStmt parks releases: a deferred putX(v) (directly or inside a
// deferred closure) covers every remaining path, including panics — the
// panic-safety half of the protocol.
func (a *ownAnalysis) deferStmt(v *ast.DeferStmt, st *ownState) {
	resolved := map[int]bool{}
	ast.Inspect(v.Call, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && poolRelease[id.Name] && len(call.Args) == 1 {
			for _, g := range a.mentioned(call.Args[0]) {
				g.deferred = true
				resolved[g.id] = true
			}
			a.foreignPutCheck(call)
		}
		return true
	})
	// A defer that hands the object to any other call (conn teardown
	// helpers) is also a transfer for the remaining paths.
	if len(resolved) == 0 {
		for _, g := range a.mentioned(v.Call) {
			g.deferred = true
		}
	}
	_ = st
}

// bareAcquireCheck flags an acquisition whose result is dropped.
func (a *ownAnalysis) bareAcquireCheck(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if what, isAcq := poolAcquire[id.Name]; isAcq {
			a.pass.Reportf(call.Pos(), "result of %s is discarded; the pooled %s leaks immediately", id.Name, what)
		}
	}
}

// isReleaseExpr recognizes putBuf(x) calls.
func isReleaseExpr(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && poolRelease[id.Name] && len(call.Args) == 1
}

// exprEffects applies the ownership effects of a call expression used as
// a statement: releases, owns-transfers, and double-put detection.
func (a *ownAnalysis) exprEffects(x ast.Expr, st *ownState) {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return
	}
	if isReleaseExpr(call) {
		a.foreignPutCheck(call)
		for _, g := range a.mentioned(call.Args[0]) {
			if st.putAt[g.id] && !st.pending[g.id] {
				a.pass.Reportf(call.Pos(), "pooled %s is returned to the pool twice on this path", g.what)
				continue
			}
			a.resolve(st, g, true)
		}
		return
	}
	a.ownsTransfer(call, st)
}

// ownsTransfer resolves groups passed to an //mithra:owns parameter.
func (a *ownAnalysis) ownsTransfer(call *ast.CallExpr, st *ownState) {
	obj := calleeObject(a.pass.TypesInfo, call)
	if obj == nil {
		return
	}
	idx, ok := a.owns[obj]
	if !ok || idx >= len(call.Args) {
		return
	}
	for _, g := range a.mentioned(call.Args[idx]) {
		if st.pending[g.id] {
			a.resolve(st, g, false)
		}
	}
}

// calleeObject resolves a call's callee to its declared function object
// (same-package functions and methods; nil otherwise).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// foreignPutCheck rejects releases of objects that cannot have come from
// the pool: literals, fresh make/new results, and locals built from them.
func (a *ownAnalysis) foreignPutCheck(call *ast.CallExpr) {
	arg := call.Args[0]
	for {
		switch v := arg.(type) {
		case *ast.ParenExpr:
			arg = v.X
			continue
		case *ast.SliceExpr:
			arg = v.X
			continue
		}
		break
	}
	fn := "put"
	if id, ok := call.Fun.(*ast.Ident); ok {
		fn = id.Name
	}
	switch v := arg.(type) {
	case *ast.CompositeLit:
		a.pass.Reportf(call.Pos(), "%s of a composite literal that never came from the pool; foreign objects poison the size-class and canary tracking", fn)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			a.pass.Reportf(call.Pos(), "%s of a freshly constructed object that never came from the pool; foreign objects poison the size-class and canary tracking", fn)
		}
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok {
			if obj, isBuiltin := a.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && (obj.Name() == "make" || obj.Name() == "new") {
				a.pass.Reportf(call.Pos(), "%s of a fresh %s result that never came from the pool; foreign objects poison the size-class and canary tracking", fn, obj.Name())
			}
		}
	case *ast.Ident:
		obj := a.pass.TypesInfo.Uses[v]
		if obj != nil && a.locallyBuilt[obj] && a.groupOf(obj) == nil {
			a.pass.Reportf(call.Pos(), "%s of %s, which was built locally and never came from the pool; foreign objects poison the size-class and canary tracking", fn, v.Name)
		}
	}
}

// useCheck reports any mention of a group member after that group was
// released on the current path. exceptLHS suppresses the check for a
// plain-identifier rebind target.
func (a *ownAnalysis) useCheck(n ast.Node, st *ownState, except map[types.Object]bool) {
	if n == nil {
		return
	}
	for _, g := range a.mentioned(n) {
		if !st.putAt[g.id] {
			continue
		}
		if except != nil && allMentionsExcepted(a.pass.TypesInfo, n, g, except) {
			continue
		}
		a.pass.Reportf(n.Pos(), "use of pooled %s after it was returned to the pool; a stale alias can corrupt another request's frame", g.what)
		st.putAt[g.id] = false // one report per release event
	}
}

// allMentionsExcepted reports whether every mention of g inside n is one
// of the excepted objects (the rebind LHS).
func allMentionsExcepted(info *types.Info, n ast.Node, g *ownGroup, except map[types.Object]bool) bool {
	ok := true
	ast.Inspect(n, func(x ast.Node) bool {
		id, isIdent := x.(*ast.Ident)
		if !isIdent {
			return ok
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj != nil && g.members[obj] && !except[obj] {
			ok = false
		}
		return ok
	})
	return ok
}

// valueSpec handles var declarations with initializers (aliasing only;
// acquisitions via var x = getBuf(n) included).
func (a *ownAnalysis) valueSpec(vs *ast.ValueSpec, st *ownState) {
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			a.bind(name, vs.Values[i], st, len(vs.Names) == len(vs.Values))
		}
	}
}

// assign processes one assignment: use-after-put on the RHS, rebinds,
// acquisitions, aliasing, locally-built tracking, owns-transfers.
func (a *ownAnalysis) assign(v *ast.AssignStmt, st *ownState) {
	info := a.pass.TypesInfo

	// Rebind targets are exempt from the use-after-put check; everything
	// else on the statement is a real use.
	rebinds := map[types.Object]bool{}
	for _, lhs := range v.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				rebinds[obj] = true
			}
		}
	}
	a.useCheck(v, st, rebinds)

	// Tuple-call form: x, y := f(...).
	if len(v.Lhs) > 1 && len(v.Rhs) == 1 {
		call, _ := v.Rhs[0].(*ast.CallExpr)
		for _, lhs := range v.Lhs {
			a.bindFromCall(lhs, call, v.Rhs[0], st)
		}
		if call != nil {
			a.ownsTransfer(call, st)
		}
		return
	}
	for i, lhs := range v.Lhs {
		if i < len(v.Rhs) {
			a.bind(lhs, v.Rhs[i], st, true)
			if call, ok := v.Rhs[i].(*ast.CallExpr); ok {
				a.ownsTransfer(call, st)
			}
		}
	}
}

// bind applies one lhs = rhs pair.
func (a *ownAnalysis) bind(lhs ast.Expr, rhs ast.Expr, st *ownState, paired bool) {
	info := a.pass.TypesInfo
	id, isIdent := lhs.(*ast.Ident)
	var obj types.Object
	if isIdent {
		obj = info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
	}

	// Acquisition: x := getBuf(n). On a put-then-reacquire
	// rebind (putBuf(buf); buf = getBuf(n)) the name is NOT detached from
	// its old group: a sibling control-flow path may still hold the old
	// object under this name, and the return that transfers both must
	// resolve both. Only the stale-alias arming is cleared — through this
	// name the old object is no longer reachable on this path.
	if call, ok := rhs.(*ast.CallExpr); ok && paired {
		if fid, ok := call.Fun.(*ast.Ident); ok {
			if what, isAcq := poolAcquire[fid.Name]; isAcq {
				if obj == nil {
					a.bareAcquireCheck(call)
					return
				}
				for _, g := range a.groups {
					if g.members[obj] && st.putAt[g.id] {
						st.putAt[g.id] = false
					}
				}
				g := a.newGroup(what, call.Pos(), obj.Type(), obj)
				a.markPending(g, st)
				a.locallyBuilt[obj] = false
				return
			}
		}
	}

	groups := a.mentioned(rhs)
	switch {
	case len(groups) > 0 && obj != nil:
		if _, isCall := rhs.(*ast.CallExpr); isCall {
			a.bindFromCall(lhs, rhs.(*ast.CallExpr), rhs, st)
			return
		}
		// Join every group the initializer mentions (buf = buf[:n] keeps
		// buf in each group it already aliased).
		a.detach(obj)
		for _, g := range groups {
			g.members[obj] = true
		}
		a.locallyBuilt[obj] = false
	case obj != nil:
		// Plain rebind away from any group.
		a.detach(obj)
		a.locallyBuilt[obj] = isLocallyBuiltExpr(info, rhs)
	}
}

// bindFromCall adds a call-result lhs to a group the call's arguments
// mention, but only when the static types agree — AppendFrame(buf, ...)
// returns an alias of buf ([]byte -> []byte), while a call returning
// only an error aliases nothing.
func (a *ownAnalysis) bindFromCall(lhs ast.Expr, call *ast.CallExpr, rhs ast.Expr, st *ownState) {
	info := a.pass.TypesInfo
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return
	}
	// Collect the argument groups before detaching: in the self-rebind
	// form (buf = append(buf, ...)) the detach would otherwise erase the
	// very membership that makes the result an alias.
	var groups []*ownGroup
	if call != nil {
		for _, arg := range call.Args {
			groups = append(groups, a.mentioned(arg)...)
		}
	}
	a.detach(obj)
	a.locallyBuilt[obj] = false
	for _, g := range groups {
		if g.typ != nil && obj.Type() != nil && types.Identical(g.typ, obj.Type()) {
			g.members[obj] = true
		}
	}
	_ = st
	_ = rhs
}

// markPending flags a (possibly new) group as awaiting release.
func (a *ownAnalysis) markPending(g *ownGroup, st *ownState) {
	st.pending[g.id] = true
}

// detach removes an object from every group (it is being rebound).
func (a *ownAnalysis) detach(obj types.Object) {
	for _, g := range a.groups {
		delete(g.members, obj)
	}
}

// isLocallyBuiltExpr recognizes initializers that cannot be pooled
// objects: composite literals, &composites, make, new.
func isLocallyBuiltExpr(info *types.Info, rhs ast.Expr) bool {
	switch v := rhs.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, isLit := v.X.(*ast.CompositeLit)
		return v.Op == token.AND && isLit
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok {
			if obj, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return obj.Name() == "make" || obj.Name() == "new"
			}
		}
	}
	return false
}
