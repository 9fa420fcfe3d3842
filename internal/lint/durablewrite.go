package lint

import (
	"go/ast"
)

// DurableWriteAnalyzer freezes the WAL durability discipline (DESIGN.md
// §11, §13): crash-safety in internal/serve and internal/fault rests on
// every persisted record being either write-ahead with atomic rename
// (temp file → write → fsync → rename → directory sync) or an O_APPEND
// log whose torn tail recovery can discard. A bare os.WriteFile looks
// correct in every test and loses the record on the first power cut.
var DurableWriteAnalyzer = &Analyzer{
	Name: "durablewrite",
	Doc: `enforce the tmp -> fsync -> rename -> dir-sync write discipline

In internal/{serve,fault}, flags os.WriteFile and os.Create outright
(neither can be made power-loss atomic in place), os.OpenFile without
O_APPEND in its flags (append logs are the only blessed non-rename
writes), os.CreateTemp in a function that never calls Sync or os.Rename
(a temp file that is not fsynced before its rename can surface empty),
and os.Rename in a function that never syncs the containing directory
(the rename itself must survive power loss).`,
	Run: runDurableWrite,
}

// durableScope lists the packages under guard by final import-path
// element: the WAL home (serve) and the fault-injection layer whose
// artifacts feed crash-recovery tests. Other packages write golden files
// and reports where durability is irrelevant.
var durableScope = map[string]bool{
	"serve": true,
	"fault": true,
	// cluster appends the decision logs; their durability discipline
	// (O_APPEND single-write blocks, checksummed valid-prefix recovery)
	// is the same contract as serve's.
	"cluster": true,
}

func runDurableWrite(pass *Pass) error {
	if pass.Pkg == nil || !durableScope[pathBase(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDurableFunc(pass, fd)
		}
	}
	return nil
}

// checkDurableFunc applies the write-discipline rules to one function.
// The unit of accounting is the function: CreateTemp, Sync, and Rename
// must appear together (wal.StoreSnapshot is the blessed shape), because
// a sequence split across helpers cannot be paired up syntactically and
// deserves an explicit //lint:ignore with its justification.
func checkDurableFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	var createTemps, renames []*ast.CallExpr
	hasSync := false
	hasDirSync := false

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, name, ok := pkgCall(info, call); ok && path == "os" {
			switch name {
			case "WriteFile":
				pass.Reportf(call.Pos(), "os.WriteFile is not power-loss atomic; write a temp file, Sync it, then os.Rename (wal.StoreSnapshot is the blessed shape)")
			case "Create":
				pass.Reportf(call.Pos(), "os.Create truncates in place; crash-safe writes go through os.CreateTemp + Sync + os.Rename, or an O_APPEND log")
			case "OpenFile":
				if !flagsContainAppend(call) {
					pass.Reportf(call.Pos(), "os.OpenFile without os.O_APPEND can tear previously durable bytes; only append logs and the temp+rename sequence are blessed")
				}
			case "CreateTemp":
				createTemps = append(createTemps, call)
			case "Rename":
				renames = append(renames, call)
			}
			return true
		}
		// Any .Sync() method call counts as the fsync step; syncDir(...) is
		// the blessed directory-sync helper (matched by name so fixtures
		// can define their own stub).
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Sync" {
				hasSync = true
			}
		case *ast.Ident:
			if fun.Name == "syncDir" {
				hasDirSync = true
			}
		}
		return true
	})

	for _, call := range createTemps {
		if !hasSync {
			pass.Reportf(call.Pos(), "os.CreateTemp here but no Sync call in %s; an unfsynced temp file can be renamed into place empty", fd.Name.Name)
		} else if len(renames) == 0 {
			pass.Reportf(call.Pos(), "os.CreateTemp here but no os.Rename in %s; a temp file that is never atomically installed is not a durable write", fd.Name.Name)
		}
	}
	for _, call := range renames {
		if !hasDirSync {
			pass.Reportf(call.Pos(), "os.Rename here but no syncDir call in %s; the rename itself is not durable until the directory is fsynced", fd.Name.Name)
		}
	}
}

// flagsContainAppend reports whether an os.OpenFile call's flag argument
// mentions O_APPEND anywhere in its expression.
func flagsContainAppend(call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	found := false
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "O_APPEND" {
			found = true
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == "O_APPEND" {
			found = true
		}
		return !found
	})
	return found
}
