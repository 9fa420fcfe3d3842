package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// The //mithra: annotation namespace marks the serving stack's performance
// contract in the source itself (DESIGN.md §13):
//
//	//mithra:hotpath
//		on a function's doc comment: the function is part of the
//		zero-allocation decide path. The hotpathalloc analyzer forbids
//		allocating constructs in its body, and the escape gate
//		(go build -gcflags=-m, parsed by escape.go) forbids new heap
//		escapes inside its line range.
//
//	//mithra:coldpath <reason>
//		inside a hotpath function: the statement on this line (trailing
//		comment) or the statement below (standalone comment, covering
//		that statement's whole line range) is an acknowledged cold
//		branch — an error path, a grow-once buffer fill — where
//		allocation is deliberate. The reason is mandatory, so every
//		exemption from the zero-alloc contract stays auditable.
//
//	//mithra:owns <param>
//		on a function's doc comment: calling this function transfers
//		ownership of the pooled object passed as <param> (the
//		poolownership analyzer then requires the function to release it
//		on every path, and stops requiring the caller to).
//
// A malformed annotation — an unknown verb, a misplaced hotpath, a
// coldpath with no reason or outside any hotpath function — is itself a
// diagnostic: a broken annotation silently un-guards the exact invariant
// it claims to freeze.
const (
	mithraPrefix      = "//mithra:"
	hotpathDirective  = "//mithra:hotpath"
	coldpathDirective = "//mithra:coldpath"
	ownsDirective     = "//mithra:owns"
)

// HotpathFunc is one function annotated //mithra:hotpath.
type HotpathFunc struct {
	Name      string // rendered name, e.g. "(*Hasher).Hash"
	File      string
	StartLine int
	EndLine   int
}

// coldRange is one //mithra:coldpath allowance, as an inclusive line range.
type coldRange struct {
	file       string
	start, end int
}

// HotpathIndex maps source lines to the hotpath/coldpath annotations that
// govern them. One index covers any number of files.
type HotpathIndex struct {
	Funcs []HotpathFunc
	cold  []coldRange
}

// InHotpath reports the annotated function covering file:line, if any.
func (ix *HotpathIndex) InHotpath(file string, line int) (HotpathFunc, bool) {
	for _, f := range ix.Funcs {
		if f.File == file && f.StartLine <= line && line <= f.EndLine {
			return f, true
		}
	}
	return HotpathFunc{}, false
}

// Cold reports whether file:line is covered by a coldpath allowance.
func (ix *HotpathIndex) Cold(file string, line int) bool {
	for _, c := range ix.cold {
		if c.file == file && c.start <= line && line <= c.end {
			return true
		}
	}
	return false
}

// collectHotpaths scans one file's comments for //mithra: annotations,
// adding well-formed ones to ix and reporting malformed ones through
// report (which may be nil to ignore them; the hotpathalloc analyzer
// passes its Pass.Reportf).
func collectHotpaths(fset *token.FileSet, f *ast.File, ix *HotpathIndex, report func(token.Pos, string, ...any)) {
	if report == nil {
		report = func(token.Pos, string, ...any) {}
	}
	filename := fset.Position(f.Pos()).Filename

	// Hotpath functions: the directive must be a line of a FuncDecl's doc
	// comment. Index doc comment groups first so stray hotpath directives
	// can be told apart from attached ones.
	docOf := map[*ast.CommentGroup]*ast.FuncDecl{}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
			docOf[fd.Doc] = fd
		}
	}

	// Statement line ranges, for standalone coldpath comments: a comment
	// on line L covers the statement starting on line L+1, including
	// everything that statement spans (so one annotation above an
	// `if cap(...) < n` grow block covers the whole block).
	stmtRange := map[int][2]int{} // start line -> [start, end]
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if s, ok := n.(ast.Stmt); ok {
				start := fset.Position(s.Pos()).Line
				end := fset.Position(s.End()).Line
				if r, seen := stmtRange[start]; !seen || end > r[1] {
					stmtRange[start] = [2]int{start, end}
				}
			}
			return true
		})
	}

	funcRanges := make([][2]int, 0, len(docOf))
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			funcRanges = append(funcRanges, [2]int{
				fset.Position(fd.Body.Pos()).Line, fset.Position(fd.Body.End()).Line,
			})
		}
	}
	inAnyFunc := func(line int) bool {
		for _, r := range funcRanges {
			if r[0] <= line && line <= r[1] {
				return true
			}
		}
		return false
	}

	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, mithraPrefix) {
				continue
			}
			verb, rest, _ := strings.Cut(strings.TrimPrefix(c.Text, mithraPrefix), " ")
			line := fset.Position(c.Pos()).Line
			switch verb {
			case "hotpath":
				if strings.TrimSpace(rest) != "" {
					report(c.Pos(), "malformed //mithra:hotpath: the directive takes no arguments (got %q)", strings.TrimSpace(rest))
					continue
				}
				fd := docOf[cg]
				if fd == nil || fd.Body == nil {
					report(c.Pos(), "misplaced //mithra:hotpath: the directive must be a line of a function's doc comment")
					continue
				}
				ix.Funcs = append(ix.Funcs, HotpathFunc{
					Name:      funcDisplayName(fd),
					File:      filename,
					StartLine: fset.Position(fd.Pos()).Line,
					EndLine:   fset.Position(fd.End()).Line,
				})
			case "coldpath":
				if strings.TrimSpace(rest) == "" {
					report(c.Pos(), "//mithra:coldpath has no reason; an unexplained allocation waiver is not auditable")
					continue
				}
				if !inAnyFunc(line) {
					report(c.Pos(), "misplaced //mithra:coldpath: the directive must sit on or above a statement inside a function")
					continue
				}
				cr := coldRange{file: filename, start: line, end: line}
				if r, ok := stmtRange[line+1]; ok && !trailingComment(fset, f, c) {
					cr.start, cr.end = r[0], r[1]
				}
				ix.cold = append(ix.cold, cr)
			case "owns":
				// Validated by the poolownership analyzer, which knows the
				// parameter lists; here only the empty form is malformed.
				if strings.TrimSpace(rest) == "" {
					report(c.Pos(), "malformed //mithra:owns: want //mithra:owns <param>")
				}
			default:
				report(c.Pos(), "unknown //mithra:%s directive (known: hotpath, coldpath, owns)", verb)
			}
		}
	}
	sort.Slice(ix.cold, func(i, j int) bool {
		if ix.cold[i].file != ix.cold[j].file {
			return ix.cold[i].file < ix.cold[j].file
		}
		return ix.cold[i].start < ix.cold[j].start
	})
}

// trailingComment reports whether c shares its line with code (a trailing
// comment covers its own line; a standalone one covers the statement
// below).
func trailingComment(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	col := fset.Position(c.Pos()).Column
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		if _, isFile := n.(*ast.File); !isFile {
			p := fset.Position(n.Pos())
			if p.Line == line && p.Column < col {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// funcDisplayName renders a FuncDecl's name with its receiver type, e.g.
// "(*Hasher).Hash".
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star := ""
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
		star = "*"
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

// ScanHotpaths builds a HotpathIndex for every package matching the
// patterns under root, on syntax alone (no type checking) — the escape
// gate's view of the annotation contract. Malformed annotations are
// ignored here; the hotpathalloc analyzer owns reporting them.
func ScanHotpaths(root string, patterns []string) (*HotpathIndex, error) {
	dirSet := map[string]bool{}
	for _, pat := range patterns {
		dirs, err := expandPattern(root, pat)
		if err != nil {
			return nil, err
		}
		for _, d := range dirs {
			dirSet[d] = true
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	ix := &HotpathIndex{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		names, err := goSourceNames(dir)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			collectHotpaths(fset, f, ix, nil)
		}
	}
	sort.Slice(ix.Funcs, func(i, j int) bool {
		if ix.Funcs[i].File != ix.Funcs[j].File {
			return ix.Funcs[i].File < ix.Funcs[j].File
		}
		return ix.Funcs[i].StartLine < ix.Funcs[j].StartLine
	})
	return ix, nil
}
