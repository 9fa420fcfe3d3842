// Package lint is a self-contained static-analysis suite that mechanically
// enforces the determinism and parallel-safety invariants the pipeline's
// statistical guarantees rest on (DESIGN.md §8). Algorithm 1's
// Clopper-Pearson threshold tuning is only meaningful if every evaluation
// is reproducible, and internal/parallel promises bit-identical results at
// any worker count — promises that rot silently unless a machine checks
// them on every change.
//
// The package mirrors the golang.org/x/tools/go/analysis vocabulary
// (Analyzer, Pass, Diagnostic) on the standard library alone, so the
// module stays dependency-free: packages are parsed with go/parser and
// type-checked with go/types through the stdlib source importer, and
// fixtures are exercised by an analysistest-style "// want" runner in the
// package's tests. cmd/mithralint is the multichecker binary; it runs the
// suite standalone (`go run ./cmd/mithralint ./...`) or as a vet tool
// (`go vet -vettool=bin/mithralint ./...`).
//
// Seven analyzers ship today. Four freeze the measurement pipeline's
// determinism:
//
//   - nondeterminism: no process-global entropy (math/rand top-level
//     functions, time.Now/Since/Until, os.Getpid-style identifiers) in the
//     measurement packages; randomness must come from mathx.RNG streams
//     seeded by task identity (parallel.Seed).
//   - maporder: no map iteration whose body lets Go's randomized map order
//     leak into ordered output, slice order, or parallel fan-out.
//   - parallelcapture: closures handed to parallel.ForEach/Map/
//     ForEachWorker may write captured state only through the blessed
//     order-indexed-slot pattern.
//   - floatreduce: no floating-point accumulation (+=, *=, ...) onto
//     shared or per-worker state inside those closures, where the sum
//     would depend on goroutine scheduling.
//
// Three more freeze the serving stack's runtime invariants (DESIGN.md §13):
//
//   - hotpathalloc: functions annotated //mithra:hotpath contain no
//     allocating constructs the AST can see; the companion escape gate
//     (mithralint -escapes) holds the same regions against the compiler's
//     -gcflags=-m heap-escape diagnostics.
//   - durablewrite: file writes in internal/{serve,fault} follow the
//     temp -> fsync -> rename -> dir-sync discipline or use O_APPEND logs.
//   - atomicswap: atomic.Pointer publication stays inside the owning
//     type's methods.
//
// A finding can be waived with an explained suppression comment on the
// flagged line or the line above:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; an unexplained or malformed directive is itself
// a diagnostic, so waivers stay auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant check. It is the stdlib-only
// counterpart of golang.org/x/tools/go/analysis.Analyzer: Run inspects a
// single type-checked package through its Pass and reports findings via
// Pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives. It must be a single lower-case word.
	Name string

	// Doc is the one-paragraph description shown by `mithralint -help`.
	Doc string

	// Run performs the analysis. It must be deterministic: no map
	// iteration may influence reporting order (the driver sorts
	// diagnostics, but messages and positions must be pure functions of
	// the package under analysis).
	Run func(*Pass) error
}

// A Pass connects an Analyzer to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // sorted by file name; test files excluded
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver attaches the analyzer name,
	// resolves the position, and later applies //lint:ignore suppression.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding. Analyzer and Position are filled in by the
// driver; analyzers only set Pos and Message.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
}

// Analyzers returns the full suite in its canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer,
		MapOrderAnalyzer,
		ParallelCaptureAnalyzer,
		FloatReduceAnalyzer,
		HotpathAllocAnalyzer,
		DurableWriteAnalyzer,
		AtomicSwapAnalyzer,
	}
}

// knownNames renders the suite's analyzer names for error messages.
func knownNames() string {
	names := make([]string, 0, 7)
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

// byName resolves an analyzer name (for //lint:ignore validation).
func byName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
