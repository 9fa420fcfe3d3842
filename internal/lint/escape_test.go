package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// Canned `go build -gcflags=-m` output: package headers, inlining notes,
// non-escaping parameters, and the two heap-move diagnostic shapes.
const cannedEscapeOutput = `# mithra/internal/serve
internal/serve/codec.go:30:6: can inline appendU32
internal/serve/wire.go:88:22: b does not escape
internal/serve/wire.go:102:14: &FrameTooLargeError{...} escapes to heap
internal/serve/codec.go:75:24: b[:0] escapes to heap
internal/serve/server.go:40:2: moved to heap: req
# mithra/internal/misr
internal/misr/misr.go:10:6: can inline Hash
not a diagnostic line at all
internal/serve/broken.go:xx:3: z escapes to heap
`

func TestParseEscapes(t *testing.T) {
	escapes := ParseEscapes(cannedEscapeOutput)
	want := []Escape{
		{File: "internal/serve/codec.go", Line: 75, Col: 24, Message: "b[:0] escapes to heap"},
		{File: "internal/serve/server.go", Line: 40, Col: 2, Message: "moved to heap: req"},
		{File: "internal/serve/wire.go", Line: 102, Col: 14, Message: "&FrameTooLargeError{...} escapes to heap"},
	}
	if len(escapes) != len(want) {
		t.Fatalf("want %d escapes, got %d: %v", len(want), len(escapes), escapes)
	}
	for i := range want {
		if escapes[i] != want[i] {
			t.Errorf("escape %d: want %+v, got %+v", i, want[i], escapes[i])
		}
	}
}

func TestParseEscapesIgnoresNoise(t *testing.T) {
	for _, line := range []string{
		"# mithra/internal/serve",
		"internal/serve/codec.go:30:6: can inline appendU32",
		"internal/serve/wire.go:88:22: b does not escape",
		"internal/serve/broken.go:xx:3: z escapes to heap",
		"no file prefix: escapes to heap",
		"",
	} {
		if got := ParseEscapes(line); len(got) != 0 {
			t.Errorf("line %q produced escapes %v", line, got)
		}
	}
}

func TestGateEscapes(t *testing.T) {
	root := filepath.FromSlash("/mod")
	abs := func(rel string) string { return filepath.Join(root, filepath.FromSlash(rel)) }
	ix := &HotpathIndex{
		Funcs: []HotpathFunc{
			{Name: "(*Hasher).Hash", File: abs("internal/serve/hot.go"), StartLine: 10, EndLine: 30},
		},
		cold: []coldRange{
			{file: abs("internal/serve/hot.go"), start: 20, end: 22},
		},
	}
	escapes := []Escape{
		// Inside the hotpath, no waiver: a violation.
		{File: "internal/serve/hot.go", Line: 15, Col: 3, Message: "moved to heap: x"},
		// Inside the hotpath but on a waived line: allowed.
		{File: "internal/serve/hot.go", Line: 21, Col: 3, Message: "y escapes to heap"},
		// Outside any annotated range: not the gate's business.
		{File: "internal/serve/hot.go", Line: 99, Col: 3, Message: "z escapes to heap"},
		{File: "internal/serve/other.go", Line: 15, Col: 3, Message: "w escapes to heap"},
	}
	problems := GateEscapes(root, ix, escapes)
	if len(problems) != 1 {
		t.Fatalf("want exactly one problem, got %d: %v", len(problems), problems)
	}
	for _, frag := range []string{"(*Hasher).Hash", "moved to heap: x", "//mithra:coldpath"} {
		if !strings.Contains(problems[0], frag) {
			t.Errorf("problem %q missing %q", problems[0], frag)
		}
	}
}

// TestHotpathEscapeGate runs the real compiler gate over the module: the
// annotated decide path must stay escape-clean. This is the same check CI
// runs via `mithralint -escapes ./...`.
func TestHotpathEscapeGate(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module with -gcflags=-m; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	problems, err := CheckEscapes(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Errorf("escape gate: %s", p)
	}
}
