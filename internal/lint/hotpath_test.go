package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// collectDiags parses src and runs collectHotpaths, returning the
// malformed-annotation diagnostics and the resulting index.
func collectDiags(t *testing.T, src string) ([]string, *HotpathIndex) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "anno.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture source: %v", err)
	}
	var diags []string
	ix := &HotpathIndex{}
	collectHotpaths(fset, f, ix, func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		diags = append(diags, p.String()+": "+fmt.Sprintf(format, args...))
	})
	return diags, ix
}

// TestCollectHotpathDiagnostics covers the malformed forms whose
// diagnostic lands on a bare comment line, where the // want fixture
// machinery cannot carry an expectation.
func TestCollectHotpathDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of exactly one diagnostic; "" means none
	}{
		{
			name: "coldpath without reason",
			src: `package p
func f() {
	//mithra:coldpath
	_ = make([]byte, 1)
}
`,
			want: "//mithra:coldpath has no reason",
		},
		{
			name: "hotpath on a non-doc comment",
			src: `package p
//mithra:hotpath

var x int
`,
			want: "misplaced //mithra:hotpath",
		},
		{
			name: "hotpath inside a body",
			src: `package p
func f() {
	//mithra:hotpath
	_ = 1
}
`,
			want: "misplaced //mithra:hotpath",
		},
		{
			name: "unknown verb",
			src: `package p
//mithra:hotpth
func f() {}
`,
			want: "unknown //mithra:hotpth directive",
		},
		{
			name: "well-formed hotpath is silent",
			src: `package p
//mithra:hotpath
func f() {}
`,
			want: "",
		},
		{
			name: "well-formed coldpath is silent",
			src: `package p
func f() {
	_ = make([]byte, 1) //mithra:coldpath grow once
}
`,
			want: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags, _ := collectDiags(t, tc.src)
			if tc.want == "" {
				if len(diags) != 0 {
					t.Fatalf("unexpected diagnostics: %v", diags)
				}
				return
			}
			if len(diags) != 1 || !strings.Contains(diags[0], tc.want) {
				t.Fatalf("want one diagnostic containing %q, got %v", tc.want, diags)
			}
		})
	}
}

// TestHotpathIndexRanges checks the two coldpath placements: a trailing
// comment covers its own line, a standalone comment covers the entire
// statement that starts on the next line.
func TestHotpathIndexRanges(t *testing.T) {
	src := `package p

//mithra:hotpath
func f(n int) []byte {
	if n > 0 {
		return make([]byte, n) //mithra:coldpath oversized
	}
	//mithra:coldpath grow block
	if n == 0 {
		n = 1
		n = 2
	}
	return nil
}
`
	diags, ix := collectDiags(t, src)
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	if len(ix.Funcs) != 1 || ix.Funcs[0].Name != "f" {
		t.Fatalf("want one hotpath func f, got %+v", ix.Funcs)
	}
	hf := ix.Funcs[0]
	if _, ok := ix.InHotpath("anno.go", hf.StartLine+1); !ok {
		t.Fatalf("line inside f not reported as hotpath")
	}
	if _, ok := ix.InHotpath("anno.go", hf.EndLine+5); ok {
		t.Fatalf("line after f reported as hotpath")
	}
	// Trailing waiver: line 6 only.
	if !ix.Cold("anno.go", 6) {
		t.Errorf("trailing coldpath does not cover its own line")
	}
	if ix.Cold("anno.go", 5) || ix.Cold("anno.go", 7) {
		t.Errorf("trailing coldpath leaked beyond its line")
	}
	// Standalone waiver on line 8: covers the whole if block, lines 9-12.
	for line := 9; line <= 12; line++ {
		if !ix.Cold("anno.go", line) {
			t.Errorf("standalone coldpath does not cover line %d of the statement below", line)
		}
	}
	if ix.Cold("anno.go", 13) {
		t.Errorf("standalone coldpath leaked past the statement it covers")
	}
}
