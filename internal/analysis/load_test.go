package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out files (slash-separated paths relative to the
// module root) under a fresh temporary directory and returns its path.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestRunLoadErrors checks that Run refuses what it cannot lint, with an
// error naming the pattern or package at fault, instead of reporting a
// clean tree.
func TestRunLoadErrors(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"go.mod":                "module example.com/m\n\ngo 1.24\n",
		"internal/bad/bad.go":   "package bad\n\nvar X int = \"one\"\n",
		"internal/uses/uses.go": "package uses\n\nimport \"example.com/m/internal/bad\"\n\nvar Y = bad.X\n",
		"docs/README.md":        "no Go here\n",
	})
	outside := writeModule(t, map[string]string{"x.go": "package x\n"})
	for _, tc := range []struct {
		name, pattern, want string
	}{
		{"pattern matches no package", "./docs/...", "./docs/..."},
		{"pattern matches only standard packages", "std", "std"},
		{"path outside the module", outside, "outside"},
		{"package fails to type-check", "./internal/bad", "type-checking example.com/m/internal/bad"},
		{"dependency fails to type-check", "./internal/uses", "type-checking example.com/m/internal/bad"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diags, err := Run(Config{Dir: mod, Patterns: []string{tc.pattern}})
			if err == nil {
				t.Fatalf("Run(%s) = %v, nil; want an error", tc.pattern, diags)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run(%s) error %q does not name %q", tc.pattern, err, tc.want)
			}
		})
	}
}

// TestRunCommentedModuleLine checks that the import-path-scoped checks
// still apply when the go.mod module line carries a trailing comment,
// which the go command accepts.
func TestRunCommentedModuleLine(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"go.mod": "module " + ModulePath + " // cleansel\n\ngo 1.24\n",
		"internal/dist/sum.go": `package dist

func Total(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
`,
	})
	diags, err := Run(Config{Dir: mod, Patterns: []string{"./..."}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 1 || diags[0].Check != "maporder" || diags[0].Pos.Line != 6 {
		t.Fatalf("got %v, want one maporder finding at sum.go:6", diags)
	}
}
