package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a map of relative path -> contents under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for rel, body := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoaderFailures pins the failure modes of the loader and runner:
// malformed input must surface as a descriptive error from LoadDir/Lint,
// never as a panic and never as silently-empty output.
func TestLoaderFailures(t *testing.T) {
	cases := []struct {
		name    string
		files   map[string]string
		target  string // dir to lint, relative to the temp module root
		wantErr string // substring the error must carry
	}{
		{
			name: "syntax error",
			files: map[string]string{
				"go.mod":        "module tmpmod\n\ngo 1.22\n",
				"broken/bad.go": "package broken\n\nfunc f( {\n",
			},
			target:  "broken",
			wantErr: "broken/bad.go",
		},
		{
			name: "unresolvable import",
			files: map[string]string{
				"go.mod":      "module tmpmod\n\ngo 1.22\n",
				"uses/use.go": "package uses\n\nimport \"tmpmod/missing\"\n\nvar _ = missing.X\n",
			},
			target:  "uses",
			wantErr: "tmpmod/missing",
		},
		{
			name: "empty directory",
			files: map[string]string{
				"go.mod": "module tmpmod\n\ngo 1.22\n",
				// The directory exists but holds no Go files.
				"empty/README.txt": "nothing to lint here\n",
			},
			target:  "empty",
			wantErr: "no Go files",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			writeTree(t, root, c.files)
			loader, err := NewLoader(root)
			if err != nil {
				t.Fatalf("NewLoader: %v", err)
			}
			runner := &Runner{Loader: loader, Config: DefaultConfig("tmpmod")}
			diags, err := runner.LintDir(filepath.Join(root, c.target), "tmpmod/"+c.target)
			if err == nil {
				t.Fatalf("expected an error, got %d diagnostics", len(diags))
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}
