package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// interpConfig scopes the interprocedural fixture tree the way the real
// repo scopes cmd/: clockutil and randutil play the exempt harness
// packages, so taint must be caught at the simcode/hot boundary.
func interpConfig() Config {
	pre := "ddbm/testdata/interp"
	return NewConfig(
		Policy{Check: "no-wall-clock", SkipTests: true, Skip: []string{pre + "/clockutil"}},
		Policy{Check: "no-global-rand", Skip: []string{pre + "/randutil"}},
		Policy{Check: "taint-wall-clock", SkipTests: true, Skip: []string{pre + "/clockutil"}},
		Policy{Check: "taint-rand", SkipTests: true, Skip: []string{pre + "/randutil"}},
		Policy{Check: "hotpath-alloc", SkipTests: true},
	)
}

// interpTargets lists every fixture package under testdata/interp as one
// multi-target lint run — the interprocedural checks need the whole set
// in a single call graph.
func interpTargets(t *testing.T, root string) []Target {
	t.Helper()
	fixRoot := filepath.Join(root, "testdata", "interp")
	dirs, err := PackageDirs(fixRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 3 {
		t.Fatalf("found only %d fixture packages under %s", len(dirs), fixRoot)
	}
	var targets []Target
	for _, rel := range dirs {
		targets = append(targets, Target{
			Dir:  filepath.Join(fixRoot, filepath.FromSlash(rel)),
			Path: "ddbm/testdata/interp/" + rel,
		})
	}
	return targets
}

// TestInterprocFixtures runs the taint and hot-path checks over the
// fixture module in testdata/interp, which spans an exempt clock helper,
// an exempt rand helper, a simulation-scope caller, and a hot-path
// package, and asserts the exact diagnostic set via // want comments.
// Every interprocedural check must fire somewhere in the tree.
func TestInterprocFixtures(t *testing.T) {
	root := findModuleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Loader: loader, Config: interpConfig()}
	targets := interpTargets(t, root)
	diags, err := runner.Lint(targets)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string][]string{}
	for _, tgt := range targets {
		for key, subs := range collectWants(t, tgt.Dir) {
			wants[key] = append(wants[key], subs...)
		}
	}
	matchWants(t, diags, wants)
	fired := map[string]bool{}
	for _, d := range diags {
		fired[d.Check] = true
	}
	for _, c := range ModuleChecks {
		if !fired[c.Name] {
			t.Errorf("no fixture under testdata/interp trips check %s", c.Name)
		}
	}
}

// TestLintDeterminism pins the output-determinism invariant: two fresh
// loader+runner passes over the same targets must render byte-identical
// diagnostics, hints and call chains included — no map-iteration order
// may leak into the fixpoint or the reports.
func TestLintDeterminism(t *testing.T) {
	root := findModuleRoot(t)
	render := func() string {
		loader, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		runner := &Runner{Loader: loader, Config: interpConfig()}
		diags, err := runner.Lint(interpTargets(t, root))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&b, "%s\n", d)
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("interp fixtures produced no diagnostics; determinism test is vacuous")
	}
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d diverged:\n--- first ---\n%s--- run %d ---\n%s", i+2, first, i+2, got)
		}
	}
}

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
