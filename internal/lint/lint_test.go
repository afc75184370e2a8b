package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// findModuleRoot walks up from the test's working directory to go.mod.
func findModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// collectWants scans a fixture package directory for // want "substring"
// comments, keyed by file:line.
func collectWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", path, i+1)
				wants[key] = append(wants[key], m[1])
			}
		}
	}
	return wants
}

// TestFixtures runs the full check suite over every fixture package under
// testdata/lint and asserts the exact diagnostic set: each // want
// comment must be hit on its line, and nothing unexpected may fire. The
// fixture tree reuses the default scope table under the module name
// "fixture", so fixture/cmd/... and fixture/internal/sim exercise the
// allowlist entries. Every intra-unit check must fire somewhere: a check
// no fixture can trip guards a hazard that can no longer occur.
func TestFixtures(t *testing.T) {
	root := findModuleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Loader: loader, Config: DefaultConfig("fixture")}
	fixRoot := filepath.Join(root, "testdata", "lint")
	dirs, err := PackageDirs(fixRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 5 {
		t.Fatalf("found only %d fixture packages under %s; expected one per check at least", len(dirs), fixRoot)
	}
	fired := map[string]bool{}
	for _, rel := range dirs {
		t.Run(rel, func(t *testing.T) {
			dir := filepath.Join(fixRoot, filepath.FromSlash(rel))
			pkgPath := "fixture"
			if rel != "." {
				pkgPath += "/" + rel
			}
			diags, err := runner.LintDir(dir, pkgPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				fired[d.Check] = true
			}
			matchWants(t, diags, collectWants(t, dir))
		})
	}
	for _, c := range Checks {
		if !fired[c.Name] {
			t.Errorf("no fixture under testdata/lint trips check %s", c.Name)
		}
	}
}

// matchWants asserts the exact diagnostic set: each // want comment must
// be hit on its line, and nothing unexpected may fire.
func matchWants(t *testing.T, diags []Diagnostic, wants map[string][]string) {
	t.Helper()
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		rendered := fmt.Sprintf("[%s] %s", d.Check, d.Msg)
		matched := -1
		for i, w := range wants[key] {
			if strings.Contains(rendered, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic at %s: %s", key, rendered)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
		if len(wants[key]) == 0 {
			delete(wants, key)
		}
	}
	for key, subs := range wants {
		for _, w := range subs {
			t.Errorf("missing diagnostic at %s: want %q", key, w)
		}
	}
}

// TestRepoLintClean asserts the repository itself carries zero findings —
// the same gate ci.sh applies via cmd/ddbmlint, enforced from the test
// suite so a bare `go test ./...` also guards the invariants. All package
// directories go into one Lint call, exactly like `ddbmlint ./...`: the
// interprocedural checks need the whole module in a single call graph
// (simulation code in internal/core reaches helpers, and their audited
// annotations, in other packages).
func TestRepoLintClean(t *testing.T) {
	root := findModuleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Loader: loader, Config: DefaultConfig(loader.Module)}
	dirs, err := PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	var targets []Target
	for _, rel := range dirs {
		pkgPath := loader.Module
		if rel != "." {
			pkgPath += "/" + rel
		}
		targets = append(targets, Target{Dir: filepath.Join(root, filepath.FromSlash(rel)), Path: pkgPath})
	}
	diags, err := runner.Lint(targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestPolicyScope pins the scope semantics the config table relies on.
func TestPolicyScope(t *testing.T) {
	p := Policy{Check: "x", Skip: []string{"ddbm/cmd"}, Only: []string{"ddbm"}}
	cases := []struct {
		path string
		want bool
	}{
		{"ddbm", true},
		{"ddbm/internal/sim", true},
		{"ddbm/cmd", false},
		{"ddbm/cmd/ddbsim", false},
		{"ddbm/cmdline", true}, // prefix match is per path segment
		{"fixture/pkg", false},
	}
	for _, c := range cases {
		if got := p.inScope(c.path); got != c.want {
			t.Errorf("inScope(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestAnnotationParsing pins the escape-hatch grammar.
func TestAnnotationParsing(t *testing.T) {
	if !checkNameValid("map-order") || checkNameValid("bogus") {
		t.Fatal("checkNameValid is wrong")
	}
	for _, c := range Checks {
		if c.Name == "" || c.Run == nil {
			t.Fatalf("malformed check registration: %+v", c.Name)
		}
	}
}
