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

// targets lists every package directory under dir as a lint target, at
// its import path below module.
func targets(t *testing.T, dir, module string) []Target {
	t.Helper()
	dirs, err := PackageDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]Target, len(dirs))
	for i, rel := range dirs {
		path := module
		if rel != "." {
			path += "/" + rel
		}
		ts[i] = Target{Dir: filepath.Join(dir, filepath.FromSlash(rel)), Path: path}
	}
	return ts
}

// fixtureTargets lists the fixture packages under testdata/lint, in the
// fake module "fixture".
func fixtureTargets(t *testing.T, root string) []Target {
	t.Helper()
	ts := targets(t, filepath.Join(root, "testdata", "lint"), "fixture")
	if len(ts) < 5 {
		t.Fatalf("found only %d fixture packages under testdata/lint; expected one per check at least", len(ts))
	}
	return ts
}

// TestFixtures runs the full check suite over every fixture package under
// testdata/lint and asserts the exact diagnostic set: each // want
// comment must be hit on its line, and nothing unexpected may fire. The
// fixture tree reuses the default scope table under the module name
// "fixture", so fixture/cmd/... and fixture/internal/sim exercise the
// allowlist entries. Every check must fire somewhere: a check no fixture
// can trip guards a hazard that can no longer occur.
func TestFixtures(t *testing.T) {
	root := findModuleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Loader: loader, Config: DefaultConfig("fixture")}
	fired := map[string]bool{}
	for _, tgt := range fixtureTargets(t, root) {
		t.Run(strings.TrimPrefix(tgt.Path, "fixture/"), func(t *testing.T) {
			diags, err := runner.LintDir(tgt.Dir, tgt.Path)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				fired[d.Check] = true
			}
			matchWants(t, diags, collectWants(t, tgt.Dir))
		})
	}
	for _, c := range Checks {
		if !fired[c.Name] {
			t.Errorf("no fixture under testdata/lint trips check %s", c.Name)
		}
	}
}

// TestLintDeterminism pins the output-determinism invariant: two fresh
// loader+runner passes over the whole fixture tree must render
// byte-identical diagnostics, hints included — no map-iteration order may
// leak into the reports.
func TestLintDeterminism(t *testing.T) {
	root := findModuleRoot(t)
	render := func() string {
		loader, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		runner := &Runner{Loader: loader, Config: DefaultConfig("fixture")}
		diags, err := runner.Lint(fixtureTargets(t, root))
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
		t.Fatal("the fixtures produced no diagnostics; determinism test is vacuous")
	}
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d diverged:\n--- first ---\n%s--- run %d ---\n%s", i+2, first, i+2, got)
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
// directories go into one Lint call, exactly like `ddbmlint ./...`.
func TestRepoLintClean(t *testing.T) {
	root := findModuleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Loader: loader, Config: DefaultConfig(loader.Module)}
	diags, err := runner.Lint(targets(t, root, loader.Module))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestExemptPackagesAreMain pins the premise that keeps the exemptions of
// no-wall-clock and no-global-rand (cmd/...) from leaking into simulation
// code: every package outside either check's scope is a main package,
// which Go forbids importing, so no simulation code can call a helper
// that reads the host clock or the global rand source there. Test files,
// the other exemption of no-wall-clock, are not importable either.
func TestExemptPackagesAreMain(t *testing.T) {
	root := findModuleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(loader.Module)
	clockPol, randPol := cfg.policy("no-wall-clock"), cfg.policy("no-global-rand")
	exempt := 0
	for _, tgt := range targets(t, root, loader.Module) {
		if clockPol.inScope(tgt.Path) && randPol.inScope(tgt.Path) {
			continue
		}
		exempt++
		pd, err := loader.parseDir(tgt.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range pd.files {
			if f.Name.Name != "main" {
				t.Errorf("%s: package %s is exempt from no-wall-clock or no-global-rand, so it must be a main package; simulation code can import it",
					loader.Fset.Position(f.Package), f.Name.Name)
			}
		}
	}
	if exempt == 0 {
		t.Fatal("no package is exempt from either check; the test is vacuous")
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
