// Command ddbmlint statically enforces the simulator's determinism
// invariants: no wall-clock time, no global math/rand, no order-sensitive
// map iteration, no goroutines outside internal/sim, no reflection-based
// sorting in library code — and, interprocedurally, no tainted helpers
// reaching simulation code (taint-wall-clock, taint-rand). See
// internal/lint and DESIGN.md ("Statically-enforced determinism
// invariants", "Interprocedural analysis").
//
// Usage:
//
//	go run ./cmd/ddbmlint ./...
//	go run ./cmd/ddbmlint -json ./internal/cc ./experiments
//
// With -json, each finding is one JSON object per line with the stable
// field order file, line, col, check, msg, hint.
//
// Exit status: 0 clean, 1 findings, 2 load or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ddbm/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the machine-readable rendering of one finding. The
// field order is part of the tool's interface: CI annotation tooling
// parses these lines positionally diff-stable.
type jsonDiagnostic struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
	Hint  string `json:"hint,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ddbmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit one JSON object per finding instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	args = fs.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "ddbmlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "ddbmlint:", err)
		return 2
	}
	dirs, err := expandArgs(root, args)
	if err != nil {
		fmt.Fprintln(stderr, "ddbmlint:", err)
		return 2
	}
	var targets []lint.Target
	for _, rel := range dirs {
		pkgPath := loader.Module
		if rel != "." {
			pkgPath += "/" + rel
		}
		targets = append(targets, lint.Target{
			Dir:  filepath.Join(root, filepath.FromSlash(rel)),
			Path: pkgPath,
		})
	}
	runner := &lint.Runner{Loader: loader, Config: lint.DefaultConfig(loader.Module)}
	diags, err := runner.Lint(targets)
	if err != nil {
		fmt.Fprintln(stderr, "ddbmlint:", err)
		return 2
	}
	enc := json.NewEncoder(stdout)
	for _, d := range diags {
		// Print module-relative paths: stable across machines.
		if p, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(p)
		}
		if *jsonOut {
			enc.Encode(jsonDiagnostic{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Check: d.Check, Msg: d.Msg, Hint: d.Hint,
			})
		} else {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "ddbmlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// moduleRoot walks upward from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// expandArgs resolves package patterns to module-root-relative package
// directories. Supported: "./...", "dir/...", and plain directories.
func expandArgs(root string, args []string) ([]string, error) {
	all, err := lint.PackageDirs(root)
	if err != nil {
		return nil, err
	}
	var out []string
	seen := map[string]bool{}
	add := func(rel string) {
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	for _, arg := range args {
		prefix, recursive := strings.CutSuffix(arg, "...")
		prefix = strings.TrimSuffix(prefix, "/")
		if prefix == "" || prefix == "." {
			prefix = "."
		}
		rel, err := relToRoot(root, prefix)
		if err != nil {
			return nil, err
		}
		matched := false
		for _, d := range all {
			if d == rel || (recursive && (rel == "." || strings.HasPrefix(d, rel+"/"))) {
				add(d)
				matched = true
			}
		}
		if !matched {
			// An explicit (non-pattern) directory outside the default
			// walk — e.g. a fixture package under testdata/ — is still a
			// valid target if it holds Go files.
			if !recursive && hasGoFiles(filepath.Join(root, filepath.FromSlash(rel))) {
				add(rel)
				continue
			}
			return nil, fmt.Errorf("pattern %q matched no packages", arg)
		}
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

func relToRoot(root, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("directory %q is outside the module", dir)
	}
	return filepath.ToSlash(rel), nil
}
