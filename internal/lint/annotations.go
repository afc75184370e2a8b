package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// annotation is one parsed //ddbmlint: comment clause.
type annotation struct {
	line   int
	check  string // canonical name of the check the annotation excuses
	reason string
	used   bool
}

// fileAnns indexes a file's annotations by line (for suppression lookup)
// and in source order (for the unused-annotation sweep). A line can carry
// several annotations — clauses chained inside one comment and stacked
// comment lines above a site are all independently tracked.
type fileAnns struct {
	byLine map[int][]*annotation
	list   []*annotation
}

const annPrefix = "ddbmlint:"

// collectAnnotations parses every //ddbmlint: comment in f. One comment
// may chain several clauses ("//ddbmlint:allow a <why> ddbmlint:allow b
// <why>"), so a site flagged by two checks can suppress both on one line.
// Malformed annotations (unknown verb or check, missing justification)
// are reported immediately when report is set — an escape hatch that does
// not state its argument is worthless for review. Dependency units parse
// annotations for suppression but never report on them.
func collectAnnotations(fset *token.FileSet, f *ast.File, rn *run, report bool) *fileAnns {
	fa := &fileAnns{byLine: map[int][]*annotation{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			text = strings.TrimSuffix(text, "*/")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, annPrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			// Split chained clauses: every "ddbmlint:" occurrence starts a
			// new annotation, so the reason of one clause ends where the
			// next begins.
			for _, clause := range strings.Split(text, annPrefix) {
				clause = strings.TrimSpace(strings.TrimSuffix(clause, "//"))
				if clause == "" {
					continue
				}
				if a := parseClause(clause, pos, rn, report); a != nil {
					fa.byLine[a.line] = append(fa.byLine[a.line], a)
					fa.list = append(fa.list, a)
				}
			}
		}
	}
	return fa
}

// parseClause parses one annotation clause (the text after "ddbmlint:").
func parseClause(body string, pos token.Position, rn *run, report bool) *annotation {
	verb, rest, _ := strings.Cut(body, " ")
	var check, reason string
	switch verb {
	case "ordered":
		check, reason = "map-order", strings.TrimSpace(rest)
	case "allow":
		check, reason, _ = strings.Cut(strings.TrimSpace(rest), " ")
		reason = strings.TrimSpace(reason)
		if !checkNameValid(check) {
			if report {
				rn.diags = append(rn.diags, Diagnostic{
					Pos: pos, Check: "annotation",
					Msg:  fmt.Sprintf("ddbmlint:allow names unknown check %q", check),
					Hint: knownChecksHint(),
				})
			}
			return nil
		}
	default:
		if report {
			rn.diags = append(rn.diags, Diagnostic{
				Pos: pos, Check: "annotation",
				Msg:  fmt.Sprintf("unknown ddbmlint annotation verb %q", verb),
				Hint: "use //ddbmlint:ordered <why> or //ddbmlint:allow <check> <why>",
			})
		}
		return nil
	}
	if reason == "" {
		if report {
			rn.diags = append(rn.diags, Diagnostic{
				Pos: pos, Check: "annotation",
				Msg:  "ddbmlint annotation without a justification",
				Hint: "state why the flagged construct cannot affect determinism",
			})
		}
		return nil
	}
	return &annotation{line: pos.Line, check: check, reason: reason}
}

func knownChecksHint() string {
	names := make([]string, 0, len(Checks)+len(ModuleChecks))
	for _, c := range Checks {
		names = append(names, c.Name)
	}
	for _, c := range ModuleChecks {
		names = append(names, c.Name)
	}
	return "known checks: " + strings.Join(names, ", ")
}
