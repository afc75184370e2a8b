// Package annotations exercises annotation hygiene: malformed or stale
// escapes are diagnostics themselves.
package annotations

/*ddbmlint:gibberish something*/ // want "unknown ddbmlint annotation verb"
func a()                         {}

/*ddbmlint:allow no-such-check because*/ // want "unknown check"
func b()                                 {}

/*ddbmlint:ordered*/ // want "without a justification"
func c()             {}

// A hot-path marker or escape left over from the retired hotpath-alloc
// check is a finding: the verb and the check are both unknown.
//
//ddbmlint:hotpath stale marker // want "unknown ddbmlint annotation verb"
func e() {}

func f() int {
	return 1 //ddbmlint:allow hotpath-alloc stale escape // want "unknown check"
}

func d(m map[int]int) int {
	n := 0
	/*ddbmlint:ordered this loop was already order-insensitive*/ // want "unused ddbmlint annotation"
	for range m {
		n++
	}
	return n
}

var _ = a
var _ = b
var _ = c
var _ = d
var _ = e
var _ = f
