// Package xtest exercises the loader on an external test package that
// uses a helper from an in-package test file (the export_test.go
// pattern): the external unit is checked against the package together
// with its in-package test files, as go test compiles it.
package xtest

func double(x int) int { return 2 * x }

// Quadruple is the package's exported surface.
func Quadruple(x int) int { return double(double(x)) }
