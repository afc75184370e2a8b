package xtest_test

import (
	"math/rand"
	"testing"

	"fixture/xtest"
)

func TestDoubleViaHelper(t *testing.T) {
	x := rand.Intn(10) // want "global math/rand function rand.Intn"
	if xtest.Double(xtest.Double(x)) != xtest.Quadruple(x) {
		t.Fatal("double twice is not quadruple")
	}
}
