// Package insim stands in for the scheduler package: the fixture path
// fixture/internal/sim is exempt from the goroutine check, so nothing
// here is flagged.
package insim

type resumable struct {
	wake chan struct{}
}

func spawn(f func()) {
	go f()
}

var _ = spawn
var _ = resumable{}
