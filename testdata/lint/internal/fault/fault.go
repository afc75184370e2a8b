// Package fault mirrors the repo's internal/fault package path through
// the default scope table: the injector is simulation code, so the
// wall-clock ban and the global-rand ban apply in full — fault schedules
// must come from the seeded substreams on simulated time.
package fault

import (
	"math/rand"
	"time"
)

// scheduleBad draws fault timing from the host: both the clock read and
// the global rand source are flagged — the real injector owns dedicated
// *rand.Rand substreams and advances only on simulated time.
func scheduleBad() float64 {
	_ = time.Now()        // want "wall-clock time.Now"
	return rand.Float64() // want "global math/rand"
}

var _ = scheduleBad
