// Package recovery mirrors the repo's internal/recovery package path
// through the default scope table: restart and replay are simulation
// code, so the wall-clock ban applies — recovery waits on simulated
// delays only.
package recovery

import "time"

// replayBad measures replay against the host clock instead of charging
// simulated time; both reads are flagged.
func replayBad(started time.Time) time.Duration {
	time.Sleep(time.Millisecond) // want "wall-clock time.Sleep"
	return time.Since(started)   // want "wall-clock time.Since"
}

// replayFine is pure duration arithmetic over simulated quantities.
func replayFine(records int, perRecordMs float64) float64 {
	return float64(records) * perRecordMs
}

var (
	_ = replayBad
	_ = replayFine
)
