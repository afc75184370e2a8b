// Package cctest drives concurrency control managers from scripted test
// processes (see package simtest).
package cctest

import (
	"ddbm/internal/cc"
	"ddbm/internal/db"
	"ddbm/internal/sim"
	"ddbm/internal/sim/simtest"
)

// Access is a step in which co requests page through m, waiting out a
// blocked request. The verdict lands in *out (nil drops it).
func Access(m cc.Manager, co *cc.CohortMeta, page db.PageID, write bool, out *cc.Outcome) simtest.Step {
	return Await(co, func() cc.Outcome { return m.Access(co, page, write) }, out)
}

// Await is a step that runs req — a request that may park co — with co's
// continuation set to the process's, waits for the verdict if req
// returned cc.Blocked, and stores the verdict in *out (nil drops it).
func Await(co *cc.CohortMeta, req func() cc.Outcome, out *cc.Outcome) simtest.Step {
	blocked := false
	return func(k *sim.Cont) bool {
		var o cc.Outcome
		if blocked {
			blocked = false
			o = co.Unblocked()
		} else {
			co.K = k
			if o = req(); o == cc.Blocked {
				blocked = true
				return true
			}
		}
		if out != nil {
			*out = o
		}
		return false
	}
}
