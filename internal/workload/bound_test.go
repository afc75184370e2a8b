package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"ddbm/internal/db"
)

// TestMaxAccessesPerCohortBoundsPlans checks that the per-cohort bound the
// machine sizes its lock tables and plan pool from holds for every cohort
// of every plan, across the scaled and partitioned placements, one to
// three copies per file, both spreads and FileCount classes. The bound is
// computed from the placement, so an under-count (one that ignores replica
// copies, say) shows up as a cohort above it. On the paper's Table 4
// placement (eight nodes, one partition of each relation per node) the
// bound must be 12 and must be reached: a bound no plan meets would
// over-size every pool. Files have 60 pages, as in the machine tests, to
// keep the page sampling cheap; every page maximum here is below that.
func TestMaxAccessesPerCohortBoundsPlans(t *testing.T) {
	const plans = 2000
	type placement struct {
		name  string
		nodes int
		place func() (*db.Catalog, error)
	}
	var places []placement
	for _, n := range []int{1, 2, 4, 8} {
		places = append(places, placement{fmt.Sprintf("scaled%d", n), n, func() (*db.Catalog, error) {
			return db.PlaceScaled(8, 8, 60, n)
		}})
	}
	for _, w := range []int{1, 2, 4, 8} {
		places = append(places, placement{fmt.Sprintf("ways%d", w), 8, func() (*db.Catalog, error) {
			return db.PlacePartitioned(8, 8, 60, 8, w)
		}})
	}
	classes := map[string][]Class{
		"default": nil,
		"filecount": {
			{Frac: 0.5, FileCount: 3, AvgPages: 10, WriteProb: 0.5, InstPerPage: 1000},
			{Frac: 0.5, FileCount: 0, AvgPages: 6, WriteProb: 0.25, InstPerPage: 1000},
		},
	}
	seed := int64(0)
	for _, pl := range places {
		for rc := 1; rc <= min(3, pl.nodes); rc++ {
			for _, spread := range []Spread{SpreadHalfToThreeHalves, SpreadHalfToTwice} {
				for _, cname := range []string{"default", "filecount"} {
					name := fmt.Sprintf("%s/replicas%d/spread%d/%s", pl.name, rc, spread, cname)
					cat, err := pl.place()
					if err != nil {
						t.Fatal(err)
					}
					if err := cat.Replicate(rc, pl.nodes); err != nil {
						t.Fatal(err)
					}
					g := &Generator{Catalog: cat, AvgPages: 8, WriteProb: 0.25, InstPerPage: 1000,
						Spread: spread, Classes: classes[cname]}
					if err := g.Validate(); err != nil {
						t.Fatal(err)
					}
					bound := g.MaxAccessesPerCohort()
					g.Reserve(1)
					seed++
					r := rand.New(rand.NewSource(seed))
					widest := 0
					for i := 0; i < plans; i++ {
						p := g.AcquireClassPlan(r, i%cat.NumRelations, g.ClassOfTerminal(i%16, 16))
						for _, c := range p.Cohorts {
							widest = max(widest, len(c.Accesses))
						}
						g.Release(p)
					}
					if widest > bound {
						t.Errorf("%s: a cohort made %d accesses, above the bound %d", name, widest, bound)
					}
					if name == "scaled8/replicas1/spread0/default" && (bound != 12 || widest != bound) {
						t.Errorf("%s (Table 4): bound %d, widest cohort %d accesses; want both 12", name, bound, widest)
					}
				}
			}
		}
	}
}
