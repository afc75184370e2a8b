package workload

import (
	"math/rand"
	"testing"

	"ddbm/internal/db"
)

func multiGen(t *testing.T) *Generator {
	t.Helper()
	cat, err := db.PlacePartitioned(8, 8, 300, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return &Generator{
		Catalog: cat,
		Classes: []Class{
			{Frac: 0.75, FileCount: 1, AvgPages: 4, WriteProb: 0.5, InstPerPage: 4000},
			{Frac: 0.25, FileCount: 0, AvgPages: 8, WriteProb: 0, InstPerPage: 8000, Sequential: true},
		},
	}
}

func TestClassOfTerminalFollowsFractions(t *testing.T) {
	g := multiGen(t)
	counts := map[int]int{}
	const terms = 128
	for i := 0; i < terms; i++ {
		c := g.ClassOfTerminal(i, terms)
		if c.FileCount == 1 {
			counts[0]++
		} else {
			counts[1]++
		}
	}
	if counts[0] != 96 || counts[1] != 32 {
		t.Fatalf("class split %v, want 96/32 for 0.75/0.25", counts)
	}
}

func TestClassOfTerminalSingleClass(t *testing.T) {
	cat, _ := db.PlaceScaled(8, 8, 300, 8)
	g := &Generator{Catalog: cat, AvgPages: 8, WriteProb: 0.25, InstPerPage: 8000}
	c := g.ClassOfTerminal(0, 10)
	if c.AvgPages != 8 || c.WriteProb != 0.25 || c.InstPerPage != 8000 || c.FileCount != 0 {
		t.Fatalf("default class %+v", c)
	}
}

func TestClassPlanRespectsFileCount(t *testing.T) {
	g := multiGen(t)
	r := rand.New(rand.NewSource(1))
	small := g.Classes[0]
	for i := 0; i < 100; i++ {
		plan := g.NewClassPlan(r, i%8, small)
		files := map[int]bool{}
		for _, c := range plan.Cohorts {
			for _, a := range c.Accesses {
				files[a.Page.File] = true
			}
		}
		if len(files) != 1 {
			t.Fatalf("FileCount=1 class touched %d files", len(files))
		}
		if plan.Sequential {
			t.Fatal("class 0 is parallel")
		}
	}
}

func TestClassPlanFullRelation(t *testing.T) {
	g := multiGen(t)
	r := rand.New(rand.NewSource(2))
	big := g.Classes[1]
	plan := g.NewClassPlan(r, 3, big)
	files := map[int]bool{}
	writes := 0
	for _, c := range plan.Cohorts {
		for _, a := range c.Accesses {
			files[a.Page.File] = true
			if a.Write {
				writes++
			}
		}
	}
	if len(files) != 8 {
		t.Fatalf("FileCount=0 class touched %d files, want all 8", len(files))
	}
	if writes != 0 {
		t.Fatal("read-only class produced writes")
	}
	if !plan.Sequential {
		t.Fatal("class 1 requests sequential execution")
	}
}

func TestClassPlanPageCountsPerClass(t *testing.T) {
	g := multiGen(t)
	r := rand.New(rand.NewSource(3))
	small := g.Classes[0]
	for i := 0; i < 100; i++ {
		plan := g.NewClassPlan(r, 0, small)
		n := plan.NumReads()
		if n < 2 || n > 6 {
			t.Fatalf("small class read %d pages, want 2..6 (avg 4)", n)
		}
	}
}

func TestClassValidation(t *testing.T) {
	cat, _ := db.PlaceScaled(8, 8, 300, 8)
	bad := []*Generator{
		{Catalog: cat, Classes: []Class{{Frac: 0.5, AvgPages: 4, InstPerPage: 1}}},                                       // fractions != 1
		{Catalog: cat, Classes: []Class{{Frac: 1, AvgPages: 0, InstPerPage: 1}}},                                         // pages
		{Catalog: cat, Classes: []Class{{Frac: 1, AvgPages: 4, WriteProb: 2, InstPerPage: 1}}},                           // prob
		{Catalog: cat, Classes: []Class{{Frac: 1, AvgPages: 4, FileCount: 9, InstPerPage: 1}}},                           // files
		{Catalog: cat, Classes: []Class{{Frac: 0, AvgPages: 4, InstPerPage: 1}, {Frac: 1, AvgPages: 4, InstPerPage: 1}}}, // zero frac
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("invalid class config %d accepted", i)
		}
	}
	good := &Generator{Catalog: cat, Classes: []Class{
		{Frac: 0.5, AvgPages: 4, InstPerPage: 1},
		{Frac: 0.5, AvgPages: 8, FileCount: 3, InstPerPage: 1},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid class config rejected: %v", err)
	}
}

func TestClassPlanReplicationInteraction(t *testing.T) {
	cat, _ := db.PlacePartitioned(8, 8, 300, 8, 8)
	if err := cat.Replicate(2, 8); err != nil {
		t.Fatal(err)
	}
	g := &Generator{Catalog: cat, Classes: []Class{
		{Frac: 1, FileCount: 2, AvgPages: 4, WriteProb: 1, InstPerPage: 1000},
	}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	plan := g.NewClassPlan(r, 0, g.Classes[0])
	local, remote := 0, 0
	for _, c := range plan.Cohorts {
		for _, a := range c.Accesses {
			if a.Remote {
				remote++
			} else {
				local++
			}
		}
	}
	if remote != local {
		t.Fatalf("WriteProb=1 with 2 copies: %d local vs %d remote writes, want equal", local, remote)
	}
}

// TestDefaultClassLookupsAllocFree pins the single-class generator's class
// lookups at zero allocations: the default class lives in the generator,
// not in a slice built per call. NewPlan may allocate only what building
// the plan itself does, the same as NewClassPlan with that class.
func TestDefaultClassLookupsAllocFree(t *testing.T) {
	g := gen(t, 8)
	lookups := []struct {
		name string
		f    func()
	}{
		{"NumClasses", func() { _ = g.NumClasses() }},
		{"ClassOfTerminal", func() { _ = g.ClassOfTerminal(3, 128) }},
		{"ClassIndexOfTerminal", func() { _ = g.ClassIndexOfTerminal(3, 128) }},
		{"MaxAccessesPerCohort", func() { _ = g.MaxAccessesPerCohort() }},
	}
	for _, l := range lookups {
		if n := testing.AllocsPerRun(100, l.f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", l.name, n)
		}
	}
	r := rand.New(rand.NewSource(1))
	cls := g.ClassOfTerminal(0, 1)
	viaDefault := testing.AllocsPerRun(100, func() {
		r.Seed(1)
		_ = g.NewPlan(r, 0)
	})
	viaClass := testing.AllocsPerRun(100, func() {
		r.Seed(1)
		_ = g.NewClassPlan(r, 0, cls)
	})
	if viaDefault != viaClass {
		t.Errorf("NewPlan: %v allocations per plan, NewClassPlan with the same class %v", viaDefault, viaClass)
	}
}
