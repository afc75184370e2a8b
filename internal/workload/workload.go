// Package workload implements the source component of the model (paper
// §3.2, Table 2): it turns a transaction class description into concrete
// transaction plans — which pages of which partitions each cohort reads,
// which of those it updates, and how much CPU each page costs.
package workload

import (
	"fmt"
	"math/rand"

	"ddbm/internal/db"
	"ddbm/internal/sim"
)

// Access is one page access in a cohort's plan.
type Access struct {
	Page  db.PageID
	Write bool
	// Remote marks a write to a non-primary copy of a replicated page
	// (read-one/write-all): the cohort makes a write concurrency control
	// request but performs no read I/O or page processing; the copy is
	// installed at commit like any other deferred update. Remote implies
	// Write.
	Remote bool
	// Inst is the CPU demand for processing this page when reading it,
	// drawn exponentially with mean InstPerPage.
	Inst float64
	// WriteInst is the additional CPU demand for processing the page when
	// writing it (Table 2: InstPerPage applies "when reading or writing");
	// zero for read-only and remote-copy accesses.
	WriteInst float64
}

// CohortPlan is the work one cohort performs at one node.
type CohortPlan struct {
	Node     int
	Accesses []Access
}

// NumWrites returns how many of the cohort's accesses are updates.
func (c *CohortPlan) NumWrites() int {
	n := 0
	for _, a := range c.Accesses {
		if a.Write {
			n++
		}
	}
	return n
}

// TxnPlan is a complete transaction: one cohort per node that stores data
// the transaction accesses, in partition order (which is also the execution
// order for sequential transactions). The plan is fixed across restart
// attempts — a rerun transaction re-executes the same accesses.
type TxnPlan struct {
	Relation int
	Cohorts  []CohortPlan
	// Sequential requests sequential cohort execution for this transaction
	// (set from its class; the machine-wide ExecPattern can also force it).
	Sequential bool

	// refs counts the live references to a pooled plan (see
	// Generator.AcquireClassPlan / Retain / Release); zero for plans built
	// with the value API.
	refs int
}

// NumReads returns the total number of page reads (remote-copy writes do
// not read).
func (t *TxnPlan) NumReads() int {
	n := 0
	for i := range t.Cohorts {
		for j := range t.Cohorts[i].Accesses {
			if !t.Cohorts[i].Accesses[j].Remote {
				n++
			}
		}
	}
	return n
}

// NumWrites returns the total number of updated pages.
func (t *TxnPlan) NumWrites() int {
	n := 0
	for i := range t.Cohorts {
		n += t.Cohorts[i].NumWrites()
	}
	return n
}

// Spread selects the distribution of the per-partition page count around
// its mean.
type Spread int

const (
	// SpreadHalfToThreeHalves draws uniformly from [avg/2, 3·avg/2]
	// (mean avg). This matches the paper's quantitative footnote 12, which
	// computes with cohorts of 4..12 pages around a mean of 8.
	SpreadHalfToThreeHalves Spread = iota
	// SpreadHalfToTwice draws uniformly from [avg/2, 2·avg] as the model
	// section's prose states (mean 1.25·avg).
	SpreadHalfToTwice
)

// Class describes one transaction class (paper Table 2): which files of
// the terminal's relation a transaction touches and how it treats them.
type Class struct {
	// Frac is the fraction of terminals generating this class (ClassFrac).
	Frac float64
	// Sequential selects sequential cohort execution for this class
	// (ExecPattern); the default is parallel.
	Sequential bool
	// FileCount is how many distinct partitions of the terminal's relation
	// a transaction accesses, drawn uniformly without replacement
	// (FileCount/FileProb); 0 means every partition — the configuration
	// used throughout the paper's experiments.
	FileCount int
	// AvgPages is the mean number of pages read per accessed partition
	// (NumPages).
	AvgPages int
	// WriteProb is the probability an accessed page is updated.
	WriteProb float64
	// InstPerPage is the mean CPU instruction count to process a page.
	InstPerPage float64
}

// Generator creates transaction plans for one or more transaction classes.
type Generator struct {
	Catalog *db.Catalog
	// AvgPages is the mean number of pages read per partition (NumPages)
	// for the default class.
	AvgPages int
	// WriteProb is the probability an accessed page is updated (default
	// class).
	WriteProb float64
	// InstPerPage is the mean CPU instruction count to process a page
	// (default class).
	InstPerPage float64
	// Spread selects the page-count distribution (all classes).
	Spread Spread
	// Classes optionally defines a multi-class workload; when empty a
	// single class built from the fields above is used (the paper's
	// configuration).
	Classes []Class

	// permScratch backs the per-partition page samples so plan generation
	// does not allocate a fresh permutation per partition. Plans for one
	// machine are generated one at a time (the simulation kernel runs a
	// single process at a time), so one buffer suffices.
	permScratch []int

	// Plan-construction scratch (same single-threaded argument as
	// permScratch): cached per-relation placement, the FileCount partition
	// filter, and the remote-copy staging buffers. All reach a high-water
	// capacity and then stop allocating.
	relNodes   [][]int   // per-relation node list (catalog is immutable)
	relParts   [][][]int // per relation, parts per node, aligned with relNodes
	partSample []int     // FileCount partition sample scratch
	chosen     []bool    // FileCount partition membership, cleared after use
	fNodes     []int     // filtered node list
	fParts     [][]int   // filtered parts per node, aliasing fFlat
	fFlat      []int     // flat storage behind fParts
	remote     []Access  // staged remote-copy writes
	remoteAt   []int     // their target nodes, aligned with remote

	// free holds recycled transaction plans; Release returns a plan here
	// once its last reference drops.
	free []*TxnPlan

	// def backs the effective class list of a single-class generator, so
	// classes() returns a slice of it instead of building one per call.
	def [1]Class
}

// Validate checks the generator's parameters.
func (g *Generator) Validate() error {
	if g.Catalog == nil {
		return fmt.Errorf("workload: nil catalog")
	}
	for i, c := range g.classes() {
		switch {
		case c.AvgPages < 1:
			return fmt.Errorf("workload: class %d AvgPages must be >= 1, got %d", i, c.AvgPages)
		case c.WriteProb < 0 || c.WriteProb > 1:
			return fmt.Errorf("workload: class %d WriteProb %v out of [0,1]", i, c.WriteProb)
		case c.InstPerPage < 0:
			return fmt.Errorf("workload: class %d negative InstPerPage %v", i, c.InstPerPage)
		case c.FileCount < 0 || c.FileCount > g.Catalog.PartsPerRelation:
			return fmt.Errorf("workload: class %d FileCount %d out of range for %d partitions",
				i, c.FileCount, g.Catalog.PartsPerRelation)
		case len(g.Classes) > 0 && c.Frac <= 0:
			return fmt.Errorf("workload: class %d has non-positive fraction", i)
		}
	}
	if len(g.Classes) > 0 {
		var total float64
		for _, c := range g.Classes {
			total += c.Frac
		}
		if total < 0.999 || total > 1.001 {
			return fmt.Errorf("workload: class fractions sum to %v, want 1", total)
		}
	}
	return nil
}

// classes returns the effective class list (the default single class when
// none are configured).
func (g *Generator) classes() []Class {
	if len(g.Classes) > 0 {
		return g.Classes
	}
	g.def[0] = Class{
		Frac:        1,
		AvgPages:    g.AvgPages,
		WriteProb:   g.WriteProb,
		InstPerPage: g.InstPerPage,
	}
	return g.def[:]
}

// NumClasses returns the number of effective transaction classes (1 for
// the default single-class workload).
func (g *Generator) NumClasses() int { return len(g.classes()) }

// ClassOfTerminal deterministically assigns a class to a terminal by the
// cumulative class fractions (terminal i of n gets the class covering
// quantile (i+0.5)/n).
func (g *Generator) ClassOfTerminal(term, numTerminals int) Class {
	return g.classes()[g.ClassIndexOfTerminal(term, numTerminals)]
}

// ClassIndexOfTerminal is ClassOfTerminal returning the class's index in
// the effective class list — the stable key the breakdown accounting's
// per-class histograms aggregate under.
func (g *Generator) ClassIndexOfTerminal(term, numTerminals int) int {
	cs := g.classes()
	q := (float64(term) + 0.5) / float64(numTerminals)
	var cum float64
	for i, c := range cs {
		cum += c.Frac
		if q <= cum {
			return i
		}
	}
	return len(cs) - 1
}

// pageCount draws the number of pages to read from one partition.
func (g *Generator) pageCount(r *rand.Rand, avg, filePages int) int {
	lo := avg / 2
	if lo < 1 {
		lo = 1
	}
	var hi int
	switch g.Spread {
	case SpreadHalfToTwice:
		hi = 2 * avg
	default:
		hi = avg + avg/2
	}
	n := sim.UniformInt(r, lo, hi)
	if n > filePages {
		n = filePages
	}
	return n
}

// NewPlan builds a default-class transaction accessing every partition of
// relation rel (the paper's configuration). See NewClassPlan.
func (g *Generator) NewPlan(r *rand.Rand, rel int) TxnPlan {
	return g.NewClassPlan(r, rel, g.classes()[0])
}

// NewClassPlan builds a transaction of the given class against relation
// rel: one cohort per node holding (a primary copy of) the partitions it
// touches, each cohort reading a random sample (without replacement) of
// pages from each local partition and updating each with the class's write
// probability. With replicated files, every updated page additionally gets
// a remote-write access at each node holding another copy
// (read-one/write-all), extending the transaction with cohorts at those
// nodes when needed.
//
// The returned plan is caller-owned; the hot transaction loop uses
// AcquireClassPlan instead, which recycles plans through the generator's
// free-list.
func (g *Generator) NewClassPlan(r *rand.Rand, rel int, class Class) TxnPlan {
	var plan TxnPlan
	g.build(r, rel, class, &plan)
	return plan
}

// maxPagesPerPartition returns the worst-case pageCount draw over every
// class: the upper end of the spread around the largest class mean, capped
// at the partition size.
func (g *Generator) maxPagesPerPartition() int {
	hiMax := 1
	for _, c := range g.classes() {
		var hi int
		switch g.Spread {
		case SpreadHalfToTwice:
			hi = 2 * c.AvgPages
		default:
			hi = c.AvgPages + c.AvgPages/2
		}
		if hi > g.Catalog.PagesPerFile {
			hi = g.Catalog.PagesPerFile
		}
		if hi > hiMax {
			hiMax = hi
		}
	}
	return hiMax
}

// MaxAccessesPerCohort bounds the accesses one cohort can be planned with:
// db.Catalog.MaxPartsAtNode, the most partitions of one relation with a
// copy at one node, times the worst-case page draw. Each of those
// partitions adds at most one draw to the node, as the node's own
// partition or as remote copies of its writes. On the paper's Table 4
// placement that is 1 × 12. The machine sizes per-cohort resources (lock
// tables, deferred write-lock buffers) with the same bound. It walks the
// placement, so call it at set-up.
func (g *Generator) MaxAccessesPerCohort() int {
	return g.Catalog.MaxPartsAtNode() * g.maxPagesPerPartition()
}

// Reserve pre-builds pooled plan shells, each with cohort and access
// storage at its worst-case size, and pre-sizes the construction scratch.
// The pool and scratch are self-amortising, but their growth chases
// high-water records (most live plans at once, widest plan seen) that
// arrive too rarely for a warmup to retire deterministically — holders
// with a pinned allocation budget pre-size from the machine's concurrency
// bound instead. The plans, their cohort arrays and their access arrays
// are carved from one slice each; an access array's capacity is capped at
// the per-cohort bound, so an append past it reallocates rather than run
// into a neighbour. Reserve draws no randomness, so pooled plans built
// after it are bit-identical to plans built without it.
func (g *Generator) Reserve(plans int) {
	numNodes := g.Catalog.NumNodes()
	acc := g.MaxAccessesPerCohort()
	if cap(g.free) < plans {
		f := make([]*TxnPlan, len(g.free), plans)
		copy(f, g.free)
		g.free = f
	}
	if n := plans - len(g.free); n > 0 {
		shells := make([]TxnPlan, n)
		cohorts := make([]CohortPlan, n*numNodes)
		accesses := make([]Access, n*numNodes*acc)
		for i := range shells {
			row := cohorts[i*numNodes : (i+1)*numNodes : (i+1)*numNodes]
			for j := range row {
				off := (i*numNodes + j) * acc
				row[j].Accesses = accesses[off : off : off+acc]
			}
			shells[i].Cohorts = row[:0]
			g.free = append(g.free, &shells[i])
		}
	}
	// Remote-copy staging: every write of the transaction can fan out to
	// each extra replica.
	if rc := g.Catalog.ReplicaCount(); rc > 1 {
		if n := g.Catalog.PartsPerRelation * g.maxPagesPerPartition() * (rc - 1); cap(g.remote) < n {
			g.remote = make([]Access, 0, n)
			g.remoteAt = make([]int, 0, n)
		}
	}
	// FileCount filter staging: at most every partition, at every node.
	if n := g.Catalog.PartsPerRelation; cap(g.fFlat) < n {
		g.fFlat = make([]int, 0, n)
	}
	if cap(g.fNodes) < numNodes {
		g.fNodes = make([]int, 0, numNodes)
		g.fParts = make([][]int, 0, numNodes)
	}
}

// AcquireClassPlan is NewClassPlan drawing from the generator's plan
// free-list: the returned plan starts with one reference and is recycled
// when Release drops the count to zero. It consumes exactly the same
// randomness as NewClassPlan.
func (g *Generator) AcquireClassPlan(r *rand.Rand, rel int, class Class) *TxnPlan {
	var p *TxnPlan
	if n := len(g.free); n > 0 {
		p = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
	} else {
		p = &TxnPlan{}
	}
	p.refs = 1
	g.build(r, rel, class, p)
	return p
}

// Retain adds a reference to a pooled plan (a restarted attempt keeps the
// plan alive across its in-flight messages).
func (g *Generator) Retain(p *TxnPlan) { p.refs++ }

// Release drops a reference to a pooled plan, recycling it when the last
// reference goes away.
func (g *Generator) Release(p *TxnPlan) {
	p.refs--
	if p.refs < 0 {
		panic("workload: plan released more often than retained")
	}
	if p.refs == 0 {
		g.free = append(g.free, p)
	}
}

// build constructs a plan of the given class into p, reusing p's cohort
// and access storage. All randomness flows through here in a fixed order
// (partition filter, then per-partition page count, page sample, and
// per-page write/instruction draws), so pooled and value-API plans are
// interchangeable under a seed.
func (g *Generator) build(r *rand.Rand, rel int, class Class, p *TxnPlan) {
	nodes, parts := g.resolveRelation(rel)
	// Restrict to FileCount randomly chosen partitions if the class asks.
	if class.FileCount > 0 && class.FileCount < g.Catalog.PartsPerRelation {
		nodes, parts = g.filterParts(r, nodes, parts, class.FileCount)
	}

	p.Relation, p.Sequential = rel, class.Sequential
	p.Cohorts = p.Cohorts[:0]
	for _, node := range nodes {
		appendCohort(p, node)
	}
	replicated := g.Catalog.ReplicaCount() > 1
	g.remote = g.remote[:0]
	g.remoteAt = g.remoteAt[:0]
	for i := range nodes {
		cp := &p.Cohorts[i]
		for _, part := range parts[i] {
			file := g.Catalog.FileOf(rel, part)
			n := g.pageCount(r, class.AvgPages, g.Catalog.PagesPerFile)
			pages := sim.SampleWithoutReplacementInto(r, g.Catalog.PagesPerFile, n, g.permScratch)
			g.permScratch = pages[:0]
			for _, pg := range pages {
				a := Access{
					Page:  db.PageID{File: file, Page: pg},
					Write: r.Float64() < class.WriteProb,
					Inst:  sim.Exponential(r, class.InstPerPage),
				}
				if a.Write {
					a.WriteInst = sim.Exponential(r, class.InstPerPage)
					if replicated {
						for _, rn := range g.Catalog.Replicas(file)[1:] {
							g.remote = append(g.remote, Access{Page: a.Page, Write: true, Remote: true})
							g.remoteAt = append(g.remoteAt, rn)
						}
					}
				}
				cp.Accesses = append(cp.Accesses, a)
			}
		}
	}
	// Attach remote-copy writes, creating replica-only cohorts as needed.
	for i := range g.remote {
		node := g.remoteAt[i]
		idx := cohortIndex(p, node)
		if idx < 0 {
			idx = appendCohort(p, node)
		}
		p.Cohorts[idx].Accesses = append(p.Cohorts[idx].Accesses, g.remote[i])
	}
}

// appendCohort adds a cohort for node to the plan, reslicing into the
// plan's existing storage when it has capacity so a recycled element keeps
// its Accesses backing array.
func appendCohort(p *TxnPlan, node int) int {
	n := len(p.Cohorts)
	if n < cap(p.Cohorts) {
		p.Cohorts = p.Cohorts[:n+1]
		p.Cohorts[n].Node = node
		p.Cohorts[n].Accesses = p.Cohorts[n].Accesses[:0]
	} else {
		p.Cohorts = append(p.Cohorts, CohortPlan{Node: node})
	}
	return n
}

// cohortIndex finds the plan's cohort at node, -1 if none. Plans span a
// handful of nodes, so a linear scan beats a map — and allocates nothing.
func cohortIndex(p *TxnPlan, node int) int {
	for i := range p.Cohorts {
		if p.Cohorts[i].Node == node {
			return i
		}
	}
	return -1
}

// resolveRelation returns the nodes storing relation rel and, aligned with
// them, the partitions each holds. The catalog is immutable, so the result
// is computed once per relation and cached.
func (g *Generator) resolveRelation(rel int) ([]int, [][]int) {
	for len(g.relNodes) <= rel {
		g.relNodes = append(g.relNodes, nil)
		g.relParts = append(g.relParts, nil)
	}
	if g.relNodes[rel] == nil {
		nodes, partsAt := g.Catalog.RelationNodes(rel)
		parts := make([][]int, len(nodes))
		for i, n := range nodes {
			parts[i] = partsAt[n]
		}
		g.relNodes[rel], g.relParts[rel] = nodes, parts
	}
	return g.relNodes[rel], g.relParts[rel]
}

// filterParts restricts (nodes, parts) to fileCount randomly sampled
// partitions, staging the filtered view in the generator's reusable
// buffers. It draws exactly the randomness the pre-pooling implementation
// drew: one sample of fileCount partitions.
func (g *Generator) filterParts(r *rand.Rand, nodes []int, parts [][]int, fileCount int) ([]int, [][]int) {
	total := g.Catalog.PartsPerRelation
	if cap(g.chosen) < total {
		g.chosen = make([]bool, total)
	}
	g.chosen = g.chosen[:total]
	sample := sim.SampleWithoutReplacementInto(r, total, fileCount, g.partSample)
	for _, part := range sample {
		g.chosen[part] = true
	}
	g.fNodes, g.fParts, g.fFlat = g.fNodes[:0], g.fParts[:0], g.fFlat[:0]
	for i, node := range nodes {
		start := len(g.fFlat)
		for _, part := range parts[i] {
			if g.chosen[part] {
				g.fFlat = append(g.fFlat, part)
			}
		}
		if len(g.fFlat) > start {
			g.fNodes = append(g.fNodes, node)
			g.fParts = append(g.fParts, g.fFlat[start:len(g.fFlat)])
		}
	}
	for _, part := range sample {
		g.chosen[part] = false
	}
	g.partSample = sample[:0]
	return g.fNodes, g.fParts
}
