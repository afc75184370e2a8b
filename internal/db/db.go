// Package db models the database of a distributed database machine as a
// collection of files (paper §3.1, Table 1). A file represents one
// horizontal partition of a relation; the mapping of files to processing
// nodes determines the degree of intra-transaction parallelism.
package db

import (
	"fmt"
	"slices"
)

// PageID names one page of one file.
type PageID struct {
	File int
	Page int
}

func (p PageID) String() string { return fmt.Sprintf("f%d:p%d", p.File, p.Page) }

// Catalog describes the database: NumRelations relations horizontally
// partitioned into PartsPerRelation files each, every file PagesPerFile
// pages, with FileNode mapping each file to its primary processing node.
// When files are replicated ([Care88]'s read-one/write-all model),
// FileReplicas lists every node holding a copy, primary first; a nil
// FileReplicas means no replication.
type Catalog struct {
	NumRelations     int
	PartsPerRelation int
	PagesPerFile     int
	FileNode         []int   // file index -> primary processing node id
	FileReplicas     [][]int // file index -> all copy holders (primary first); nil if unreplicated
}

// NumFiles returns the total file count.
func (c *Catalog) NumFiles() int { return c.NumRelations * c.PartsPerRelation }

// TotalPages returns the database size in pages.
func (c *Catalog) TotalPages() int { return c.NumFiles() * c.PagesPerFile }

// FileOf returns the file index of partition part of relation rel.
func (c *Catalog) FileOf(rel, part int) int { return rel*c.PartsPerRelation + part }

// NodeOf returns the primary processing node storing the given file (the
// copy transactions read).
func (c *Catalog) NodeOf(file int) int { return c.FileNode[file] }

// Replicas returns every node holding a copy of the file, primary first.
// The slice is the catalog's own: callers must not modify it.
func (c *Catalog) Replicas(file int) []int {
	if c.FileReplicas == nil {
		return c.FileNode[file : file+1 : file+1]
	}
	return c.FileReplicas[file]
}

// ReplicaCount returns the number of copies of each file (1 = unreplicated).
func (c *Catalog) ReplicaCount() int {
	if c.FileReplicas == nil || len(c.FileReplicas) == 0 {
		return 1
	}
	return len(c.FileReplicas[0])
}

// Replicate adds copies of every file so each is held by n nodes: copy r of
// a file with primary node p lives on node (p+r) mod numNodes. n must be in
// [1, numNodes]; n = 1 clears replication.
func (c *Catalog) Replicate(n, numNodes int) error {
	if n < 1 || n > numNodes {
		return fmt.Errorf("db: replica count %d out of range for %d nodes", n, numNodes)
	}
	if n == 1 {
		c.FileReplicas = nil
		return nil
	}
	c.FileReplicas = make([][]int, c.NumFiles())
	for f := 0; f < c.NumFiles(); f++ {
		copies := make([]int, n)
		for r := 0; r < n; r++ {
			copies[r] = (c.FileNode[f] + r) % numNodes
		}
		c.FileReplicas[f] = copies
	}
	return nil
}

// NumNodes returns the number of processing nodes the placement spans: one
// more than the highest node holding a copy of any file.
func (c *Catalog) NumNodes() int {
	n := 0
	for _, p := range c.FileNode {
		n = max(n, p+1)
	}
	for _, copies := range c.FileReplicas {
		for _, p := range copies {
			n = max(n, p+1)
		}
	}
	return n
}

// MaxPartsAtNode returns the most partitions of one relation that have a
// copy, primary or replica, at one node. A transaction touches one
// relation, and each of its partitions adds at most one page draw to a
// node (as the node's own partition or as remote copies of its writes; a
// replica list names a node at most once), so this count times the page
// maximum bounds one cohort's accesses. It walks the whole placement once
// per node: call it at set-up, not per transaction.
func (c *Catalog) MaxPartsAtNode() int {
	most := 0
	for n := range c.NumNodes() {
		for rel := 0; rel < c.NumRelations; rel++ {
			count := 0
			for part := 0; part < c.PartsPerRelation; part++ {
				if slices.Contains(c.Replicas(c.FileOf(rel, part)), n) {
					count++
				}
			}
			most = max(most, count)
		}
	}
	return most
}

// RelationNodes returns, for relation rel, the ordered list of distinct
// nodes holding its partitions and the partitions stored at each. The order
// follows partition order, which is also the cohort execution order for
// sequential transactions.
func (c *Catalog) RelationNodes(rel int) (nodes []int, partsAt map[int][]int) {
	partsAt = make(map[int][]int)
	seen := make(map[int]bool)
	for part := 0; part < c.PartsPerRelation; part++ {
		n := c.FileNode[c.FileOf(rel, part)]
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
		partsAt[n] = append(partsAt[n], part)
	}
	return nodes, partsAt
}

// Validate checks internal consistency against a machine with numNodes
// processing nodes.
func (c *Catalog) Validate(numNodes int) error {
	if c.NumRelations < 1 || c.PartsPerRelation < 1 || c.PagesPerFile < 1 {
		return fmt.Errorf("db: catalog dimensions must be positive, got %d relations, %d partitions, %d pages",
			c.NumRelations, c.PartsPerRelation, c.PagesPerFile)
	}
	if len(c.FileNode) != c.NumFiles() {
		return fmt.Errorf("db: FileNode has %d entries, want %d", len(c.FileNode), c.NumFiles())
	}
	for f, n := range c.FileNode {
		if n < 0 || n >= numNodes {
			return fmt.Errorf("db: file %d placed on node %d, machine has %d nodes", f, n, numNodes)
		}
	}
	if c.FileReplicas != nil {
		if len(c.FileReplicas) != c.NumFiles() {
			return fmt.Errorf("db: FileReplicas has %d entries, want %d", len(c.FileReplicas), c.NumFiles())
		}
		for f, copies := range c.FileReplicas {
			if len(copies) == 0 || copies[0] != c.FileNode[f] {
				return fmt.Errorf("db: file %d replicas must lead with the primary", f)
			}
			seen := make(map[int]bool, len(copies))
			for _, n := range copies {
				if n < 0 || n >= numNodes {
					return fmt.Errorf("db: file %d copy on node %d, machine has %d nodes", f, n, numNodes)
				}
				if seen[n] {
					return fmt.Errorf("db: file %d has two copies on node %d", f, n)
				}
				seen[n] = true
			}
		}
	}
	return nil
}

// PlaceScaled builds the machine-size-scaling placement of §4.2: each
// relation's partitions are spread in contiguous blocks across all numNodes
// processing nodes (1 node: everything local; 4 nodes: partitions 1-2 on S1,
// 3-4 on S2, ...; 8 nodes: partition j on Sj). numNodes must divide
// PartsPerRelation.
func PlaceScaled(numRelations, partsPerRel, pagesPerFile, numNodes int) (*Catalog, error) {
	if numNodes < 1 || partsPerRel%numNodes != 0 {
		return nil, fmt.Errorf("db: %d nodes must divide %d partitions per relation", numNodes, partsPerRel)
	}
	block := partsPerRel / numNodes
	c := &Catalog{NumRelations: numRelations, PartsPerRelation: partsPerRel, PagesPerFile: pagesPerFile}
	c.FileNode = make([]int, c.NumFiles())
	for rel := 0; rel < numRelations; rel++ {
		for part := 0; part < partsPerRel; part++ {
			c.FileNode[c.FileOf(rel, part)] = part / block
		}
	}
	return c, nil
}

// PlacePartitioned builds the declustering placements of §4.3/§4.4 on a
// machine with numNodes processing nodes: each relation is split "ways"
// ways, its partitions stored in equal groups on ways consecutive nodes
// starting at the relation's home node (relation i's group g lives on node
// (i+g) mod numNodes). With 8 relations on 8 nodes every node stores exactly
// 8 partitions regardless of ways, so total load stays balanced while
// per-transaction parallelism varies — exactly the paper's design.
//
// ways=1 reproduces "1-Way Partitioning" (relation i entirely on node i,
// sequential execution); ways=8 reproduces "8-Way Partitioning".
func PlacePartitioned(numRelations, partsPerRel, pagesPerFile, numNodes, ways int) (*Catalog, error) {
	if ways < 1 || ways > numNodes {
		return nil, fmt.Errorf("db: ways=%d out of range for %d nodes", ways, numNodes)
	}
	if partsPerRel%ways != 0 {
		return nil, fmt.Errorf("db: ways=%d must divide %d partitions per relation", ways, partsPerRel)
	}
	group := partsPerRel / ways
	c := &Catalog{NumRelations: numRelations, PartsPerRelation: partsPerRel, PagesPerFile: pagesPerFile}
	c.FileNode = make([]int, c.NumFiles())
	for rel := 0; rel < numRelations; rel++ {
		for part := 0; part < partsPerRel; part++ {
			g := part / group
			c.FileNode[c.FileOf(rel, part)] = (rel + g) % numNodes
		}
	}
	return c, nil
}
