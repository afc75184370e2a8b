package db

import (
	"testing"
	"testing/quick"
)

func TestCatalogBasics(t *testing.T) {
	c, err := PlaceScaled(8, 8, 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumFiles() != 64 {
		t.Errorf("NumFiles %d, want 64", c.NumFiles())
	}
	if c.TotalPages() != 19200 {
		t.Errorf("TotalPages %d, want 19200 (paper's small database)", c.TotalPages())
	}
	if got := c.FileOf(3, 5); got != 3*8+5 {
		t.Errorf("FileOf(3,5) = %d", got)
	}
}

func TestPlaceScaledSingleNode(t *testing.T) {
	c, err := PlaceScaled(8, 8, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < c.NumFiles(); f++ {
		if c.NodeOf(f) != 0 {
			t.Fatalf("file %d on node %d in 1-node system", f, c.NodeOf(f))
		}
	}
}

func TestPlaceScaledFourNodes(t *testing.T) {
	// Paper §4.2: partitions 1-2 on S1, 3-4 on S2, 5-6 on S3, 7-8 on S4.
	c, err := PlaceScaled(8, 8, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	for rel := 0; rel < 8; rel++ {
		for part := 0; part < 8; part++ {
			want := part / 2
			if got := c.NodeOf(c.FileOf(rel, part)); got != want {
				t.Fatalf("relation %d partition %d on node %d, want %d", rel, part, got, want)
			}
		}
	}
}

func TestPlaceScaledEightNodes(t *testing.T) {
	c, err := PlaceScaled(8, 8, 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	for rel := 0; rel < 8; rel++ {
		for part := 0; part < 8; part++ {
			if got := c.NodeOf(c.FileOf(rel, part)); got != part {
				t.Fatalf("8-node scaled: partition %d on node %d", part, got)
			}
		}
	}
}

func TestPlaceScaledIndivisible(t *testing.T) {
	if _, err := PlaceScaled(8, 8, 300, 3); err == nil {
		t.Error("3 nodes should not divide 8 partitions")
	}
}

func TestPlacePartitionedOneWay(t *testing.T) {
	// 1-way: relation i entirely on node i — sequential execution.
	c, err := PlacePartitioned(8, 8, 300, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for rel := 0; rel < 8; rel++ {
		nodes, partsAt := c.RelationNodes(rel)
		if len(nodes) != 1 || nodes[0] != rel {
			t.Fatalf("relation %d on nodes %v, want [%d]", rel, nodes, rel)
		}
		if len(partsAt[rel]) != 8 {
			t.Fatalf("relation %d has %d partitions at home node", rel, len(partsAt[rel]))
		}
	}
}

func TestPlacePartitionedEightWay(t *testing.T) {
	// 8-way: every relation spread over all 8 nodes, one partition each.
	c, err := PlacePartitioned(8, 8, 300, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for rel := 0; rel < 8; rel++ {
		nodes, partsAt := c.RelationNodes(rel)
		if len(nodes) != 8 {
			t.Fatalf("relation %d on %d nodes, want 8", rel, len(nodes))
		}
		for _, n := range nodes {
			if len(partsAt[n]) != 1 {
				t.Fatalf("relation %d node %d holds %d partitions, want 1", rel, n, len(partsAt[n]))
			}
		}
	}
}

func TestPlacePartitionedWaysCohortCount(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		c, err := PlacePartitioned(8, 8, 300, 8, ways)
		if err != nil {
			t.Fatal(err)
		}
		for rel := 0; rel < 8; rel++ {
			nodes, partsAt := c.RelationNodes(rel)
			if len(nodes) != ways {
				t.Fatalf("ways=%d: relation %d spans %d nodes", ways, rel, len(nodes))
			}
			for _, n := range nodes {
				if len(partsAt[n]) != 8/ways {
					t.Fatalf("ways=%d: node %d holds %d partitions of relation %d, want %d",
						ways, n, len(partsAt[n]), rel, 8/ways)
				}
			}
		}
	}
}

func TestPlacePartitionedBalanced(t *testing.T) {
	// Every node must store exactly 8 partitions regardless of ways, so the
	// total load is placement-independent (paper §4.3 design).
	for _, ways := range []int{1, 2, 4, 8} {
		c, err := PlacePartitioned(8, 8, 300, 8, ways)
		if err != nil {
			t.Fatal(err)
		}
		count := make(map[int]int)
		for f := 0; f < c.NumFiles(); f++ {
			count[c.NodeOf(f)]++
		}
		for n := 0; n < 8; n++ {
			if count[n] != 8 {
				t.Fatalf("ways=%d: node %d stores %d files, want 8", ways, n, count[n])
			}
		}
	}
}

func TestPlacePartitionedValidation(t *testing.T) {
	cases := []struct{ ways, nodes int }{
		{0, 8}, {9, 8}, {3, 8}, {-1, 8},
	}
	for _, tc := range cases {
		if _, err := PlacePartitioned(8, 8, 300, tc.nodes, tc.ways); err == nil {
			t.Errorf("ways=%d nodes=%d should be rejected", tc.ways, tc.nodes)
		}
	}
}

func TestCatalogValidate(t *testing.T) {
	c, _ := PlaceScaled(8, 8, 300, 8)
	if err := c.Validate(8); err != nil {
		t.Errorf("valid catalog rejected: %v", err)
	}
	if err := c.Validate(4); err == nil {
		t.Error("catalog with out-of-range nodes accepted")
	}
	bad := &Catalog{NumRelations: 2, PartsPerRelation: 2, PagesPerFile: 10, FileNode: []int{0}}
	if err := bad.Validate(1); err == nil {
		t.Error("catalog with wrong FileNode length accepted")
	}
	bad2 := &Catalog{NumRelations: 0, PartsPerRelation: 2, PagesPerFile: 10}
	if err := bad2.Validate(1); err == nil {
		t.Error("catalog with zero relations accepted")
	}
}

func TestRelationNodesOrderFollowsPartitions(t *testing.T) {
	c, _ := PlacePartitioned(8, 8, 300, 8, 4)
	for rel := 0; rel < 8; rel++ {
		nodes, _ := c.RelationNodes(rel)
		// First node must hold partition 0.
		if nodes[0] != c.NodeOf(c.FileOf(rel, 0)) {
			t.Fatalf("relation %d node order does not follow partition order", rel)
		}
	}
}

func TestPlacementProperty(t *testing.T) {
	// Property: for any valid (relations, parts, nodes, ways), every file is
	// placed, per-relation spread equals ways, and partitions divide evenly.
	f := func(r8, p8, n8, w8 uint8) bool {
		rels := int(r8%8) + 1
		// parts must be divisible by ways; generate parts as ways*k
		ways := int(w8%4) + 1
		parts := ways * (int(p8%4) + 1)
		nodes := ways + int(n8%8) // nodes >= ways
		c, err := PlacePartitioned(rels, parts, 10, nodes, ways)
		if err != nil {
			return false
		}
		if c.Validate(nodes) != nil {
			return false
		}
		for rel := 0; rel < rels; rel++ {
			ns, partsAt := c.RelationNodes(rel)
			if len(ns) != ways {
				return false
			}
			total := 0
			for _, n := range ns {
				total += len(partsAt[n])
			}
			if total != parts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicate(t *testing.T) {
	c, _ := PlacePartitioned(8, 8, 300, 8, 1)
	if c.ReplicaCount() != 1 {
		t.Fatalf("unreplicated catalog reports %d copies", c.ReplicaCount())
	}
	if err := c.Replicate(3, 8); err != nil {
		t.Fatal(err)
	}
	if c.ReplicaCount() != 3 {
		t.Fatalf("replica count %d, want 3", c.ReplicaCount())
	}
	if err := c.Validate(8); err != nil {
		t.Fatalf("replicated catalog invalid: %v", err)
	}
	for f := 0; f < c.NumFiles(); f++ {
		reps := c.Replicas(f)
		if len(reps) != 3 {
			t.Fatalf("file %d has %d copies", f, len(reps))
		}
		if reps[0] != c.NodeOf(f) {
			t.Fatalf("file %d primary not first", f)
		}
		seen := map[int]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Fatalf("file %d: duplicate copy node %d", f, n)
			}
			seen[n] = true
		}
	}
	// Copy load stays balanced: every node holds 8*3 = 24 copies.
	count := map[int]int{}
	for f := 0; f < c.NumFiles(); f++ {
		for _, n := range c.Replicas(f) {
			count[n]++
		}
	}
	for n := 0; n < 8; n++ {
		if count[n] != 24 {
			t.Fatalf("node %d holds %d copies, want 24", n, count[n])
		}
	}
}

func TestReplicateValidation(t *testing.T) {
	c, _ := PlaceScaled(8, 8, 300, 8)
	if err := c.Replicate(9, 8); err == nil {
		t.Error("replica count above node count accepted")
	}
	if err := c.Replicate(0, 8); err == nil {
		t.Error("zero replica count accepted")
	}
	if err := c.Replicate(2, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.Replicate(1, 8); err != nil {
		t.Fatal(err)
	}
	if c.ReplicaCount() != 1 {
		t.Error("Replicate(1) did not clear replication")
	}
}

func TestReplicasUnreplicatedDefault(t *testing.T) {
	c, _ := PlaceScaled(8, 8, 300, 8)
	for f := 0; f < c.NumFiles(); f++ {
		reps := c.Replicas(f)
		if len(reps) != 1 || reps[0] != c.NodeOf(f) {
			t.Fatalf("file %d replicas %v", f, reps)
		}
	}
}

func TestValidateRejectsBadReplicas(t *testing.T) {
	c, _ := PlaceScaled(2, 2, 10, 2)
	c.FileReplicas = [][]int{{0, 1}} // wrong length
	if err := c.Validate(2); err == nil {
		t.Error("wrong FileReplicas length accepted")
	}
	c.FileReplicas = [][]int{{1, 0}, {0, 1}, {1, 0}, {1, 0}} // file 0 primary is 0
	if err := c.Validate(2); err == nil {
		t.Error("replicas not led by primary accepted")
	}
	c2, _ := PlaceScaled(2, 2, 10, 2)
	c2.FileReplicas = [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 0}}
	if err := c2.Validate(2); err == nil {
		t.Error("duplicate copy node accepted")
	}
}

func TestPageIDString(t *testing.T) {
	if got := (PageID{File: 3, Page: 17}).String(); got != "f3:p17" {
		t.Errorf("PageID string %q", got)
	}
}

func TestMaxPartsAtNode(t *testing.T) {
	scaled := func(nodes, replicas int) *Catalog {
		c, err := PlaceScaled(8, 8, 300, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Replicate(replicas, nodes); err != nil {
			t.Fatal(err)
		}
		return c
	}
	partitioned := func(ways int) *Catalog {
		c, err := PlacePartitioned(8, 8, 300, 8, ways)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name  string
		c     *Catalog
		nodes int
		want  int
	}{
		{"table4", scaled(8, 1), 8, 1},
		{"scaled-4", scaled(4, 1), 4, 2},
		{"scaled-1", scaled(1, 1), 1, 8},
		// Replicate(2) on 8 nodes puts each node's neighbour's partition
		// beside its own.
		{"table4-replicas2", scaled(8, 2), 8, 2},
		{"scaled-4-replicas3", scaled(4, 3), 4, 6},
		{"ways1", partitioned(1), 8, 8},
		{"ways2", partitioned(2), 8, 4},
		{"ways8", partitioned(8), 8, 1},
	}
	for _, tc := range cases {
		if got := tc.c.NumNodes(); got != tc.nodes {
			t.Errorf("%s: NumNodes = %d, want %d", tc.name, got, tc.nodes)
		}
		if got := tc.c.MaxPartsAtNode(); got != tc.want {
			t.Errorf("%s: MaxPartsAtNode = %d, want %d", tc.name, got, tc.want)
		}
	}
}
