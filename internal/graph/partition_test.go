package graph

import (
	"reflect"
	"testing"
)

// checkPartition asserts the structural invariants every strategy must
// satisfy: complete coverage, balance within one node, ascending shard
// lists, owner/list consistency and brute-force-correct cut statistics.
func checkPartition(t *testing.T, c *CSR, p *Partition, wantShards int) {
	t.Helper()
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
	if p.Shards() != wantShards {
		t.Fatalf("got %d shards, want %d", p.Shards(), wantShards)
	}
	n := c.N()
	lo, hi := n, 0
	total := 0
	for s := 0; s < p.Shards(); s++ {
		sz := len(p.Nodes(s))
		total += sz
		if sz < lo {
			lo = sz
		}
		if sz > hi {
			hi = sz
		}
	}
	if total != n {
		t.Fatalf("shards cover %d of %d nodes", total, n)
	}
	if hi-lo > 1 {
		t.Fatalf("unbalanced shards: sizes span [%d, %d]", lo, hi)
	}
	cut := 0
	for i := 0; i < n; i++ {
		for _, j := range c.Neighbors(int32(i)) {
			if int32(i) < j && p.Owner(int32(i)) != p.Owner(j) {
				cut++
			}
		}
	}
	if cut != p.CutEdges() {
		t.Fatalf("cut edges %d, brute force says %d", p.CutEdges(), cut)
	}
	wantFrac := 0.0
	if c.M() > 0 {
		wantFrac = float64(cut) / float64(c.M())
	}
	if p.CutFraction() != wantFrac {
		t.Fatalf("cut fraction %v, want %v", p.CutFraction(), wantFrac)
	}
}

func TestPartitionInvariants(t *testing.T) {
	graphs := map[string]*Graph{
		"ring":   Ring(17),
		"grid":   Grid(9, 11),
		"gnm":    Gnm(64, 200, 5),
		"ba":     BarabasiAlbert(60, 2, 9),
		"geo":    RandomGeometric(50, 0.3, 4),
		"single": Ring(3),
	}
	for name, g := range graphs {
		c := g.Compile()
		for _, k := range []int{1, 2, 3, 4, 7} {
			want := k
			if want > c.N() {
				want = c.N()
			}
			t.Run(name, func(t *testing.T) {
				checkPartition(t, c, PartitionContiguous(c, k), want)
				checkPartition(t, c, PartitionBFS(c, k), want)
			})
		}
	}
}

// checkRefined asserts the invariants PartitionRefined promises: a valid
// partition, every shard within the RefineSlack balance tolerance of its
// balanced target, and a cut no worse than PartitionBFS on the same
// snapshot.
func checkRefined(t *testing.T, c *CSR, k int) *Partition {
	t.Helper()
	p := PartitionRefined(c, k)
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
	n := c.N()
	eff := p.Shards()
	for s, sz := range p.Sizes() {
		target := n / eff
		if s < n%eff {
			target++
		}
		slack := target / RefineSlack
		if slack < 1 {
			slack = 1
		}
		if sz < target-slack || sz > target+slack {
			t.Fatalf("k=%d shard %d: size %d outside balance bounds [%d, %d]",
				k, s, sz, target-slack, target+slack)
		}
	}
	if bfs := PartitionBFS(c, k); p.CutEdges() > bfs.CutEdges() {
		t.Fatalf("k=%d: refined cut %d exceeds BFS cut %d", k, p.CutEdges(), bfs.CutEdges())
	}
	return p
}

// TestPartitionRefinedInvariants runs the refined strategy over the
// generator corpus: valid single ownership, balance within tolerance and
// cut <= BFS at every shard count.
func TestPartitionRefinedInvariants(t *testing.T) {
	graphs := map[string]*Graph{
		"ring":   Ring(17),
		"grid":   Grid(16, 16),
		"gnm":    Gnm(128, 400, 5),
		"ba":     BarabasiAlbert(120, 2, 9),
		"geo":    RandomGeometric(50, 0.3, 4),
		"single": Ring(3),
	}
	for name, g := range graphs {
		c := g.Compile()
		for _, k := range []int{1, 2, 3, 4, 7, 8} {
			t.Run(name, func(t *testing.T) {
				checkRefined(t, c, k)
			})
		}
	}
}

// TestPartitionRefinedDeterministic pins that refinement is a pure
// function of the snapshot — identical owners across repeated and
// concurrent construction (a distributed run's determinism depends on
// every process computing the same partition).
func TestPartitionRefinedDeterministic(t *testing.T) {
	c := RandomGeometric(90, 0.25, 7).Compile()
	for _, k := range []int{2, 4, 7} {
		want := PartitionRefined(c, k).Owners()
		results := make([][]int32, 8)
		done := make(chan int)
		for i := range results {
			go func(i int) {
				results[i] = PartitionRefined(c, k).Owners()
				done <- i
			}(i)
		}
		for range results {
			<-done
		}
		for i, got := range results {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: concurrent construction %d diverged", k, i)
			}
		}
	}
}

// TestPartitionRefinedImprovesGrid checks the point of refinement on a
// topology with an obvious good answer: on a grid the refined cut should
// strictly beat BFS growth, which ignores cut size entirely.
func TestPartitionRefinedImprovesGrid(t *testing.T) {
	c := Grid(32, 32).Compile()
	for _, k := range []int{4, 8} {
		ref := PartitionRefined(c, k)
		bfs := PartitionBFS(c, k)
		if ref.CutEdges() >= bfs.CutEdges() {
			t.Errorf("k=%d: refined cut %d does not improve on BFS cut %d",
				k, ref.CutEdges(), bfs.CutEdges())
		}
	}
}

// TestPartitionStats exercises the inspection helpers against brute force.
func TestPartitionStats(t *testing.T) {
	c := Grid(10, 10).Compile()
	p := PartitionRefined(c, 4)
	sizes := p.Sizes()
	total, max := 0, 0
	for s, sz := range sizes {
		if sz != len(p.Nodes(s)) {
			t.Fatalf("Sizes()[%d] = %d, want %d", s, sz, len(p.Nodes(s)))
		}
		total += sz
		if sz > max {
			max = sz
		}
	}
	if total != c.N() {
		t.Fatalf("sizes sum to %d, want %d", total, c.N())
	}
	wantImb := float64(max) * float64(p.Shards()) / float64(c.N())
	if p.Imbalance() != wantImb {
		t.Fatalf("Imbalance() = %v, want %v", p.Imbalance(), wantImb)
	}
	bn := p.BoundaryNodes(c)
	want := make([]int, p.Shards())
	for i := 0; i < c.N(); i++ {
		for _, j := range c.Neighbors(int32(i)) {
			if p.Owner(int32(i)) != p.Owner(j) {
				want[p.Owner(int32(i))]++
				break
			}
		}
	}
	if !reflect.DeepEqual(bn, want) {
		t.Fatalf("BoundaryNodes() = %v, want %v", bn, want)
	}
}

// TestPartitionContiguousRanges pins that contiguous shards are literal
// dense-index ranges in shard order.
func TestPartitionContiguousRanges(t *testing.T) {
	c := Gnm(23, 60, 1).Compile()
	p := PartitionContiguous(c, 4)
	next := int32(0)
	for s := 0; s < p.Shards(); s++ {
		for _, v := range p.Nodes(s) {
			if v != next {
				t.Fatalf("shard %d: node %d breaks the contiguous range at %d", s, v, next)
			}
			next++
		}
	}
}

// TestPartitionDeterministic pins that both strategies are pure functions
// of the snapshot: repeated construction is identical.
func TestPartitionDeterministic(t *testing.T) {
	c := RandomGeometric(80, 0.25, 7).Compile()
	for _, k := range []int{2, 5} {
		a, b := PartitionBFS(c, k), PartitionBFS(c, k)
		if !reflect.DeepEqual(a.Owners(), b.Owners()) {
			t.Fatalf("k=%d: BFS partition not deterministic", k)
		}
		ca, cb := PartitionContiguous(c, k), PartitionContiguous(c, k)
		if !reflect.DeepEqual(ca.Owners(), cb.Owners()) {
			t.Fatalf("k=%d: contiguous partition not deterministic", k)
		}
	}
}

// TestPartitionBFSLocality checks the point of the BFS strategy on a
// topology whose identity order matches space: on a grid, BFS-grown
// regions must not cut more than a connected banding would, and both
// strategies should beat a round-robin scatter by a wide margin.
func TestPartitionBFSLocality(t *testing.T) {
	c := Grid(20, 20).Compile()
	k := 4
	bfs := PartitionBFS(c, k)
	cont := PartitionContiguous(c, k)
	// Round-robin scatter: worst-case locality baseline.
	scatterCut := 0
	for i := 0; i < c.N(); i++ {
		for _, j := range c.Neighbors(int32(i)) {
			if int32(i) < j && i%k != int(j)%k {
				scatterCut++
			}
		}
	}
	for name, p := range map[string]*Partition{"bfs": bfs, "contiguous": cont} {
		if p.CutEdges()*2 >= scatterCut {
			t.Errorf("%s partition cuts %d of %d edges — no better than half the scatter baseline %d",
				name, p.CutEdges(), c.M(), scatterCut)
		}
	}
}

// TestPartitionDisconnected pins the frontier fallback: on a disconnected
// graph every shard still reaches its balanced size.
func TestPartitionDisconnected(t *testing.T) {
	g := New()
	// Two disjoint 8-rings.
	for r := 0; r < 2; r++ {
		base := NodeID(r * 100)
		for i := 0; i < 8; i++ {
			if err := g.AddEdge(base+NodeID(i), base+NodeID((i+1)%8)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := g.Compile()
	checkPartition(t, c, PartitionBFS(c, 3), 3)
	checkPartition(t, c, PartitionContiguous(c, 3), 3)
}
