package graph

import (
	"fmt"
	"math"
)

// Partitioning for the networked deployment plane (DESIGN.md §9, §13).
// A Partition splits a snapshot's dense node range into k disjoint shards;
// each mdstd process (internal/net's DistEngine) owns one shard's protocol
// instances and outboxes. Partitions never change what a run computes —
// a distributed run is delivery-trace-equivalent to the single-process
// engine at any assignment — they only change how much message traffic
// crosses process boundaries, which the cut statistics make visible before
// a run (`graphgen -inspect`).
//
// Three deterministic strategies are shipped:
//
//   - PartitionContiguous slices the dense index range into k balanced
//     contiguous blocks. Generators that emit spatially coherent identities
//     (grids row-major, hypercubes Gray-coded) get low cuts for free, and
//     the per-shard node sets are cache-friendly ranges.
//   - PartitionBFS grows k balanced regions breadth-first from evenly
//     spaced seeds, claiming nodes round-robin so no shard starves. On
//     topologies whose identity order scatters neighbours (geometric
//     graphs, preferential attachment) it cuts fewer edges than contiguous
//     slicing.
//   - PartitionRefined runs greedy boundary refinement (label-propagation
//     restricted to cut-reducing moves, inside hard balance bounds) on top
//     of the BFS regions. The BFS grower optimises balance, not cut; the
//     refinement trades a bounded amount of balance (RefineSlack) for
//     strictly fewer cut edges — and cut edges are exactly the
//     cross-process traffic of a distributed run.
//
// All are pure functions of the snapshot, so a partition can be computed
// once and shared by every run over that snapshot, like the CSR itself.

// Partition assigns every dense node of a snapshot to exactly one of k
// shards. Immutable after construction and safe for concurrent readers.
type Partition struct {
	owner []int32   // dense node -> shard
	nodes [][]int32 // shard -> its dense nodes, ascending
	cut   int       // undirected edges with endpoints in different shards
	m     int       // total undirected edges of the snapshot
}

// Shards returns the number of shards.
func (p *Partition) Shards() int { return len(p.nodes) }

// N returns the number of partitioned nodes.
func (p *Partition) N() int { return len(p.owner) }

// Owner returns the shard owning dense node i.
func (p *Partition) Owner(i int32) int32 { return p.owner[i] }

// Owners returns the dense-node -> shard table. Shared; do not modify.
func (p *Partition) Owners() []int32 { return p.owner }

// Nodes returns the dense nodes of shard s in ascending order. Shared; do
// not modify.
func (p *Partition) Nodes(s int) []int32 { return p.nodes[s] }

// CutEdges returns the number of undirected edges whose endpoints live in
// different shards — every message on such an edge crosses a shard boundary.
func (p *Partition) CutEdges() int { return p.cut }

// CutFraction returns CutEdges over the total edge count (0 for an edgeless
// snapshot): the fraction of traffic that is cross-shard under uniform load.
func (p *Partition) CutFraction() float64 {
	if p.m == 0 {
		return 0
	}
	return float64(p.cut) / float64(p.m)
}

// clampShards normalises a requested shard count: at least 1, at most n
// (every shard must own a node on non-empty snapshots).
func clampShards(n, k int) int {
	if k < 1 {
		k = 1
	}
	if n > 0 && k > n {
		k = n
	}
	return k
}

// shardTargets returns the balanced per-shard sizes: they differ by at most
// one and sum to n.
func shardTargets(n, k int) []int {
	targets := make([]int, k)
	base, rem := n/k, n%k
	for s := range targets {
		targets[s] = base
		if s < rem {
			targets[s]++
		}
	}
	return targets
}

// finishPartition builds the shard node lists and cut statistics from a
// complete owner assignment.
func finishPartition(c *CSR, owner []int32, k int) *Partition {
	p := &Partition{owner: owner, nodes: make([][]int32, k), m: c.M()}
	sizes := make([]int, k)
	for _, s := range owner {
		sizes[s]++
	}
	for s := 0; s < k; s++ {
		p.nodes[s] = make([]int32, 0, sizes[s])
	}
	for i := range owner {
		p.nodes[owner[i]] = append(p.nodes[owner[i]], int32(i))
	}
	for i := range owner {
		for _, j := range c.Neighbors(int32(i)) {
			if int32(i) < j && owner[i] != owner[j] {
				p.cut++
			}
		}
	}
	return p
}

// PartitionNamed builds a partition by strategy name — the config-file
// surface of the networked deployment plane, where a topology file names
// how the node range is assigned to processes. Valid names are
// "contiguous" (default for ""), "bfs" and "refined".
func PartitionNamed(c *CSR, strategy string, k int) (*Partition, error) {
	switch strategy {
	case "", "contiguous":
		return PartitionContiguous(c, k), nil
	case "bfs":
		return PartitionBFS(c, k), nil
	case "refined":
		return PartitionRefined(c, k), nil
	default:
		return nil, fmt.Errorf("graph: unknown partition strategy %q (want contiguous, bfs or refined)", strategy)
	}
}

// PartitionContiguous splits the dense index range into k balanced
// contiguous blocks: shard s owns one run of consecutive dense indices, and
// block sizes differ by at most one node.
func PartitionContiguous(c *CSR, k int) *Partition {
	n := c.N()
	k = clampShards(n, k)
	owner := make([]int32, n)
	targets := shardTargets(n, k)
	at := 0
	for s := 0; s < k; s++ {
		for range targets[s] {
			owner[at] = int32(s)
			at++
		}
	}
	return finishPartition(c, owner, k)
}

// PartitionBFS grows k balanced regions breadth-first from k evenly spaced
// seed nodes. Shards claim unowned nodes round-robin (one node per shard
// per turn) from their BFS frontier, falling back to the lowest unclaimed
// dense index when a frontier is exhausted (disconnected graphs, walled-in
// regions), so every shard ends at its balanced target size. The result is
// a pure function of the snapshot: deterministic across runs and machines.
func PartitionBFS(c *CSR, k int) *Partition {
	n := c.N()
	k = clampShards(n, k)
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	targets := shardTargets(n, k)
	sizes := make([]int, k)
	queues := make([][]int32, k)
	heads := make([]int, k)
	for s := 0; s < k; s++ {
		// Seeds floor(s·n/k) are distinct for k <= n and spread across the
		// identity range, which correlates with topology for the structured
		// generators.
		queues[s] = append(queues[s], int32(s*n/k))
	}
	cursor := int32(0) // lowest possibly-unclaimed dense index
	for claimed := 0; claimed < n; {
		for s := 0; s < k && claimed < n; s++ {
			if sizes[s] >= targets[s] {
				continue
			}
			v := int32(-1)
			for heads[s] < len(queues[s]) {
				u := queues[s][heads[s]]
				heads[s]++
				if owner[u] < 0 {
					v = u
					break
				}
			}
			if v < 0 {
				for cursor < int32(n) && owner[cursor] >= 0 {
					cursor++
				}
				v = cursor
			}
			owner[v] = int32(s)
			sizes[s]++
			claimed++
			for _, w := range c.Neighbors(v) {
				if owner[w] < 0 {
					queues[s] = append(queues[s], w)
				}
			}
		}
	}
	return finishPartition(c, owner, k)
}

// RefineSlack bounds how far PartitionRefined may unbalance a shard from
// its balanced target size, as the divisor of the target: a shard of
// balanced size t stays within [t - max(1, t/RefineSlack),
// t + max(1, t/RefineSlack)] nodes. The slack is what the refinement is
// allowed to spend: every move it buys strictly reduces the cut.
const RefineSlack = 16

// refineSlackFor returns the absolute node slack for a balanced target t.
func refineSlackFor(t int) int {
	s := t / RefineSlack
	if s < 1 {
		s = 1
	}
	return s
}

// refinePasses caps the boundary-refinement sweeps. Each sweep only
// accepts strictly cut-reducing moves, so the cut is monotone decreasing
// and the loop terminates regardless; the cap bounds worst-case work on
// adversarial shapes. In practice grids and random graphs converge in a
// handful of sweeps.
const refinePasses = 12

// PartitionRefined builds a cut-minimizing partition: the balanced BFS
// regions of PartitionBFS, improved by deterministic greedy boundary
// refinement. Sweeps visit nodes in ascending dense order; a node moves to
// the neighbouring shard holding the most of its neighbours when that move
// strictly reduces the cut and both shards stay inside their balance
// bounds (±max(1, target/RefineSlack) of the balanced target). Ties prefer
// the lowest shard index, so the result is a pure function of the snapshot
// — deterministic across runs, machines and GOMAXPROCS.
//
// The starting point and the move rule give two guarantees: the cut never exceeds PartitionBFS's cut on the same
// snapshot, and shard sizes stay within the RefineSlack tolerance of
// balanced.
func PartitionRefined(c *CSR, k int) *Partition {
	n := c.N()
	k = clampShards(n, k)
	if k == 1 {
		return PartitionContiguous(c, k)
	}
	base := PartitionBFS(c, k)
	owner := make([]int32, n)
	copy(owner, base.Owners())
	targets := shardTargets(n, k)
	sizes := make([]int, k)
	lo := make([]int, k)
	hi := make([]int, k)
	for s := 0; s < k; s++ {
		sizes[s] = len(base.Nodes(s))
		slack := refineSlackFor(targets[s])
		lo[s] = targets[s] - slack
		if lo[s] < 1 {
			lo[s] = 1 // a shard must never drain empty
		}
		hi[s] = targets[s] + slack
	}
	// Per-sweep scratch: neighbour counts per shard, reset via the touched
	// list so a sweep is O(sum degrees), not O(n·k).
	cnt := make([]int, k)
	touched := make([]int32, 0, k)
	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		for v := int32(0); int(v) < n; v++ {
			own := owner[v]
			if sizes[own] <= lo[own] {
				continue // moving v would underfill its shard
			}
			for _, w := range c.Neighbors(v) {
				s := owner[w]
				if cnt[s] == 0 {
					touched = append(touched, s)
				}
				cnt[s]++
			}
			best := own
			bestGain := 0
			for _, s := range touched {
				if s == own || sizes[s] >= hi[s] {
					continue
				}
				// Moving v from own to s removes cnt[s] cut edges and
				// creates cnt[own]: the gain is the net cut reduction.
				gain := cnt[s] - cnt[own]
				if gain > bestGain || (gain == bestGain && gain > 0 && s < best) {
					best, bestGain = s, gain
				}
			}
			if bestGain > 0 {
				sizes[own]--
				sizes[best]++
				owner[v] = best
				moved++
			}
			for _, s := range touched {
				cnt[s] = 0
			}
			touched = touched[:0]
		}
		if moved == 0 {
			break
		}
	}
	return finishPartition(c, owner, k)
}

// Sizes returns the per-shard node counts.
func (p *Partition) Sizes() []int {
	sizes := make([]int, p.Shards())
	for s := range p.nodes {
		sizes[s] = len(p.nodes[s])
	}
	return sizes
}

// Imbalance returns the largest shard size over the balanced mean size
// (1.0 = perfectly balanced; 1.10 = the biggest shard is 10% over its fair
// share — the straggler factor of a window-parallel round).
func (p *Partition) Imbalance() float64 {
	n := p.N()
	k := p.Shards()
	if n == 0 || k == 0 {
		return 1
	}
	max := 0
	for s := range p.nodes {
		if len(p.nodes[s]) > max {
			max = len(p.nodes[s])
		}
	}
	return float64(max) * float64(k) / float64(n)
}

// BoundaryNodes returns, per shard, how many of its nodes have at least
// one neighbour in a different shard. Boundary nodes are the nodes whose
// sends can cross shards — together with CutEdges they describe the
// cross-process traffic a partition induces on a distributed run.
func (p *Partition) BoundaryNodes(c *CSR) []int {
	counts := make([]int, p.Shards())
	for i := range p.owner {
		for _, j := range c.Neighbors(int32(i)) {
			if p.owner[i] != p.owner[j] {
				counts[p.owner[i]]++
				break
			}
		}
	}
	return counts
}

// Validate checks that p is a complete partition of c's dense node range:
// every node owned by exactly one in-range shard, node lists ascending and
// consistent with the owner table, and no shard empty on a non-empty
// snapshot.
func (p *Partition) Validate(c *CSR) error {
	n := c.N()
	if len(p.owner) != n {
		return fmt.Errorf("graph: partition covers %d nodes, snapshot has %d", len(p.owner), n)
	}
	k := p.Shards()
	if k < 1 || (n > 0 && k > n) {
		return fmt.Errorf("graph: partition has %d shards for %d nodes", k, n)
	}
	seen := 0
	for s := 0; s < k; s++ {
		if n > 0 && len(p.nodes[s]) == 0 {
			return fmt.Errorf("graph: partition shard %d is empty", s)
		}
		prev := int32(math.MinInt32)
		for _, v := range p.nodes[s] {
			if v <= prev || int(v) >= n {
				return fmt.Errorf("graph: partition shard %d node list not ascending in range", s)
			}
			if p.owner[v] != int32(s) {
				return fmt.Errorf("graph: partition owner table disagrees with shard %d at node %d", s, v)
			}
			prev = v
			seen++
		}
	}
	if seen != n {
		return fmt.Errorf("graph: partition shard lists cover %d of %d nodes", seen, n)
	}
	return nil
}
