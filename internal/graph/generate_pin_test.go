package graph

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// edgeDigest hashes a graph's node count and ascending edge list.
func edgeDigest(g *Graph) string {
	h := sha256.New()
	fmt.Fprintf(h, "n=%d;", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(h, "%d-%d;", e.U, e.V)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestRandomGraphsPinned pins the edge lists RandomTree and Gnm draw for a
// spread of sizes and seeds. The Prüfer decode behind both may change how
// it finds each leaf, never which leaf it takes: every experiment, golden
// and benchmark workload built on these graphs depends on the exact edges.
func TestRandomGraphsPinned(t *testing.T) {
	trees := []struct {
		n    int
		seed int64
		want string
	}{
		{1, 1, "01d67326872da3d2"},
		{2, 1, "c18889d2c14ac96f"},
		{3, 1, "a7df10c71c578b4c"},
		{5, 2, "7c6124af6ddbe857"},
		{10, 3, "0924fd6248508506"},
		{64, 1, "a17347fd5dbbb588"},
		{257, 7, "dd97fdc5f0200aac"},
		{1000, 2, "e04361d156f77df2"},
		{4096, 1, "4a2ce86f8b03f694"},
	}
	for _, tc := range trees {
		if got := edgeDigest(RandomTree(tc.n, tc.seed)); got != tc.want {
			t.Errorf("RandomTree(%d, %d) digest %s, want %s", tc.n, tc.seed, got, tc.want)
		}
	}
	gnms := []struct {
		n, m int
		seed int64
		want string
	}{
		{2, 1, 1, "c18889d2c14ac96f"},
		{12, 30, 5, "c37d9b9a22694cce"},
		{96, 288, 1, "e4639397197a1709"},
		{256, 768, 1, "e139dfb1653e32b4"},
		{1024, 3072, 1, "67a6c03c7a4b967d"},
		{4096, 12288, 3, "da4ed6041486493f"},
	}
	for _, tc := range gnms {
		if got := edgeDigest(Gnm(tc.n, tc.m, tc.seed)); got != tc.want {
			t.Errorf("Gnm(%d, %d, %d) digest %s, want %s", tc.n, tc.m, tc.seed, got, tc.want)
		}
	}
}
