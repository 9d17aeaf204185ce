package mdegst

import (
	"testing"

	"mdegst/internal/sim"
)

// The Words()-accounting audit (wire schema satellite): every protocol's
// message sizes are pinned against the schema-derived word counts. Before
// the flat message plane each message hand-wrote its Words(); now the
// count is 1 (kind tag) + payload words of the record, and this table is
// the single place the paper-facing accounting is asserted. The facade
// links every protocol package, so all schemas are registered here.
//
// mdst.bfsback is the one variable-size record: the short (no report)
// form carries round, improvement flag, subtree size and the qualifying
// label range (6 words); the long form carries round, subtree size and
// flags in one word, the report's ends, their degrees in one word and the
// far fragment root (7 words). A Single round's bfsback appends its
// subtree's SearchDegree aggregate, k and cand (8 or 9 words, E6's
// maxWords), and so do an exchange's update, child and rounddone when
// the next round takes its owner from them (DESIGN.md deviation 9):
// update no longer names the edge, which every node on its chain
// reported, so an exchange's update carries 3 words, or 5 with the
// aggregate, within the four numbers.
// start, move and cut carry a fourth number for the subtree sizes and
// labels of DESIGN.md deviation 7. Multi rounds' grants (deviation 4) add
// short forms and no kind: the short cut carries a relayed fragment
// wave's root (3 words), the short update a release (3 words); claims
// keep update's four numbers, and child and rounddone carry their answers
// and acknowledgements in the flags word they already had. The published
// degrees of deviation 8 add no word either: start's three numbers after
// the round name the cut child and the owner and pack the fell bit, the
// phase and the moved size into one word, and update, child and rounddone
// carry a cut edge end's published degree above the bits of their flags
// word.
func TestWireWordsAudit(t *testing.T) {
	type bounds struct {
		minWords, maxWords int
		rounded            bool
	}
	want := map[string]bounds{
		// mdst: the paper's improvement protocol.
		"mdst.start":     {5, 5, true},
		"mdst.deg":       {5, 5, true},
		"mdst.move":      {5, 5, true},
		"mdst.cut":       {3, 5, true},
		"mdst.bfs":       {5, 5, true},
		"mdst.cousin":    {5, 5, true},
		"mdst.bfsback":   {6, 9, true},
		"mdst.update":    {3, 5, true},
		"mdst.child":     {3, 5, true},
		"mdst.rounddone": {3, 5, true},
		"mdst.term":      {2, 2, true},
		// spanning: flood (Chang's echo).
		"st.explore": {1, 1, false},
		"st.echo":    {1, 1, false},
		"st.done":    {1, 1, false},
		// spanning: token DFS.
		"st.discover": {1, 1, false},
		"st.return":   {2, 2, false},
		// spanning: election by echo-wave extinction.
		"el.explore": {2, 2, false},
		"el.echo":    {2, 2, false},
		"el.done":    {1, 1, false},
		// spanning: GHS.
		"ghs.connect":    {2, 2, false},
		"ghs.initiate":   {5, 5, false},
		"ghs.test":       {4, 4, false},
		"ghs.accept":     {1, 1, false},
		"ghs.reject":     {1, 1, false},
		"ghs.report":     {3, 3, false},
		"ghs.changeroot": {1, 1, false},
		"ghs.done":       {1, 1, false},
		// apps: broadcast/convergecast and the beta synchronizer.
		"app.payload": {2, 2, false},
		"app.ack":     {2, 2, false},
		"sync.alg":    {3, 3, true},
		"sync.ack":    {2, 2, true},
		"sync.safe":   {4, 4, true},
		"sync.pulse":  {2, 2, true},
		"sync.halt":   {2, 2, false},
	}
	covered := map[string]bool{}
	for _, s := range sim.Schemas() {
		for i := 0; i < s.Len(); i++ {
			sp := s.Spec(i)
			wb, ok := want[sp.Kind]
			if !ok {
				t.Errorf("kind %q (schema %q) not covered by the audit table — add it with its word accounting", sp.Kind, s.Proto())
				continue
			}
			covered[sp.Kind] = true
			if got := 1 + sp.MinPayload; got != wb.minWords {
				t.Errorf("%q min words = %d, want %d", sp.Kind, got, wb.minWords)
			}
			if got := 1 + sp.MaxPayload; got != wb.maxWords {
				t.Errorf("%q max words = %d, want %d", sp.Kind, got, wb.maxWords)
			}
			if sp.Rounded != wb.rounded {
				t.Errorf("%q rounded = %v, want %v", sp.Kind, sp.Rounded, wb.rounded)
			}
			if sp.MaxPayload > sim.MaxPayloadWords {
				t.Errorf("%q exceeds MaxPayloadWords", sp.Kind)
			}
		}
	}
	for kind := range want {
		if !covered[kind] {
			t.Errorf("audit table lists %q but no schema registers it", kind)
		}
	}
	// The paper's claim: at most four numbers or identities per message —
	// five words with the kind tag — holds for everything except the
	// BFSBack aggregate (DESIGN.md deviation; experiment E6 measures it).
	for _, s := range sim.Schemas() {
		for i := 0; i < s.Len(); i++ {
			sp := s.Spec(i)
			if sp.Kind == "mdst.bfsback" {
				continue
			}
			if 1+sp.MaxPayload > 5 {
				t.Errorf("%q carries %d words, beyond the paper's four-numbers bound", sp.Kind, 1+sp.MaxPayload)
			}
		}
	}
}
