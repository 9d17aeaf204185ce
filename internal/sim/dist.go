package sim

// The wire records of the distributed round plane (DESIGN.md §9, §13).
// internal/net's DistEngine plays one process's share of a partitioned
// run on a RoundRunner and routes the runner's send slab at every barrier.
// Determinism rests on a canonical delivery order that every process
// computes from the same data:
//
//   - Every delivery of a round has a global rank — its position in the
//     single-process EventEngine's delivery order.
//   - A message is keyed (Parent, Pos): the rank of the delivery whose
//     handler sent it, and the send's index within that handler call.
//     EventEngine appends sends in exactly this order, so ordering a round
//     by key reconstructs its delivery order.
//   - Ranks of the next round come from a prefix sum over per-delivery
//     send counts: each process broadcasts the (rank, count) pairs of the
//     deliveries it played, and everyone scatters them into a local slab
//     and prefix-sums identically.

// OutMsg is one cross-process delivery record of the distributed round
// plane: the canonical merge key (Parent, Pos), dense endpoints and the
// flat wire record. It is pointer-free, so outboxes are plain slabs and the byte form on the socket mirrors the in-memory form.
type OutMsg struct {
	Parent int64 // global rank of the sending delivery (dense index for Init sends)
	Pos    int32 // index of this send within the sending handler call
	From   int32 // dense index of the sender
	To     int32 // dense index of the destination
	Msg    WireMsg
}

// RankCount reports the send count of one played delivery at its global
// rank. Each barrier broadcast carries one entry per delivery the process played, in
// ascending rank order.
type RankCount struct {
	Rank  int64
	Count int64
}
