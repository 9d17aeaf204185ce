package apps

import (
	"fmt"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/tree"
)

// Beta synchronizer over a rooted spanning tree — the first application the
// paper lists for trees ("Network Synchronization"). It lets a synchronous
// round-based algorithm run on the asynchronous network: every algorithm
// message is acknowledged; a node is safe for round r once all its round-r
// messages are acknowledged; safety converges up the tree and the root's
// pulse broadcast starts round r+1. Per pulse the tree carries 2(n-1)
// control messages, so the per-node control load is again the tree degree —
// a second reason the paper wants that degree minimal.

// Machine is a node of the synchronous algorithm being simulated. Pulse is
// called once per synchronous round r (1-based) with the messages received
// in round r-1 (empty at round 1); it returns the messages to send in round
// r (keyed by neighbour) and whether this node's part of the computation is
// complete. The synchronizer halts after the first round in which every
// machine is done and no message was sent.
type Machine interface {
	Pulse(round int, recv map[sim.NodeID]int64) (send map[sim.NodeID]int64, done bool)
}

// SyncConfig describes one synchronized execution.
type SyncConfig struct {
	// Tree is the control tree (typically the improved MDegST).
	Tree *tree.Tree
	// NewMachine builds the synchronous algorithm node.
	NewMachine func(id sim.NodeID, neighbors []sim.NodeID) Machine
	// MaxRounds caps the execution; 0 means 4n+16 pulses.
	MaxRounds int
}

// SyncResult reports a synchronized execution.
type SyncResult struct {
	// Rounds is the number of synchronous pulses executed.
	Rounds int
	// Truncated is set when MaxRounds fired before global completion.
	Truncated bool
	// Machines holds the final algorithm states.
	Machines map[sim.NodeID]Machine
	// Report is the raw message accounting (algorithm + control traffic).
	Report *sim.Report
}

// Typed views of the synchronizer wire records (registered with the
// package schema in apps.go; the rounded ones carry the round as payload
// word 0).
type sAlg struct {
	round int
	value int64
}
type sSafe struct {
	round   int
	allDone bool
	sent    int64
}

// syncNode wraps one Machine with the beta synchronizer.
type syncNode struct {
	id        sim.NodeID
	root      bool
	parent    sim.NodeID
	children  []sim.NodeID
	machine   Machine
	maxRounds int

	round      int
	inbox      map[int]map[sim.NodeID]int64 // buffered by round
	ackPending int
	safeKids   int
	sentSelf   int64 // algorithm messages sent this round
	doneSelf   bool
	aggDone    bool
	aggSent    int64
	finished   bool
	truncated  bool
}

// newSyncFactory builds the synchronizer protocol factory.
func newSyncFactory(cfg SyncConfig) sim.Factory {
	t := cfg.Tree
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 4*t.N() + 16
	}
	return func(id sim.NodeID, neighbors []sim.NodeID) sim.Protocol {
		n := &syncNode{
			id:        id,
			root:      id == t.Root,
			children:  append([]sim.NodeID(nil), t.Children[id]...),
			machine:   cfg.NewMachine(id, neighbors),
			maxRounds: maxRounds,
			inbox:     make(map[int]map[sim.NodeID]int64),
		}
		if !n.root {
			n.parent = t.Parent[id]
		}
		return n
	}
}

// Init: the root starts pulse 1 and propagates it down the tree.
func (n *syncNode) Init(ctx sim.Context) {
	if n.root {
		n.pulse(ctx, 1)
	}
}

func (n *syncNode) Recv(ctx sim.Context, from sim.NodeID, m sim.WireMsg) {
	switch m.Op {
	case opSyncPulse:
		n.pulse(ctx, int(m.W[0]))
	case opSyncAlg:
		msg := sAlg{round: int(m.W[0]), value: m.W[1]}
		if msg.round != n.round && msg.round != n.round+1 {
			panic(fmt.Sprintf("sync: node %d in round %d got algorithm message of round %d", n.id, n.round, msg.round))
		}
		box := n.inbox[msg.round]
		if box == nil {
			box = make(map[sim.NodeID]int64)
			n.inbox[msg.round] = box
		}
		box[from] = msg.value
		ctx.Send(from, sim.Msg(opSyncAck, int64(msg.round)))
	case opSyncAck:
		if round := int(m.W[0]); round != n.round {
			panic(fmt.Sprintf("sync: node %d in round %d got ack of round %d", n.id, n.round, round))
		}
		n.ackPending--
		n.maybeSafe(ctx)
	case opSyncSafe:
		msg := sSafe{round: int(m.W[0]), allDone: m.W[1] != 0, sent: m.W[2]}
		if msg.round != n.round {
			panic(fmt.Sprintf("sync: node %d in round %d got safe of round %d", n.id, n.round, msg.round))
		}
		n.safeKids--
		n.aggDone = n.aggDone && msg.allDone
		n.aggSent += msg.sent
		n.maybeSafe(ctx)
	case opSyncHalt:
		n.finished = true
		n.truncated = m.W[0] != 0
		for _, c := range n.children {
			ctx.Send(c, m)
		}
	default:
		panic(fmt.Sprintf("sync: unexpected message %s", m.Kind()))
	}
}

// pulse runs synchronous round r at this node and forwards the pulse down.
func (n *syncNode) pulse(ctx sim.Context, r int) {
	n.round = r
	recv := n.inbox[r-1]
	delete(n.inbox, r-1)
	if recv == nil {
		recv = map[sim.NodeID]int64{}
	}
	send, done := n.machine.Pulse(r, recv)
	n.doneSelf = done
	n.aggDone = done
	n.aggSent = int64(len(send))
	n.sentSelf = int64(len(send))
	n.ackPending = len(send)
	n.safeKids = len(n.children)
	for _, c := range n.children {
		ctx.Send(c, sim.Msg(opSyncPulse, int64(r)))
	}
	// Deterministic send order.
	for _, w := range ctx.Neighbors() {
		if v, ok := send[w]; ok {
			ctx.Send(w, sim.Msg(opSyncAlg, int64(r), v))
		}
	}
	n.maybeSafe(ctx)
}

// maybeSafe fires when this node and its whole subtree are safe for the
// current round: all algorithm messages acknowledged, all children safe.
func (n *syncNode) maybeSafe(ctx sim.Context) {
	if n.ackPending > 0 || n.safeKids > 0 {
		return
	}
	n.ackPending = -1 // fire once per round
	if !n.root {
		ctx.Send(n.parent, sim.Msg(opSyncSafe, int64(n.round), sim.B2W(n.aggDone), n.aggSent))
		return
	}
	// Root decision: halt when the algorithm is globally quiet, truncate
	// at the cap, otherwise start the next pulse.
	switch {
	case n.aggDone && n.aggSent == 0:
		n.halt(ctx, false)
	case n.round >= n.maxRounds:
		n.halt(ctx, true)
	default:
		n.pulse(ctx, n.round+1)
	}
}

func (n *syncNode) halt(ctx sim.Context, truncated bool) {
	n.finished = true
	n.truncated = truncated
	for _, c := range n.children {
		ctx.Send(c, sim.Msg(opSyncHalt, sim.B2W(truncated)))
	}
}

// RunSync executes a synchronous algorithm over the asynchronous network c,
// synchronized by the spanning tree in cfg.
func RunSync(eng sim.Engine, c *graph.CSR, cfg SyncConfig) (*SyncResult, error) {
	if err := cfg.Tree.Validate(c.Source()); err != nil {
		return nil, fmt.Errorf("apps: sync tree invalid: %w", err)
	}
	if cfg.NewMachine == nil {
		return nil, fmt.Errorf("apps: sync needs a machine constructor")
	}
	protos, rep, err := eng.Run(c, newSyncFactory(cfg))
	if err != nil {
		return nil, err
	}
	res := &SyncResult{Machines: make(map[sim.NodeID]Machine, len(protos)), Report: rep}
	for i, p := range protos {
		id := c.Index().ID(int32(i))
		sn, ok := p.(*syncNode)
		if !ok {
			return nil, fmt.Errorf("apps: node %d runs %T", id, p)
		}
		if !sn.finished {
			return nil, fmt.Errorf("apps: node %d never learned the halt", id)
		}
		if sn.round > res.Rounds {
			res.Rounds = sn.round
		}
		res.Truncated = res.Truncated || sn.truncated
		res.Machines[id] = sn.machine
	}
	return res, nil
}

// BFSMachine is the demo synchronous algorithm: layered breadth-first
// distances from a source, one layer per pulse.
type BFSMachine struct {
	id        sim.NodeID
	source    bool
	neighbors []sim.NodeID

	// Dist is the BFS distance from the source (-1 until reached).
	Dist     int64
	notified bool
}

// NewBFSMachine returns the machine constructor for the given source.
func NewBFSMachine(source sim.NodeID) func(sim.NodeID, []sim.NodeID) Machine {
	return func(id sim.NodeID, neighbors []sim.NodeID) Machine {
		return &BFSMachine{id: id, source: id == source, neighbors: neighbors, Dist: -1}
	}
}

// Pulse implements Machine: learn the distance from round r-1 messages,
// then notify neighbours exactly once.
func (b *BFSMachine) Pulse(_ int, recv map[sim.NodeID]int64) (map[sim.NodeID]int64, bool) {
	if b.source && b.Dist < 0 {
		b.Dist = 0
	}
	if b.Dist < 0 {
		for _, d := range recv {
			if b.Dist < 0 || d < b.Dist {
				b.Dist = d
			}
		}
	}
	if b.Dist >= 0 && !b.notified {
		b.notified = true
		out := make(map[sim.NodeID]int64, len(b.neighbors))
		for _, w := range b.neighbors {
			out[w] = b.Dist + 1
		}
		return out, true
	}
	return nil, b.Dist >= 0
}
