package main

import (
	"fmt"
	gonet "net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"mdegst/internal/graph"
	mdnet "mdegst/internal/net"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/workload"
)

// The loopback networked suite behind `mdstbench -netbench out.json`: the
// distributed round engine's round-loop throughput and allocation volume,
// recorded as BENCH_net.json. K mdstd-shaped processes — one goroutine
// each, real TCP over 127.0.0.1 — flood gnm-4096 and grid-100k at 2 and 4
// processes. grid-100k is the round-dominated cell (hundreds of barriers
// of small frames, the always-on daemon's steady state); gnm-4096 is the
// batch-dominated one (few rounds, large frames).
//
// Each cell establishes its mesh once and reuses the engines across every
// measured iteration — the steady state being measured is "run the
// protocol again over a live mesh" — with one untimed warm-up run so slab
// growth does not smear into the numbers. Process 0's engine is armed with
// NetStats over the measured iterations; the per-round wire and allocation
// costs land in the report's derived map and the raw counters in its "net"
// map (the artifact CI uploads).
//
// Allocation counts are whole-process (all K engine goroutines plus the
// transports' readers), which is the point: the zero-alloc steady-state
// contract covers the plane end to end, not one goroutine of it.

const (
	// netMinIters / netMinWall set the per-cell measurement floor: at
	// least this many timed iterations AND at least this much summed wall
	// time, whichever demands more.
	netMinIters = 5
	netMinWall  = time.Second
	// netMeshTimeout bounds one cell's mesh establishment.
	netMeshTimeout = 10 * time.Second
)

// netProcCounts is the process axis of the suite.
var netProcCounts = []int{2, 4}

func netWorkloads() []workload.Workload {
	return []workload.Workload{
		{Name: "gnm-4096", Gen: workload.Gnm4096},
		{Name: "grid-100k", Gen: workload.Grid100k},
	}
}

// netCluster is one live loopback mesh: K transports and engines reused
// across a cell's iterations.
type netCluster struct {
	k      int
	owner  []int32
	trs    []*mdnet.Transport
	engs   []*mdnet.DistEngine
	fs     []sim.Factory // per-process slab flood factories, reused across runs
	rounds int64         // flood rounds of the workload (from the last run's report)
}

func newNetCluster(c *graph.CSR, k int) (*netCluster, error) {
	part, err := graph.PartitionNamed(c, "contiguous", k)
	if err != nil {
		return nil, err
	}
	cl := &netCluster{k: k, owner: part.Owners()}
	root := c.Source().Nodes()[0]
	cl.fs = make([]sim.Factory, k)
	for i := range cl.fs {
		// One slab factory per process: each serves that process's
		// sequential runs with zero per-node allocations; the processes
		// run concurrently, so they must not share one arena.
		cl.fs[i] = spanning.NewFloodFactory(c, root)
	}
	lns := make([]gonet.Listener, k)
	addrs := make([]string, k)
	for i := range lns {
		ln, err := mdnet.Listen("127.0.0.1:0")
		if err != nil {
			cl.close()
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	fp := mdnet.Fingerprint{Procs: k, N: c.N(), HalfEdges: c.HalfEdges()}
	cl.trs = make([]*mdnet.Transport, k)
	cl.engs = make([]*mdnet.DistEngine, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := mdnet.NewTransport(lns[i], i, addrs, fp)
			if err := tr.Establish(netMeshTimeout); err != nil {
				errs[i] = fmt.Errorf("establish process %d: %w", i, err)
				tr.Close()
				return
			}
			cl.trs[i] = tr
			cl.engs[i] = &mdnet.DistEngine{T: tr, Owner: cl.owner}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			cl.close()
			return nil, err
		}
	}
	return cl, nil
}

// run executes one distributed flood build across the live mesh, with one
// reused slab flood factory per process: the suite measures the engine, so it must not spend its wall time
// setting up per-node state it immediately drops.
func (cl *netCluster) run(c *graph.CSR) error {
	errs := make([]error, cl.k)
	var wg sync.WaitGroup
	for i := 0; i < cl.k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, rep, err := spanning.Build(cl.engs[i], c, cl.fs[i])
			if err != nil {
				errs[i] = fmt.Errorf("process %d: %w", i, err)
				return
			}
			if i == 0 {
				cl.rounds = int64(rep.VirtualTime)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (cl *netCluster) close() {
	for _, tr := range cl.trs {
		if tr != nil {
			tr.Close()
		}
	}
}

func runNetbench(path string) (*perfReport, error) {
	rep := &perfReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Derived:    map[string]string{},
		Net:        map[string]*mdnet.NetStats{},
	}
	for _, w := range netWorkloads() {
		c := w.Gen().Compile()
		for _, k := range netProcCounts {
			fmt.Fprintf(os.Stderr, "mdstbench: netbench %s procs=%d...\n", w.Name, k)
			cl, err := newNetCluster(c, k)
			if err != nil {
				return nil, err
			}
			// Untimed warm-up grows every slab once; stats armed after it so
			// the recorded counters cover exactly the measured iterations.
			if err := cl.run(c); err != nil {
				cl.close()
				return nil, err
			}
			st := &mdnet.NetStats{}
			cl.engs[0].Stats = st
			iters, medianNs, allocsPerOp, bytesPerOp, err := benchCell(func() error {
				return cl.run(c)
			})
			cl.close()
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("dist-flood/%s/procs=%d", w.Name, k)
			rep.Workloads = append(rep.Workloads, perfEntry{
				Name:        name,
				Iterations:  iters,
				NsPerOp:     medianNs,
				AllocsPerOp: allocsPerOp,
				BytesPerOp:  bytesPerOp,
			})
			rep.Net[name] = st
			rounds := cl.rounds
			if rounds > 0 {
				key := fmt.Sprintf("%s_p%d", w.Name, k)
				rep.Derived["net_rounds_"+key] = fmt.Sprintf("%d", rounds)
				rep.Derived["net_rounds_per_sec_"+key] = fmt.Sprintf("%.0f", float64(rounds)/(float64(medianNs)/1e9))
				rep.Derived["net_alloc_bytes_per_round_"+key] = fmt.Sprintf("%d", bytesPerOp/rounds)
				rep.Derived["net_allocs_per_round_"+key] = fmt.Sprintf("%d", allocsPerOp/rounds)
				if st.Rounds > 0 {
					rep.Derived["net_wire_bytes_per_round_"+key] = fmt.Sprintf("%d", st.BytesSent/st.Rounds)
					rep.Derived["net_header_bytes_per_round_"+key] = fmt.Sprintf("%d", st.HeaderBytes/st.Rounds)
				}
			}
		}
	}
	if err := writeReport(path, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// benchCell measures one cell: fn runs at least netMinIters times and for
// at least netMinWall of summed wall time, every iteration timed
// individually. The reported ns/op is the median iteration — robust
// against a GC pause or scheduler hiccup landing in one sample — and
// allocs/bytes per op are exact averages from the allocator's monotonic
// counters (mallocs and total-alloc never decrease, so GC during the cell
// cannot skew them).
func benchCell(fn func() error) (iters int, medianNs, allocsPerOp, bytesPerOp int64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var times []time.Duration
	var total time.Duration
	for len(times) < netMinIters || total < netMinWall {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, 0, 0, err
		}
		d := time.Since(t0)
		times = append(times, d)
		total += d
	}
	runtime.ReadMemStats(&after)
	iters = len(times)
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	medianNs = int64(times[iters/2])
	if iters%2 == 0 {
		medianNs = int64(times[iters/2-1]+times[iters/2]) / 2
	}
	allocsPerOp = int64(after.Mallocs-before.Mallocs) / int64(iters)
	bytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / int64(iters)
	return iters, medianNs, allocsPerOp, bytesPerOp, nil
}
