// Incremental cluster-view maintenance. The scenario runner used to
// rebuild its ground-truth view from scratch before every balancing
// decision — an O(nodes+procs) scan, an O(n log n) re-sort of the load
// order, and an O(procs) filter per source node — which made view
// bookkeeping, not events, the budget of the large fabric presets. The
// liveView replaces those scans with state maintained O(1) at each
// lifecycle edge (arrival, completion, freeze, delivery, resume,
// suspension, fail-back) and at balloon and CPU churn:
//
//   - per-node resident memory, the exact sum the full rebuild produced
//     (integer arithmetic, so the incremental total is bit-identical);
//   - per-node resident and runnable process lists in ascending id order:
//     their lengths are the counts the full rebuild produced, and their
//     order the exact sequence candidatesOn used to extract by filtering
//     the global slice;
//   - derived NodeView rows plus the descending-load source order, kept
//     sorted by a bounded repair: events mark their nodes dirty, and the
//     next balance round re-derives only the dirty rows and re-inserts
//     them into the order instead of re-sorting every node.
//
// Each edge is one liveView method that also sets the process's procState,
// so the state and the view always change together (docs/failures.md
// tabulates the edges).
//
// The contract is observational equivalence: every row, every ordering and
// every aggregate a balance round reads is identical to what the full
// rebuild would have produced at the same instant (the property
// TestLiveViewMatchesRebuild locks). The payoff is that balance rounds and
// gossip probes cost O(dirty + decisions), not O(cluster), which is what
// lets the presets grow from 512 to 4096 nodes inside the same event
// budget.
package scenario

import (
	"sort"

	"ampom/internal/cluster"
	"ampom/internal/sched"
)

// liveView is the incrementally maintained ground-truth cluster state of
// one policy run.
type liveView struct {
	nodes []*cluster.Node // CPUScale is read live at row refresh
	capMB int64

	// mem sums each node's resident footprints (frozen migrants belong to
	// their destination, as in the full rebuild), maintained O(1) per event.
	mem []int64

	// runnableOn holds each node's runnable processes in ascending id
	// order — the iteration order candidatesOn's global filter preserved.
	runnableOn [][]*proc

	// liveOn holds each node's arrived, unfinished residents in ascending
	// id order — runnableOn plus the suspended and the frozen in-migrants,
	// which live on their destination like mem. The quantum ticks
	// iterate runnableOn; liveOn serves the per-node scans that must see
	// frozen residents too (balloon churn), so neither ever walks the
	// global process slice.
	liveOn [][]*proc

	// rows are the derived NodeView rows; order is the node index sequence
	// sorted by descending Load, ascending index on ties (the order source
	// nodes are offered in). Both are repaired lazily from the dirty set.
	rows  []sched.NodeView
	order []int

	// The dirty set is split per shard so that concurrent shard phases of a
	// sharded run never share an append target: touch(i) records i on the
	// list of the shard owning node i, and only that shard's worker (or the
	// barrier-separated global phase) ever touches node i. refresh drains
	// the lists in shard order; the result is order-independent because row
	// derivation is per node and the load order is a strict total order.
	// Sequential runs have one shard, i.e. exactly one list.
	dirty   []bool
	dirtyBy [][]int
	shardOf []int // nil: every node on shard 0
}

// newLiveView builds the zero-process state: every row at load zero, the
// source order the identity (what sorting an all-zero cluster yields).
// shardOf maps node → shard over shards shards for sharded runs; nil (with
// shards <= 1) keeps the whole dirty set on one list.
func newLiveView(nodes []*cluster.Node, capMB int64, shardOf []int, shards int) *liveView {
	n := len(nodes)
	if shards < 1 {
		shards = 1
	}
	lv := &liveView{
		nodes:      nodes,
		capMB:      capMB,
		mem:        make([]int64, n),
		runnableOn: make([][]*proc, n),
		liveOn:     make([][]*proc, n),
		rows:       make([]sched.NodeView, n),
		order:      make([]int, n),
		dirty:      make([]bool, n),
		dirtyBy:    make([][]int, shards),
		shardOf:    shardOf,
	}
	lv.dirtyBy[0] = make([]int, 0, n)
	for i := range lv.rows {
		lv.rows[i] = sched.NodeView{CPUScale: nodes[i].CPUScale, CapacityMB: capMB}
		lv.order[i] = i
	}
	return lv
}

// touch marks node i's row (and its position in the load order) stale.
// CPU-scale churn calls it directly; every other event reaches it through
// the transition hooks below.
func (lv *liveView) touch(i int) {
	if !lv.dirty[i] {
		lv.dirty[i] = true
		s := 0
		if lv.shardOf != nil {
			s = lv.shardOf[i]
		}
		lv.dirtyBy[s] = append(lv.dirtyBy[s], i)
	}
}

// dirtyCount sums the queued dirty marks across shards.
func (lv *liveView) dirtyCount() int {
	n := 0
	for _, list := range lv.dirtyBy {
		n += len(list)
	}
	return n
}

// arrive admits p to its node: resident, runnable, memory and the
// candidate list.
func (lv *liveView) arrive(p *proc) {
	i := p.node
	p.state = stateRunning
	lv.mem[i] += p.footprintMB
	lv.runnableOn[i] = insertByID(lv.runnableOn[i], p)
	lv.liveOn[i] = insertByID(lv.liveOn[i], p)
	lv.touch(i)
}

// complete retires a finishing process. Completion only happens to runnable
// processes (the quantum loop skips frozen ones), so the candidate list
// always holds p.
func (lv *liveView) complete(p *proc) {
	i := p.node
	p.state = stateDone
	lv.mem[i] -= p.footprintMB
	lv.runnableOn[i] = removeByID(lv.runnableOn[i], p)
	lv.liveOn[i] = removeByID(lv.liveOn[i], p)
	lv.touch(i)
}

// freeze moves a migrating process from its node (kept as p.from) to dst
// at freeze time: the resident aggregates transfer immediately (a frozen
// migrant counts towards its destination, as the balancer view always had
// it), while runnability — and candidacy — lapse until resume.
func (lv *liveView) freeze(p *proc, dst int) {
	src := p.node
	p.state = stateInFlight
	p.from, p.node = src, dst
	lv.mem[src] -= p.footprintMB
	lv.runnableOn[src] = removeByID(lv.runnableOn[src], p)
	lv.liveOn[src] = removeByID(lv.liveOn[src], p)
	lv.mem[dst] += p.footprintMB
	lv.liveOn[dst] = insertByID(lv.liveOn[dst], p)
	lv.touch(src)
	lv.touch(dst)
}

// deliver marks a migrant's payload landed: it restores where it already
// resides, so nothing else changes.
func (lv *liveView) deliver(p *proc) { p.state = stateRestoring }

// resume puts a restored migrant or a suspended process back on its node's
// runnable list. The visible row is untouched — resident count,
// load and memory already moved — so no dirtying is needed; only the
// quantum shares and the candidate list change.
func (lv *liveView) resume(p *proc) {
	i := p.node
	p.state = stateRunning
	lv.runnableOn[i] = insertByID(lv.runnableOn[i], p)
}

// suspend parks a runnable resident off the tick and candidate lists
// without departing it: its node crashed (killing the process's progress)
// or it arrived on a crashed node, and it idles, still resident, until the
// node recovers. The visible row is untouched — load tracks the resident
// count, and a suspended process still occupies its node's memory and
// queue slot, exactly what a recovering balancer should see.
func (lv *liveView) suspend(p *proc) {
	i := p.node
	p.state = stateSuspended
	lv.runnableOn[i] = removeByID(lv.runnableOn[i], p)
}

// failBack reverses an interrupted migration's freeze-time transfer: the
// resident aggregates move from the dead destination back to the source,
// where the migrant parks suspended. The caller resumes it at once on a
// live source; on a crashed one it stays suspended until recovery.
func (lv *liveView) failBack(p *proc) {
	dst, src := p.node, p.from
	p.state = stateSuspended
	p.node = src
	lv.mem[dst] -= p.footprintMB
	lv.liveOn[dst] = removeByID(lv.liveOn[dst], p)
	lv.mem[src] += p.footprintMB
	lv.liveOn[src] = insertByID(lv.liveOn[src], p)
	lv.touch(dst)
	lv.touch(src)
}

// memDelta applies a resident-footprint change (balloon churn) to p's
// current node — frozen or runnable, the footprint lives where the process
// is resident.
func (lv *liveView) memDelta(i int, delta int64) {
	lv.mem[i] += delta
	lv.touch(i)
}

// refresh re-derives the dirty rows from the aggregates and repairs their
// positions in the load order, leaving rows and order exactly as a full
// rebuild plus sort would. With an empty dirty set it is a no-op — the
// usual case between events.
func (lv *liveView) refresh() {
	if lv.dirtyCount() == 0 {
		return
	}
	for _, list := range lv.dirtyBy {
		for _, i := range list {
			scale, n := lv.nodes[i].CPUScale, len(lv.liveOn[i])
			lv.rows[i] = sched.NodeView{
				Procs:      n,
				CPUScale:   scale,
				Load:       float64(n) / scale,
				UsedMemMB:  lv.mem[i],
				CapacityMB: lv.capMB,
				QueueLen:   n,
			}
		}
	}
	lv.repairOrder()
	for s, list := range lv.dirtyBy {
		for _, i := range list {
			lv.dirty[i] = false
		}
		lv.dirtyBy[s] = list[:0]
	}
}

// before is the source-order key: descending load, ascending node index on
// ties — a strict total order, so the sorted sequence is unique and equal
// to what the stable full sort produced.
func (lv *liveView) before(a, b int) bool {
	la, lb := lv.rows[a].Load, lv.rows[b].Load
	if la != lb {
		return la > lb
	}
	return a < b
}

// repairOrder removes the dirty nodes from the order and re-inserts each
// at its sorted position — O(dirty × n) worst case but O(n) in practice,
// against the O(n log n) comparison sort the full rebuild paid per round.
func (lv *liveView) repairOrder() {
	k := 0
	for _, n := range lv.order {
		if !lv.dirty[n] {
			lv.order[k] = n
			k++
		}
	}
	lv.order = lv.order[:k]
	for _, list := range lv.dirtyBy {
		for _, n := range list {
			at := sort.Search(len(lv.order), func(j int) bool { return lv.before(n, lv.order[j]) })
			lv.order = append(lv.order, 0)
			copy(lv.order[at+1:], lv.order[at:])
			lv.order[at] = n
		}
	}
}

// insertByID inserts p into a list kept in ascending id order.
func insertByID(list []*proc, p *proc) []*proc {
	at := sort.Search(len(list), func(j int) bool { return list[j].t.id > p.t.id })
	list = append(list, nil)
	copy(list[at+1:], list[at:])
	list[at] = p
	return list
}

// removeByID removes p from a list kept in ascending id order.
func removeByID(list []*proc, p *proc) []*proc {
	at := sort.Search(len(list), func(j int) bool { return list[j].t.id >= p.t.id })
	copy(list[at:], list[at+1:])
	list[len(list)-1] = nil
	return list[:len(list)-1]
}
