// Decentralised gossip dissemination — the switched-fabric replacement for
// the paired hub-spoke daemon exchange. One Gossip daemon runs per node;
// every period it pushes a bounded window of its load vector — its own
// fresh sample plus the l-1 most recently refreshed entries it has heard,
// the openMosix "l freshest entries" dissemination — to a few distinct
// random peers. Entries age as they propagate, and the t0 estimate AMPoM's
// Equation 3 consumes is derived per origin from the observed gossip-path
// timing. Because an entry's age accumulates queueing, scheduling delay and
// hop count, balancer policies on a large fabric see staleness that grows
// with topology distance — the MOSIX information-dissemination behaviour
// the related farm literature describes, rather than the paper's two-node
// pairing.
//
// Storage is compact: a daemon keeps only the origins it has actually
// heard from (cells stored inline in fixed-size blocks behind an
// open-addressed origin index, plus a recency ring ordering them by last
// refresh), never a dense length-n vector, so the whole gossip plane is
// O(n·l·retention) resident rather than O(n²). Alongside the periodic
// pushes, each daemon runs slower anti-entropy pull rounds: it asks one
// random peer for that peer's current window, which heals partitions and
// brings late joiners up to date even when pushes alone would starve them.
package infod

import (
	"math"

	"ampom/internal/cluster"
	"ampom/internal/core"
	"ampom/internal/memory"
	"ampom/internal/netmodel"
	"ampom/internal/prng"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// DefaultWindowLen is the default bounded-window size l: how many entries
// (own sample included) one push or pull response carries.
const DefaultWindowLen = 32

// GossipConfig tunes a gossip daemon. Zero fields take defaults; the
// fields marked "negative disables" treat any negative value as an
// explicit off switch, so a zero-jitter or never-expiring configuration is
// expressible (zero still means "use the default", as everywhere else in
// the spec surface). The fabric layer always passes Period, Fanout and
// WindowLen explicitly (resolved from fabric.DefaultGossipPeriod/
// DefaultGossipFanout/DefaultGossipWindow); the local defaults here only
// serve direct NewGossip callers and mirror those values.
type GossipConfig struct {
	// Period is the gossip push period. Default 2 s (the paired daemons'
	// historical update period).
	Period simtime.Duration
	// Fanout is how many distinct random peers each push round targets.
	// Default 2.
	Fanout int
	// WindowLen is l, the maximum number of entries (own sample included)
	// one outgoing vector carries — the openMosix bounded partial view.
	// Default DefaultWindowLen.
	WindowLen int
	// PullPeriod is the anti-entropy pull period: every PullPeriod the
	// daemon asks one random peer for its window. Default 4×Period;
	// negative disables pulls.
	PullPeriod simtime.Duration
	// MaxAge expires entries: they are dropped from outgoing vectors and
	// local reads past MaxAge report Unknown. Default 30 s; negative
	// disables aging entirely (entries never expire).
	MaxAge simtime.Duration
	// SchedDelay is the mean user-level scheduling delay before a daemon
	// composes or merges a message. Default 6 ms, as for Config.
	SchedDelay simtime.Duration
	// Jitter is the fractional spread of SchedDelay. Default 0.5; negative
	// disables jitter (every delay is exactly SchedDelay).
	Jitter float64
	// Alpha is the EWMA weight folding new age samples into the per-origin
	// staleness estimate. Default 0.1; negative disables smoothing updates
	// (the estimate pins to the first observed sample).
	Alpha float64
	// BandwidthFloorFrac floors the bandwidth estimate at this fraction of
	// nominal capacity. Default 0.25.
	BandwidthFloorFrac float64
	// MsgBytes is the wire size of a gossip message header. Default 192.
	MsgBytes int64
	// EntryBytes is the wire size of one load-vector entry. Default 32.
	EntryBytes int64
}

func (c GossipConfig) withDefaults() GossipConfig {
	if c.Period == 0 {
		c.Period = 2 * simtime.Second
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if c.WindowLen <= 0 {
		c.WindowLen = DefaultWindowLen
	}
	if c.PullPeriod == 0 {
		c.PullPeriod = 4 * c.Period
	}
	if c.MaxAge == 0 {
		c.MaxAge = 30 * simtime.Second
	}
	if c.SchedDelay == 0 {
		c.SchedDelay = 6 * simtime.Millisecond
	}
	switch {
	case c.Jitter == 0:
		c.Jitter = 0.5
	case c.Jitter < 0:
		c.Jitter = 0
	}
	switch {
	case c.Alpha == 0:
		c.Alpha = 0.1
	case c.Alpha < 0:
		c.Alpha = 0
	}
	if c.BandwidthFloorFrac == 0 {
		c.BandwidthFloorFrac = 0.25
	}
	if c.MsgBytes == 0 {
		c.MsgBytes = 192
	}
	if c.EntryBytes == 0 {
		c.EntryBytes = 32
	}
	return c
}

// LoadSample is one node's disseminated load state at a stamp instant.
type LoadSample struct {
	// Load is the CPU-scaled runnable load (queue length / CPU scale).
	Load float64
	// Queue is the raw runnable-queue length.
	Queue int
	// UsedMemMB is the resident memory footprint.
	UsedMemMB int64
}

// GossipEntry is one origin's entry in a daemon's load vector.
type GossipEntry struct {
	// Sample is the origin's load state as of Stamp.
	Sample LoadSample
	// Stamp is the origin-side composition instant of the sample.
	Stamp simtime.Time
	// Hops counts how many daemon-to-daemon pushes the entry crossed.
	Hops int
	// Known reports whether any sample for the origin has arrived yet.
	Known bool
}

// gossipEntryWire is one entry on the wire (hops as recorded by the
// sender; the receiver increments). It is flat and narrow because every
// push's window escapes into the in-flight message: 40 bytes an entry.
// Every wire entry is known — a daemon only ever sends samples it holds.
type gossipEntryWire struct {
	Origin, Queue, Hops int32
	Load                float64
	UsedMemMB           int64
	Stamp               simtime.Time
}

// entry expands a wire entry into the exported form.
func (w *gossipEntryWire) entry() GossipEntry {
	return GossipEntry{
		Sample: LoadSample{Load: w.Load, Queue: int(w.Queue), UsedMemMB: w.UsedMemMB},
		Stamp:  w.Stamp,
		Hops:   int(w.Hops),
		Known:  true,
	}
}

// gossipMsg is one load-vector push (or pull response — the receiver
// merges both identically).
type gossipMsg struct {
	From    int
	Entries []gossipEntryWire
}

// gossipPullMsg is one anti-entropy pull request: the receiver replies to
// From with its own current window.
type gossipPullMsg struct {
	From int
}

// cell is one heard origin's state: the entry as it arrived on the wire
// (hops already incremented), the per-origin staleness EWMA (negative
// until the first age sample — observed ages are clamped at zero, so a
// real estimate never is), and the recency-ring position of the origin's
// latest refresh (the dedup key the window composer checks).
type cell struct {
	w       gossipEntryWire
	ageEst  simtime.Duration
	ringPos int64
}

// blockCells is how many cells one storage block holds.
const blockCells = 32

// cellStore holds a daemon's heard origins: cells stored inline in
// fixed-size blocks, appended and never copied, so slots 0..n-1 are
// dense and a block allocation is amortised over blockCells origins.
// index is an open-addressed linear-probing table (at most half full)
// mapping an origin to its slot; each occupied entry packs
// (origin+1)<<32 | slot, so a probe compares origins without touching
// the cells, and 0 is empty. Removal swap-moves the last cell into the
// freed slot. Everything is sized by the heard set, never by the cluster.
type cellStore struct {
	blocks []*[blockCells]cell
	n      int
	index  []uint64
	bits   uint
}

// minIndexBits sizes the first index table (16 entries).
const minIndexBits = 4

// homeAt is origin's home position in an index of 2^bits entries
// (Fibonacci hashing, so dense and strided origin sets spread evenly).
func homeAt(origin uint32, bits uint) int {
	return int((origin * 0x9E3779B9) >> (32 - bits))
}

// indexKey is the high half of origin's index entries.
func indexKey(origin int) uint64 { return uint64(uint32(origin)+1) << 32 }

// at returns the cell in slot.
func (s *cellStore) at(slot int) *cell {
	return &s.blocks[slot/blockCells][slot%blockCells]
}

// lookup returns the index position holding origin, if present.
func (s *cellStore) lookup(origin int) (int, bool) {
	if s.n == 0 {
		return 0, false
	}
	key, mask := indexKey(origin), len(s.index)-1
	for i := homeAt(uint32(origin), s.bits); ; i = (i + 1) & mask {
		e := s.index[i]
		if e == 0 {
			return 0, false
		}
		if e&^0xFFFFFFFF == key {
			return i, true
		}
	}
}

// get returns origin's cell, or nil when it is not held.
func (s *cellStore) get(origin int) *cell {
	i, ok := s.lookup(origin)
	if !ok {
		return nil
	}
	return s.at(int(uint32(s.index[i])))
}

// place records origin at slot in the index (origin must be absent).
func (s *cellStore) place(origin, slot int) {
	mask := len(s.index) - 1
	i := homeAt(uint32(origin), s.bits)
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = indexKey(origin) | uint64(slot)
}

// add appends a fresh cell for origin (which must be absent), growing the
// index to keep it at most half full.
func (s *cellStore) add(origin int) *cell {
	if 2*(s.n+1) > len(s.index) {
		bits := uint(minIndexBits)
		if s.index != nil {
			bits = s.bits + 1
		}
		s.index, s.bits = make([]uint64, 1<<bits), bits
		for slot := 0; slot < s.n; slot++ {
			s.place(int(s.at(slot).w.Origin), slot)
		}
	}
	if s.n == len(s.blocks)*blockCells {
		s.blocks = append(s.blocks, new([blockCells]cell))
	}
	slot := s.n
	s.n++
	s.place(origin, slot)
	c := s.at(slot)
	*c = cell{w: gossipEntryWire{Origin: int32(origin)}, ageEst: -1}
	return c
}

// del removes origin's cell, if held: the last cell moves into the freed
// slot and the index entry is deleted by backward shift.
func (s *cellStore) del(origin int) {
	i, ok := s.lookup(origin)
	if !ok {
		return
	}
	slot := int(uint32(s.index[i]))
	s.unindex(i)
	s.n--
	if slot != s.n {
		moved := s.at(s.n)
		*s.at(slot) = *moved
		j, _ := s.lookup(int(moved.w.Origin))
		s.index[j] = indexKey(int(moved.w.Origin)) | uint64(slot)
	}
}

// unindex empties index position i by backward shift: each later entry of
// the probe run moves back into the hole unless its home lies cyclically
// in (hole, entry], so every lookup still reaches its origin without
// crossing an empty entry and no tombstones accumulate.
func (s *cellStore) unindex(i int) {
	mask := len(s.index) - 1
	for j := i; ; {
		j = (j + 1) & mask
		e := s.index[j]
		if e == 0 {
			s.index[i] = 0
			return
		}
		h := homeAt(uint32(e>>32)-1, s.bits)
		if (i < j && (h <= i || h > j)) || (i > j && h <= i && h > j) {
			s.index[i] = e
			i = j
		}
	}
}

// sweepFloor is the minimum heard-set size before expiry sweeps trigger.
const sweepFloor = 64

// Gossip is one node's gossip dissemination daemon.
type Gossip struct {
	cfg  GossipConfig
	eng  *sim.Engine
	node *cluster.Node
	id   int
	n    int
	send func(dst int, m netmodel.Message)
	rng  *prng.Source

	probe func() LoadSample

	// self is the daemon's own latest sample; cells holds only origins
	// actually heard from. ring is a circular buffer of origin ids in
	// refresh order (ringN total appends); an origin is current at ring
	// position p iff its cell's ringPos == p, so the window composer walks
	// the ring newest-first with O(1) dedup. sweepAt is the heard-set size
	// that triggers the next amortised expiry sweep.
	self    GossipEntry
	cells   cellStore
	ring    []int32
	ringN   int64
	sweepAt int

	peerScratch []int

	// Bandwidth estimate state — the same NIC-counter differencing the
	// paired daemon uses.
	lastBytes   int64
	lastAt      simtime.Time
	bwEst       float64
	haveBw      bool
	nominalBw   float64
	minInterval simtime.Duration
}

// NewGossip creates the gossip daemon of node id in an n-node cluster.
// send routes one message to a peer (the fabric's topology path); seed
// drives the daemon's jitter and peer-selection stream. The daemon
// registers its message handler on the node; call Start to begin pushing.
func NewGossip(cfg GossipConfig, node *cluster.Node, id, n int, nominalBw float64, send func(dst int, m netmodel.Message), seed uint64) *Gossip {
	cfg = cfg.withDefaults()
	ringCap := 4 * cfg.WindowLen
	if ringCap < sweepFloor {
		ringCap = sweepFloor
	}
	g := &Gossip{
		cfg:         cfg,
		eng:         node.Eng,
		node:        node,
		id:          id,
		n:           n,
		send:        send,
		rng:         prng.New(seed),
		ring:        make([]int32, ringCap),
		sweepAt:     sweepFloor,
		nominalBw:   nominalBw,
		minInterval: 10 * simtime.Millisecond,
		lastAt:      node.Eng.Now(),
	}
	node.Handle(g.handle)
	return g
}

// ID returns the daemon's node id.
func (g *Gossip) ID() int { return g.id }

// SetProbe installs the local load probe sampled at every push round.
func (g *Gossip) SetProbe(f func() LoadSample) { g.probe = f }

// Start begins periodic pushes (and, unless disabled, anti-entropy pulls)
// for the rest of the run. Call it once.
func (g *Gossip) Start() {
	sim.NewTicker(g.eng, g.cfg.Period, g.push)
	if g.cfg.PullPeriod > 0 {
		sim.NewTicker(g.eng, g.cfg.PullPeriod, g.pull)
	}
}

// schedDelay draws one user-level scheduling delay.
func (g *Gossip) schedDelay() simtime.Duration {
	j := 1 + g.cfg.Jitter*(2*g.rng.Float64()-1)
	return simtime.Duration(float64(g.cfg.SchedDelay) * j)
}

// liveFrom is the oldest stamp still live at now: an entry expires once it
// is more than MaxAge old (negative MaxAge: never), so a walk computes the
// bound once and each freshness check is one compare.
func (g *Gossip) liveFrom(now simtime.Time) simtime.Time {
	if g.cfg.MaxAge <= 0 {
		return math.MinInt64
	}
	return now - simtime.Time(g.cfg.MaxAge)
}

// compose re-probes the daemon's own sample and assembles the bounded
// outgoing window: the fresh self entry plus the most recently refreshed
// live entries off the recency ring, up to WindowLen total. Stale ring
// slots (an origin refreshed again later, or an entry past MaxAge) are
// skipped; expired cells encountered on the walk are reclaimed. The slice
// is allocated per call because it escapes into the in-flight message.
func (g *Gossip) compose(now simtime.Time) []gossipEntryWire {
	var s LoadSample
	if g.probe != nil {
		s = g.probe()
	}
	g.self = GossipEntry{Sample: s, Stamp: now, Known: true}
	max := g.cfg.WindowLen
	if m := g.cells.n + 1; m < max {
		max = m
	}
	out := make([]gossipEntryWire, 0, max)
	out = append(out, gossipEntryWire{
		Origin: int32(g.id), Queue: int32(s.Queue), Load: s.Load, UsedMemMB: s.UsedMemMB, Stamp: now,
	})
	live := g.liveFrom(now)
	span := int64(len(g.ring))
	if g.ringN < span {
		span = g.ringN
	}
	for k := int64(1); k <= span && len(out) < g.cfg.WindowLen; k++ {
		pos := g.ringN - k
		o := int(g.ring[pos%int64(len(g.ring))])
		c := g.cells.get(o)
		if c == nil || c.ringPos != pos {
			continue // origin refreshed since (a newer slot covers it) or reclaimed
		}
		if c.w.Stamp < live {
			g.cells.del(o)
			continue
		}
		out = append(out, c.w)
	}
	return out
}

// pickPeers selects k distinct random peers (never the daemon itself) by
// rejection sampling into a reused scratch slice. One round's fanout never
// lands on the same peer twice, so configured fanout is always realised.
func (g *Gossip) pickPeers(k int) []int {
	if k > g.n-1 {
		k = g.n - 1
	}
	ps := g.peerScratch[:0]
	for len(ps) < k {
		dst := g.rng.Intn(g.n)
		if dst == g.id {
			continue
		}
		dup := false
		for _, p := range ps {
			if p == dst {
				dup = true
				break
			}
		}
		if !dup {
			ps = append(ps, dst)
		}
	}
	g.peerScratch = ps
	return ps
}

// push composes the outgoing window and hands it to Fanout distinct random
// peers, each after a scheduling delay. The vector is stamped at
// composition time, as the paired daemon stamps its payload.
func (g *Gossip) push() {
	snapshot := g.compose(g.eng.Now())
	if g.n <= 1 {
		return
	}
	size := g.cfg.MsgBytes + g.cfg.EntryBytes*int64(len(snapshot))
	msg := gossipMsg{From: g.id, Entries: snapshot}
	for _, dst := range g.pickPeers(g.cfg.Fanout) {
		dst := dst
		g.eng.Schedule(g.schedDelay(), func() {
			g.send(dst, netmodel.Message{Size: size, Payload: msg})
		})
	}
}

// pull runs one anti-entropy round: ask a single random peer for its
// current window. The response is an ordinary gossipMsg, merged like any
// push — so a partitioned or late-joining daemon converges within a
// bounded number of pull rounds once connectivity is back, even when the
// push windows alone would starve it.
func (g *Gossip) pull() {
	if g.n <= 1 {
		return
	}
	dst := g.pickPeers(1)[0]
	msg := gossipPullMsg{From: g.id}
	g.eng.Schedule(g.schedDelay(), func() {
		g.send(dst, netmodel.Message{Size: g.cfg.MsgBytes, Payload: msg})
	})
}

// handle consumes gossip traffic delivered to this node; merges and pull
// responses run after this side's scheduling delay (the daemon has to be
// woken and run).
func (g *Gossip) handle(payload any) bool {
	switch m := payload.(type) {
	case gossipMsg:
		g.eng.Schedule(g.schedDelay(), func() { g.merge(m) })
		return true
	case gossipPullMsg:
		g.eng.Schedule(g.schedDelay(), func() { g.servePull(m.From) })
		return true
	}
	return false
}

// servePull answers one anti-entropy request with this daemon's window.
func (g *Gossip) servePull(dst int) {
	if dst == g.id || dst < 0 || dst >= g.n {
		return
	}
	snapshot := g.compose(g.eng.Now())
	size := g.cfg.MsgBytes + g.cfg.EntryBytes*int64(len(snapshot))
	g.send(dst, netmodel.Message{Size: size, Payload: gossipMsg{From: g.id, Entries: snapshot}})
}

// merge folds a received window in: newer stamps win, hop counts
// increment, accepted entries move to the head of the recency ring, and
// every accepted entry contributes an age sample to the per-origin
// staleness estimate. Entries already past MaxAge on arrival are not
// resurrected.
func (g *Gossip) merge(m gossipMsg) {
	now := g.eng.Now()
	live := g.liveFrom(now)
	for i := range m.Entries {
		w := &m.Entries[i]
		o := int(w.Origin)
		if o == g.id || o < 0 || o >= g.n || w.Stamp < live {
			continue
		}
		c := g.cells.get(o)
		if c == nil {
			c = g.cells.add(o)
		} else if w.Stamp <= c.w.Stamp {
			continue
		}
		c.w = *w
		c.w.Hops++
		c.ringPos = g.ringN
		g.ring[g.ringN%int64(len(g.ring))] = w.Origin
		g.ringN++
		g.recordAge(c, now.Sub(w.Stamp))
	}
	g.maybeSweep(now)
}

// maybeSweep reclaims expired cells once the heard set crosses the sweep
// threshold, then re-arms the threshold at twice the surviving size — an
// amortised-O(1) bound that keeps a daemon's resident heard set within a
// constant factor of the entries actually live under MaxAge. The expiry
// set is a pure function of (cells, now). The walk runs from the last slot
// down, so each swap-removal only moves in a cell already checked.
func (g *Gossip) maybeSweep(now simtime.Time) {
	if g.cfg.MaxAge <= 0 || g.cells.n < g.sweepAt {
		return
	}
	live := g.liveFrom(now)
	for slot := g.cells.n - 1; slot >= 0; slot-- {
		if c := g.cells.at(slot); c.w.Stamp < live {
			g.cells.del(int(c.w.Origin))
		}
	}
	g.sweepAt = 2 * g.cells.n
	if g.sweepAt < sweepFloor {
		g.sweepAt = sweepFloor
	}
}

// recordAge folds one observed entry age into the origin's EWMA.
func (g *Gossip) recordAge(c *cell, age simtime.Duration) {
	if age < 0 {
		age = 0
	}
	if c.ageEst < 0 {
		c.ageEst = age
		return
	}
	a := g.cfg.Alpha
	c.ageEst = simtime.Duration(a*float64(age) + (1-a)*float64(c.ageEst))
}

// Entry returns this daemon's current view of origin's load state. An
// entry past MaxAge reads as unknown — local readers see the same expiry
// the wire applies, never unbounded staleness.
func (g *Gossip) Entry(origin int) GossipEntry {
	if origin == g.id {
		return g.self
	}
	c := g.cells.get(origin)
	if c == nil || c.w.Stamp < g.liveFrom(g.eng.Now()) {
		return GossipEntry{}
	}
	return c.w.entry()
}

// EntryAge returns how stale the origin's entry is right now (and whether
// a live one exists at all — expired entries report absent).
func (g *Gossip) EntryAge(origin int) (simtime.Duration, bool) {
	e := g.Entry(origin)
	if !e.Known {
		return 0, false
	}
	return g.eng.Now().Sub(e.Stamp), true
}

// Fresh calls f for every live (non-expired) entry this daemon currently
// holds, own entry excluded. Callback order is storage-slot order —
// deterministic, but an artefact of insertions and removals — so callers
// must apply f per origin without cross-origin dependence (the incremental
// gossip view writes one row per callback, which is order-free).
func (g *Gossip) Fresh(f func(origin int, e GossipEntry)) {
	live := g.liveFrom(g.eng.Now())
	for slot := 0; slot < g.cells.n; slot++ {
		if c := g.cells.at(slot); c.w.Stamp >= live {
			f(int(c.w.Origin), c.w.entry())
		}
	}
}

// KnownCount reports how many origins currently read as live entries.
func (g *Gossip) KnownCount() int {
	n := 0
	live := g.liveFrom(g.eng.Now())
	for slot := 0; slot < g.cells.n; slot++ {
		if g.cells.at(slot).w.Stamp >= live {
			n++
		}
	}
	return n
}

// AgeRTT returns the staleness-derived round-trip estimate for origin
// (2× the smoothed one-way dissemination delay), if any sample arrived.
func (g *Gossip) AgeRTT(origin int) (simtime.Duration, bool) {
	c := g.cells.get(origin)
	if c == nil || c.ageEst < 0 {
		return 0, false
	}
	return 2 * c.ageEst, true
}

// MeanRTT is the mean staleness-derived round-trip estimate over every
// origin heard from; with no samples yet it falls back to the freshly
// joined daemon's prior (two scheduling delays). The sum is integer
// arithmetic over per-origin estimates, so slot order cannot perturb it.
func (g *Gossip) MeanRTT() simtime.Duration {
	var sum simtime.Duration
	n := 0
	for slot := 0; slot < g.cells.n; slot++ {
		if c := g.cells.at(slot); c.ageEst >= 0 {
			sum += 2 * c.ageEst
			n++
		}
	}
	if n == 0 {
		return 2 * g.cfg.SchedDelay
	}
	return sum / simtime.Duration(n)
}

// refreshBandwidth re-derives the bandwidth estimate from NIC counter
// deltas, exactly as the paired daemon does.
func (g *Gossip) refreshBandwidth() {
	now := g.eng.Now()
	elapsed := now.Sub(g.lastAt)
	if g.haveBw && elapsed < g.minInterval {
		return
	}
	cur := g.node.NIC.Counters.RxBytes + g.node.NIC.Counters.TxBytes
	if elapsed > 0 {
		observed := float64(cur-g.lastBytes) / elapsed.Seconds()
		floor := g.cfg.BandwidthFloorFrac * g.nominalBw
		if observed < floor {
			observed = floor
		}
		if observed > g.nominalBw {
			observed = g.nominalBw
		}
		g.bwEst = observed
		g.haveBw = true
	}
	g.lastBytes = cur
	g.lastAt = now
}

// Bandwidth returns the current bytes/s estimate.
func (g *Gossip) Bandwidth() float64 {
	g.refreshBandwidth()
	if !g.haveBw {
		return g.cfg.BandwidthFloorFrac * g.nominalBw
	}
	return g.bwEst
}

// Estimates assembles the Eq. 3 inputs this daemon would report for a
// migration originating at origin: the staleness-derived RTT (or the
// prior when nothing has been heard) and the one-page transfer time at
// the estimated bandwidth.
func (g *Gossip) Estimates(origin int) core.Estimates {
	rtt, ok := g.AgeRTT(origin)
	if !ok {
		rtt = 2 * g.cfg.SchedDelay
	}
	pageBytes := float64(memory.PageSize + 64)
	return core.Estimates{
		RTT:          rtt,
		PageTransfer: simtime.FromSeconds(pageBytes / g.Bandwidth()),
	}
}
