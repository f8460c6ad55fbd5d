package infod

import (
	"fmt"
	"slices"
	"testing"

	"ampom/internal/cluster"
	"ampom/internal/netmodel"
	"ampom/internal/prng"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// The cell store's property test: one daemon is driven through a seeded
// random sequence of merges (stale, duplicate, expired-on-arrival,
// self and out-of-range origins), clock advances past MaxAge, window
// compositions and explicit sweeps, and after every step each reader is
// compared against a reference model that keeps the same state in a
// plain Go map.

// modelCell is one origin's state in the reference model.
type modelCell struct {
	e       GossipEntry
	ageEst  simtime.Duration
	haveAge bool
	ringPos int64
}

// gossipModel restates the daemon's store semantics over a map: newest
// stamp wins, hops increment, accepted entries go to the recency ring,
// the composer walks the ring newest-first reclaiming expired cells, and
// sweeps reclaim every expired cell once the heard set reaches sweepAt.
type gossipModel struct {
	cfg     GossipConfig
	id, n   int
	self    GossipEntry
	cells   map[int]*modelCell
	ring    []int
	ringN   int64
	sweepAt int
	deletes int
}

func newGossipModel(g *Gossip) *gossipModel {
	return &gossipModel{
		cfg: g.cfg, id: g.id, n: g.n,
		cells:   map[int]*modelCell{},
		ring:    make([]int, len(g.ring)),
		sweepAt: sweepFloor,
	}
}

func (m *gossipModel) expired(stamp, now simtime.Time) bool {
	return m.cfg.MaxAge > 0 && now.Sub(stamp) > m.cfg.MaxAge
}

func (m *gossipModel) drop(o int) {
	delete(m.cells, o)
	m.deletes++
}

func (m *gossipModel) merge(ws []gossipEntryWire, now simtime.Time) {
	for _, w := range ws {
		o := int(w.Origin)
		if o == m.id || o < 0 || o >= m.n || m.expired(w.Stamp, now) {
			continue
		}
		c, ok := m.cells[o]
		if ok && w.Stamp <= c.e.Stamp {
			continue
		}
		if !ok {
			c = &modelCell{}
			m.cells[o] = c
		}
		c.e = w.entry()
		c.e.Hops++
		c.ringPos = m.ringN
		m.ring[m.ringN%int64(len(m.ring))] = o
		m.ringN++
		age := now.Sub(w.Stamp)
		if age < 0 {
			age = 0
		}
		if !c.haveAge {
			c.ageEst, c.haveAge = age, true
		} else {
			c.ageEst = simtime.Duration(m.cfg.Alpha*float64(age) + (1-m.cfg.Alpha)*float64(c.ageEst))
		}
	}
	m.sweep(now)
}

func (m *gossipModel) sweep(now simtime.Time) {
	if m.cfg.MaxAge <= 0 || len(m.cells) < m.sweepAt {
		return
	}
	for o, c := range m.cells {
		if m.expired(c.e.Stamp, now) {
			m.drop(o)
		}
	}
	m.sweepAt = max(2*len(m.cells), sweepFloor)
}

func (m *gossipModel) compose(now simtime.Time, s LoadSample) []gossipEntryWire {
	m.self = GossipEntry{Sample: s, Stamp: now, Known: true}
	out := []gossipEntryWire{{Origin: int32(m.id), Queue: int32(s.Queue), Load: s.Load, UsedMemMB: s.UsedMemMB, Stamp: now}}
	span := min(int64(len(m.ring)), m.ringN)
	for k := int64(1); k <= span && len(out) < m.cfg.WindowLen; k++ {
		pos := m.ringN - k
		o := m.ring[pos%int64(len(m.ring))]
		c, ok := m.cells[o]
		if !ok || c.ringPos != pos {
			continue
		}
		if m.expired(c.e.Stamp, now) {
			m.drop(o)
			continue
		}
		e := c.e
		out = append(out, gossipEntryWire{
			Origin: int32(o), Queue: int32(e.Sample.Queue), Hops: int32(e.Hops),
			Load: e.Sample.Load, UsedMemMB: e.Sample.UsedMemMB, Stamp: e.Stamp,
		})
	}
	return out
}

func (m *gossipModel) entry(o int, now simtime.Time) GossipEntry {
	if o == m.id {
		return m.self
	}
	c, ok := m.cells[o]
	if !ok || m.expired(c.e.Stamp, now) {
		return GossipEntry{}
	}
	return c.e
}

func (m *gossipModel) ageRTT(o int) (simtime.Duration, bool) {
	c, ok := m.cells[o]
	if !ok || !c.haveAge {
		return 0, false
	}
	return 2 * c.ageEst, true
}

func (m *gossipModel) meanRTT() simtime.Duration {
	var sum simtime.Duration
	n := 0
	for _, c := range m.cells {
		if c.haveAge {
			sum += 2 * c.ageEst
			n++
		}
	}
	if n == 0 {
		return 2 * m.cfg.SchedDelay
	}
	return sum / simtime.Duration(n)
}

// collidingOrigins returns, for every index size the test can reach,
// origins whose home is the table's last or second-to-last position, so
// probe runs wrap around the end of the table and backward-shift
// deletion has to move entries across the wrap.
func collidingOrigins(n int) []int {
	var out []int
	for bits := uint(minIndexBits); bits <= 10; bits++ {
		last, found := 1<<bits-1, 0
		for o := 1; o < n && found < 5; o++ {
			if h := homeAt(uint32(o), bits); h == last || (h == last-1 && found >= 3) {
				out = append(out, o)
				found++
			}
		}
	}
	return out
}

// checkIndex verifies the store's structural invariants: every live slot
// is indexed exactly once under its own origin, every index entry is
// reachable from its home without crossing an empty position, and
// reports whether some probe run currently wraps around the table's end.
func checkIndex(t *testing.T, s *cellStore) (wrapped bool) {
	t.Helper()
	entries := 0
	for p, e := range s.index {
		if e == 0 {
			continue
		}
		entries++
		origin, slot := int(uint32(e>>32)-1), int(uint32(e))
		if slot >= s.n || int(s.at(slot).w.Origin) != origin {
			t.Fatalf("index position %d names origin %d at slot %d, which holds %d (n=%d)", p, origin, slot, s.at(slot).w.Origin, s.n)
		}
		h := homeAt(uint32(origin), s.bits)
		for q := h; q != p; q = (q + 1) & (len(s.index) - 1) {
			if s.index[q] == 0 {
				t.Fatalf("origin %d at index position %d is cut off from its home %d by an empty position %d", origin, p, h, q)
			}
		}
		wrapped = wrapped || h > p
	}
	if entries != s.n {
		t.Fatalf("index holds %d entries for %d cells", entries, s.n)
	}
	if s.n > 0 && 2*s.n > len(s.index) {
		t.Fatalf("index of %d positions holds %d cells, more than half full", len(s.index), s.n)
	}
	return wrapped
}

func TestGossipStoreMatchesMapModel(t *testing.T) {
	cases := []struct {
		seed   uint64
		maxAge simtime.Duration
	}{
		{1, 5 * simtime.Second},
		{2, 5 * simtime.Second},
		{3, 2 * simtime.Second},
		{4, -1}, // aging disabled: nothing ever expires or is swept
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed%d-maxage%v", tc.seed, tc.maxAge), func(t *testing.T) {
			runStoreModel(t, tc.seed, tc.maxAge)
		})
	}
}

func runStoreModel(t *testing.T, seed uint64, maxAge simtime.Duration) {
	const (
		n     = 4096
		self  = 7
		steps = 4000
	)
	rng := prng.New(seed)
	eng := sim.New()
	cfg := GossipConfig{WindowLen: 8, MaxAge: maxAge}
	g := NewGossip(cfg, cluster.NewNode(eng, "m", 1), self, n, 11.36e6,
		func(int, netmodel.Message) {}, seed)
	var probe LoadSample
	g.SetProbe(func() LoadSample { return probe })
	m := newGossipModel(g)

	pool := collidingOrigins(n)
	for len(pool) < 300 {
		pool = append(pool, rng.Intn(n))
	}
	// Origins the store must never hold: itself and out-of-range ids.
	bogus := []int{self, -1, -5, n, n + 3}
	readers := append(slices.Clone(pool), bogus...)

	span := maxAge
	if span <= 0 {
		span = 5 * simtime.Second
	}
	now := func() simtime.Time { return eng.Now() }
	stampNear := func(o int) simtime.Time {
		if c, ok := m.cells[o]; ok && rng.Intn(4) == 0 {
			// A duplicate or stale copy of what the store holds.
			return c.e.Stamp - simtime.Time(rng.Intn(2))*simtime.Time(rng.Intn(int(span)))
		}
		if rng.Intn(20) == 0 {
			return now() + simtime.Time(rng.Intn(int(simtime.Millisecond))) // clock skew: negative age
		}
		return now() - simtime.Time(rng.Intn(int(span+span/2)))
	}

	wrapDeletes, peak := 0, 0
	for step := 0; step < steps; step++ {
		wrappedBefore, deletesBefore := checkIndex(t, &g.cells), m.deletes
		switch r := rng.Intn(100); {
		case r < 60:
			ws := make([]gossipEntryWire, 1+rng.Intn(12))
			for i := range ws {
				o := pool[rng.Intn(len(pool))]
				if rng.Intn(25) == 0 {
					o = bogus[rng.Intn(len(bogus))]
				}
				ws[i] = gossipEntryWire{
					Origin: int32(o), Queue: int32(rng.Intn(64)), Hops: int32(rng.Intn(6)),
					Load: rng.Float64() * 8, UsedMemMB: int64(rng.Intn(4096)), Stamp: stampNear(o),
				}
			}
			g.merge(gossipMsg{From: 1, Entries: ws})
			m.merge(ws, now())
		case r < 80:
			d := simtime.Duration(rng.Intn(int(span / 4)))
			if rng.Intn(10) == 0 {
				d = 2 * span
			}
			at := now().Add(d + 1)
			eng.At(at, func() {})
			eng.Run(at)
		case r < 95:
			probe = LoadSample{Load: rng.Float64(), Queue: rng.Intn(9), UsedMemMB: int64(rng.Intn(512))}
			got, want := g.compose(now()), m.compose(now(), probe)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: compose\n got %+v\nwant %+v", step, got, want)
			}
		default:
			g.maybeSweep(now())
			m.sweep(now())
		}
		if wrappedBefore && m.deletes > deletesBefore {
			wrapDeletes++
		}
		peak = max(peak, g.cells.n)
		compareStore(t, step, g, m, readers)
	}
	checkIndex(t, &g.cells)
	if maxAge > 0 && (wrapDeletes == 0 || m.deletes == 0) {
		t.Fatalf("weak drive: %d deletions, %d of them with a wrapped probe run", m.deletes, wrapDeletes)
	}
	if peak < sweepFloor {
		t.Fatalf("weak drive: heard set peaked at %d, below the sweep floor %d", peak, sweepFloor)
	}
}

// compareStore checks every reader of the daemon against the model.
func compareStore(t *testing.T, step int, g *Gossip, m *gossipModel, readers []int) {
	t.Helper()
	now := g.eng.Now()
	if got := g.cells.n; got != len(m.cells) {
		t.Fatalf("step %d: store holds %d cells, model %d", step, got, len(m.cells))
	}
	for _, o := range readers {
		if got, want := g.Entry(o), m.entry(o, now); got != want {
			t.Fatalf("step %d: Entry(%d) = %+v, model %+v", step, o, got, want)
		}
		age, ok := g.EntryAge(o)
		if want := m.entry(o, now); ok != want.Known || (ok && age != now.Sub(want.Stamp)) {
			t.Fatalf("step %d: EntryAge(%d) = %v, %v; model entry %+v", step, o, age, ok, want)
		}
		rtt, ok := g.AgeRTT(o)
		if wantRTT, wantOK := m.ageRTT(o); rtt != wantRTT || ok != wantOK {
			t.Fatalf("step %d: AgeRTT(%d) = %v, %v; model %v, %v", step, o, rtt, ok, wantRTT, wantOK)
		}
	}
	if got, want := g.MeanRTT(), m.meanRTT(); got != want {
		t.Fatalf("step %d: MeanRTT %v, model %v", step, got, want)
	}
	live := 0
	for _, c := range m.cells {
		if !m.expired(c.e.Stamp, now) {
			live++
		}
	}
	if got := g.KnownCount(); got != live {
		t.Fatalf("step %d: KnownCount %d, model %d", step, got, live)
	}
	seen := map[int]bool{}
	g.Fresh(func(o int, e GossipEntry) {
		if seen[o] {
			t.Fatalf("step %d: Fresh visited origin %d twice", step, o)
		}
		seen[o] = true
		if want := m.entry(o, now); e != want || !want.Known {
			t.Fatalf("step %d: Fresh gave origin %d %+v, model %+v", step, o, e, want)
		}
	})
	if len(seen) != live {
		t.Fatalf("step %d: Fresh visited %d origins, model holds %d live", step, len(seen), live)
	}
}
