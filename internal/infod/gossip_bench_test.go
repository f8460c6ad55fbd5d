package infod

import (
	"testing"

	"ampom/internal/cluster"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// Gossip-layer microbenchmarks: one daemon of a 512-node cluster, its
// store pre-filled to about 500 heard origins (the heard-set size a
// rack-farm daemon settles at), timed on the three store walks the
// balancer hot path runs — merging a received window, composing an
// outgoing one, and visiting every live entry for a gossip view.

const (
	benchNodes  = 512
	benchHeard  = 500
	benchWindow = DefaultWindowLen
)

// benchDaemon returns a daemon (node 0) whose clock stands at 20 s and
// whose store holds benchHeard live origins, plus a window-sized message
// whose origins walk the heard set and whose stamps the caller advances.
func benchDaemon(b *testing.B) (*Gossip, gossipMsg, func(k int)) {
	b.Helper()
	eng := sim.New()
	now := simtime.Time(20 * simtime.Second)
	eng.At(now, func() {})
	eng.Run(now)
	g := NewGossip(GossipConfig{}, cluster.NewNode(eng, "b", 1), 0, benchNodes, 11.36e6,
		func(int, netmodel.Message) {}, 1)
	g.SetProbe(func() LoadSample { return LoadSample{Load: 1, Queue: 1, UsedMemMB: 64} })
	msg := gossipMsg{From: 1, Entries: make([]gossipEntryWire, benchWindow)}
	stamp := now.Add(-10 * simtime.Second)
	// refill rewrites the window in place for round k: the next benchWindow
	// origins of the heard set, each with a stamp newer than any before.
	refill := func(k int) {
		for j := range msg.Entries {
			stamp++
			o := 1 + (k*benchWindow+j)%benchHeard
			msg.Entries[j] = benchWire(o, stamp, LoadSample{Load: float64(o), Queue: o, UsedMemMB: int64(o)})
		}
	}
	for k := 0; k*benchWindow < 2*benchHeard; k++ {
		refill(k)
		g.merge(msg)
	}
	if got := g.KnownCount(); got != benchHeard {
		b.Fatalf("pre-filled store holds %d origins, want %d", got, benchHeard)
	}
	return g, msg, refill
}

// BenchmarkGossipMerge times one accepted window merge; the in-place
// window refill (a few ns per entry) is inside the timed loop.
func BenchmarkGossipMerge(b *testing.B) {
	g, msg, refill := benchDaemon(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refill(i)
		g.merge(msg)
	}
}

func BenchmarkGossipCompose(b *testing.B) {
	g, _, _ := benchDaemon(b)
	now := g.eng.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := g.compose(now); len(out) != benchWindow {
			b.Fatalf("composed %d entries, want %d", len(out), benchWindow)
		}
	}
}

func BenchmarkGossipFresh(b *testing.B) {
	g, _, _ := benchDaemon(b)
	b.ReportAllocs()
	b.ResetTimer()
	var load float64
	for i := 0; i < b.N; i++ {
		g.Fresh(func(o int, e GossipEntry) { load += e.Sample.Load })
	}
	if load <= 0 {
		b.Fatal("Fresh visited nothing")
	}
}

// benchWire builds one wire entry as a peer's compose would.
func benchWire(origin int, stamp simtime.Time, s LoadSample) gossipEntryWire {
	return gossipEntryWire{Origin: int32(origin), Queue: int32(s.Queue), Load: s.Load, UsedMemMB: s.UsedMemMB, Stamp: stamp}
}
