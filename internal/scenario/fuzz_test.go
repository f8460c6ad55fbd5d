package scenario

import (
	"bytes"
	"reflect"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// FuzzSpecRoundTrip locks the codec's two contracts: malformed input never
// panics (it errors), and any document that decodes round-trips exactly —
// decode→encode→decode is the identity and the encoding is stable. The
// seed corpus is the built-in presets (the switched-fabric ones included)
// plus minimal documents exercising the fabric block and churn kinds.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, spec := range Presets() {
		enc, err := EncodeSpec(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`{"version": 1, "skew": -0.5, "churn": [{"at": "3s", "kind": "burst", "node": 0, "procs": 2}]}`))
	f.Add([]byte(`{"version": 1, "fabric": {"topology": "two-tier", "rack_size": 4, "oversubscription": 2}}`))
	f.Add([]byte(`{"version": 1, "fabric": {"topology": "flat", "gossip_fanout": 3, "gossip_period": "500ms"}}`))
	f.Add([]byte(`{"version": 1, "fabric": {"topology": "star"}, "load_vector_len": 7}`))
	f.Add([]byte(`{"version": 1, "churn": [{"at": "2s", "kind": "balloon", "node": 1, "factor": 8}]}`))
	// Overlapping node tiers must be rejected (slow+fast > 1 would
	// silently truncate the fast tier in buildWorkload).
	f.Add([]byte(`{"version": 1, "slow_frac": 0.7, "fast_frac": 0.7}`))
	// The failure plane: crash/recover/link churn (negative node selects a
	// rack uplink) and the evacuate knob, which requires a node-crash.
	f.Add([]byte(`{"version": 1, "fabric": {"topology": "two-tier", "rack_size": 4}, "evacuate": true, "churn": [{"at": "2s", "kind": "node-crash", "node": 1}, {"at": "4s", "kind": "node-recover", "node": 1}]}`))
	f.Add([]byte(`{"version": 1, "fabric": {"topology": "two-tier", "rack_size": 4}, "churn": [{"at": "3s", "kind": "link-down", "node": -1}, {"at": "5s", "kind": "link-up", "node": -1}]}`))
	f.Add([]byte(`{"version": 1, "fabric": {"topology": "flat"}, "churn": [{"at": "1s", "kind": "link-down", "node": 2}, {"at": "2s", "kind": "link-up", "node": 2}]}`))
	// Evacuate without a crash, and failure churn on the star, must reject.
	f.Add([]byte(`{"version": 1, "evacuate": true}`))
	f.Add([]byte(`{"version": 1, "churn": [{"at": "2s", "kind": "node-crash", "node": 1}]}`))
	// A negative network profile and a net-load node below -1 must reject.
	f.Add([]byte(`{"version": 1, "network": {"latency_one_way": "-1ms", "bandwidth_bps": -1000}}`))
	f.Add([]byte(`{"version": 1, "network": {"latency_one_way": "2ms", "bandwidth_bps": -1}}`))
	f.Add([]byte(`{"version": 1, "churn": [{"at": "1s", "kind": "net-load", "node": -7, "factor": 0.5}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s1, err := DecodeSpec(data)
		if err != nil {
			return // rejected, never panicking, is the contract for garbage
		}
		enc1, err := EncodeSpec(s1)
		if err != nil {
			t.Fatalf("decoded spec failed to encode: %v\nspec: %+v", err, s1)
		}
		s2, err := DecodeSpec(enc1)
		if err != nil {
			t.Fatalf("encoded spec failed to decode: %v\n%s", err, enc1)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("round trip changed the spec:\nfirst  %+v\nsecond %+v", s1, s2)
		}
		enc2, err := EncodeSpec(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding unstable:\n%s\n---\n%s", enc1, enc2)
		}
	})
}

// shardFuzzSpec decodes fuzz bytes into a small, valid two-tier spec and a
// seed: 2–5 racks of 2–5 nodes (the last rack sometimes ragged), random
// tiers, mixes, arrivals and policy subset, and churn on a coarse grid of
// instants so events often coincide. Every crash and link-down is paired
// with a later repair, and the horizon outlasts the slowest possible run
// (every process on one slow-tier node slowed five more times), so every
// process can finish; a byte read past the end is zero, so every input
// decodes.
func shardFuzzSpec(data []byte) (Spec, uint64) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	racks, rackSize := 2+next(4), 2+next(4)
	nodes := (racks-1)*rackSize + 1 + next(rackSize)
	var pols []string
	mask := next(256)
	for i, name := range sched.Names() {
		if mask>>i&1 == 1 {
			pols = append(pols, name)
		}
	}
	s := Spec{
		Name:            "shard-fuzz",
		Nodes:           nodes,
		Procs:           nodes * (1 + next(4)),
		SlowFrac:        0.125 * float64(next(3)),
		FastFrac:        0.125 * float64(next(3)),
		Skew:            0.3 + 0.1*float64(next(7)),
		MeanCompute:     simtime.Duration(1+next(3)) * simtime.Second,
		MeanFootprintMB: int64(16 + next(64)),
		Policies:        pols,
		Fabric:          FabricSpec{Topology: fabric.KindTwoTier, RackSize: rackSize},
		MaxSimTime:      2 * 60 * simtime.Minute,
	}
	if next(2) == 1 {
		s.Arrival = ArrivalPoisson
		s.MeanInterarrival = 100 * simtime.Millisecond
	}
	for _, k := range []MixKind{MixSequential, MixBlocked, MixRandom, MixSmallWS} {
		if w := next(3); w > 0 {
			s.Mix = append(s.Mix, MixWeight{Kind: k, Weight: w})
		}
	}
	at := func() simtime.Duration { return simtime.Duration(1+next(4)) * simtime.Second }
	crash := false
	for n := next(6); n > 0; n-- {
		t := at()
		switch next(6) {
		case 0:
			s.Churn = append(s.Churn, ChurnEvent{At: t, Kind: ChurnSlowNode, Node: next(nodes), Factor: 0.75})
		case 1:
			s.Churn = append(s.Churn, ChurnEvent{At: t, Kind: ChurnNetLoad, Node: next(nodes+1) - 1, Factor: 0.4})
		case 2:
			s.Churn = append(s.Churn, ChurnEvent{At: t, Kind: ChurnBalloon, Node: next(nodes), Factor: 1.5})
		case 3:
			s.Churn = append(s.Churn, ChurnEvent{At: t, Kind: ChurnBurst, Node: next(nodes), Procs: 1 + next(4)})
		case 4:
			v := next(nodes)
			s.Churn = append(s.Churn,
				ChurnEvent{At: t, Kind: ChurnNodeCrash, Node: v},
				ChurnEvent{At: t + at(), Kind: ChurnNodeRecover, Node: v})
			crash = true
		case 5:
			// Selectors past the last node name rack uplinks.
			sel := next(nodes + racks)
			if sel >= nodes {
				sel = nodes - 1 - sel
			}
			s.Churn = append(s.Churn,
				ChurnEvent{At: t, Kind: ChurnLinkDown, Node: sel},
				ChurnEvent{At: t + at(), Kind: ChurnLinkUp, Node: sel})
		}
	}
	s.Evacuate = crash && next(2) == 1
	seed := uint64(next(256))<<8 | uint64(next(256))
	return s.Canonical(), seed + 1
}

// FuzzShardIdentity sweeps random small two-tier specs, failure churn
// included, and requires every shard count in {1, 2, racks} to render a
// JSON report byte-identical to the sequential run's, with the shard
// worker pool forced on, and no process left unfinished.
func FuzzShardIdentity(f *testing.F) {
	f.Add([]byte{})
	// 10 nodes in racks of 4 (the last holds 2), every policy: at 2 s an
	// evacuating crash of node 1, rack 0's uplink going down and a burst
	// onto the crashed node, all coincident.
	f.Add([]byte{1, 2, 1, 0, 1, 1, 1, 4, 1, 40, 0, 1, 1, 1, 0, 3, 1, 4, 1, 1, 1, 5, 10, 0, 1, 3, 1, 2, 1, 0, 7})
	// 5 racks of 5, AMPoM and queue-gossip, Poisson arrivals: two
	// kill-in-place crashes and an edge-link flap at 1 s, a balloon on a
	// crashed node and, at 2 s, a burst onto the first as it recovers.
	f.Add([]byte{3, 3, 4, 0x21, 3, 2, 0, 6, 0, 63, 1, 2, 0, 2, 1, 5, 0, 4, 7, 0, 0, 4, 8, 2, 0, 5, 9, 1, 1, 3, 7, 3, 0, 2, 8, 0, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, seed := shardFuzzSpec(data)
		if err := spec.Validate(); err != nil {
			t.Fatalf("generator built an invalid spec: %v\n%+v", err, spec)
		}
		racks := (spec.Nodes + spec.Fabric.RackSize - 1) / spec.Fabric.RackSize
		withShardWorkers(t, func() {
			seq, err := Run(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range seq.Schemes {
				if st.Unfinished != 0 {
					t.Fatalf("%s left %d processes unfinished (seed %d)\n%+v", st.Policy, st.Unfinished, seed, spec)
				}
			}
			want, err := seq.JSON()
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, racks} {
				rep, err := RunShards(spec, seed, shards)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rep.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("shards=%d: JSON report diverged from sequential (seed %d)\n%+v", shards, seed, spec)
				}
			}
		})
	})
}
