package scenario

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/prng"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// resident reports whether p occupies a node: arrived and unfinished,
// whether running, suspended or frozen (a frozen migrant belongs to its
// destination).
func resident(p *proc) bool { return p.state != statePending && p.state != stateDone }

// rebuildAggregates recomputes the live view's state from procState alone,
// the way the pre-incremental runner scanned every process: resident
// memory, the runnable candidate ids and the resident ids per node.
func rebuildAggregates(c *clusterSim) (mem []int64, lists, residents [][]int) {
	n := c.spec.Nodes
	mem = make([]int64, n)
	lists = make([][]int, n)
	residents = make([][]int, n)
	for _, p := range c.procs {
		if !resident(p) {
			continue
		}
		mem[p.node] += p.footprintMB
		residents[p.node] = append(residents[p.node], p.t.id)
		if p.state == stateRunning {
			lists[p.node] = append(lists[p.node], p.t.id)
		}
	}
	return mem, lists, residents
}

// rebuildRows recomputes the NodeView rows and the descending-load source
// order (stable, so ascending index on ties) from scratch — the reference
// the incrementally maintained rows and order are checked against.
func rebuildRows(c *clusterSim) ([]sched.NodeView, []int) {
	n := c.spec.Nodes
	rows := make([]sched.NodeView, n)
	for i := range rows {
		rows[i].CPUScale = c.nodes[i].CPUScale
		rows[i].CapacityMB = c.spec.NodeMemMB
	}
	for _, p := range c.procs {
		if resident(p) {
			rows[p.node].Procs++
			rows[p.node].UsedMemMB += p.footprintMB
		}
	}
	for i := range rows {
		rows[i].Load = float64(rows[i].Procs) / rows[i].CPUScale
		rows[i].QueueLen = rows[i].Procs
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return rows[order[a]].Load > rows[order[b]].Load
	})
	return rows, order
}

// verifyAggregates asserts the live memory totals, candidate lists and
// resident lists equal a full recompute at the current instant.
func verifyAggregates(t *testing.T, c *clusterSim, when string) {
	t.Helper()
	mem, lists, residents := rebuildAggregates(c)
	for i := 0; i < c.spec.Nodes; i++ {
		if c.lv.mem[i] != mem[i] {
			t.Fatalf("%s: node %d resident memory %d, rebuild %d", when, i, c.lv.mem[i], mem[i])
		}
		ids := make([]int, 0, len(c.lv.runnableOn[i]))
		for _, p := range c.lv.runnableOn[i] {
			ids = append(ids, p.t.id)
		}
		if !(len(ids) == 0 && len(lists[i]) == 0) && !reflect.DeepEqual(ids, lists[i]) {
			t.Fatalf("%s: node %d candidate list %v, rebuild %v", when, i, ids, lists[i])
		}
		res := make([]int, 0, len(c.lv.liveOn[i]))
		for _, p := range c.lv.liveOn[i] {
			res = append(res, p.t.id)
		}
		if !(len(res) == 0 && len(residents[i]) == 0) && !reflect.DeepEqual(res, residents[i]) {
			t.Fatalf("%s: node %d resident list %v, rebuild %v", when, i, res, residents[i])
		}
	}
}

// verifyDerived asserts the refreshed rows and source order equal a full
// rebuild + stable sort at the current instant.
func verifyDerived(t *testing.T, c *clusterSim, when string) {
	t.Helper()
	c.lv.refresh()
	rows, order := rebuildRows(c)
	for i := range rows {
		if c.lv.rows[i] != rows[i] {
			t.Fatalf("%s: node %d row %+v, rebuild %+v", when, i, c.lv.rows[i], rows[i])
		}
	}
	if !reflect.DeepEqual(c.lv.order, order) {
		t.Fatalf("%s: source order %v, rebuild %v", when, c.lv.order, order)
	}
}

// churnSpec builds a randomised scenario with every churn kind, drawn from
// one seed: mixed arrival models, CPU tiers, balloon growth, bursts,
// slowdowns and background-load shifts, on a random topology. Switched
// topologies also get the failure plane: a node crash paired with its
// recovery and a link down/up pair (a rack uplink or an edge link on the
// two-tier fabric, an edge link on the flat one), with Evacuate drawn at
// random. Every failure is repaired, so every process can finish.
func churnSpec(seed uint64) Spec {
	rng := prng.New(seed)
	topos := []fabric.Kind{fabric.KindStar, fabric.KindTwoTier, fabric.KindFlat}
	nodes := 4 + rng.Intn(8)
	s := Spec{
		Name:            "liveview-churn",
		Nodes:           nodes,
		Procs:           nodes * (2 + rng.Intn(4)),
		SlowFrac:        0.25,
		FastFrac:        0.25,
		Skew:            0.5 + 0.4*rng.Float64(),
		MeanCompute:     simtime.Duration(2+rng.Intn(3)) * simtime.Second,
		MeanFootprintMB: int64(24 + rng.Intn(64)),
		Fabric:          FabricSpec{Topology: topos[rng.Intn(len(topos))], RackSize: 4},
		Churn: []ChurnEvent{
			{At: simtime.Duration(1+rng.Intn(3)) * simtime.Second, Kind: ChurnSlowNode, Node: 1, Factor: 0.5},
			{At: simtime.Duration(2+rng.Intn(3)) * simtime.Second, Kind: ChurnBalloon, Node: rng.Intn(nodes), Factor: 1.5 + rng.Float64()},
			{At: simtime.Duration(3+rng.Intn(3)) * simtime.Second, Kind: ChurnBurst, Node: rng.Intn(nodes), Procs: 2 + rng.Intn(6)},
			{At: simtime.Duration(4+rng.Intn(3)) * simtime.Second, Kind: ChurnNetLoad, Node: -1, Factor: 0.4},
			{At: simtime.Duration(5+rng.Intn(3)) * simtime.Second, Kind: ChurnBalloon, Node: rng.Intn(nodes), Factor: 2},
		},
	}
	if rng.Intn(2) == 0 {
		s.Arrival = ArrivalPoisson
		s.MeanInterarrival = 100 * simtime.Millisecond
	}
	if s.Fabric.Topology != fabric.KindStar {
		crashAt := simtime.Duration(1+rng.Intn(4)) * simtime.Second
		crashed := rng.Intn(nodes)
		link := rng.Intn(nodes)
		if racks := (nodes + 3) / 4; s.Fabric.Topology == fabric.KindTwoTier && rng.Intn(2) == 0 {
			link = -1 - rng.Intn(racks)
		}
		downAt := simtime.Duration(1+rng.Intn(5)) * simtime.Second
		s.Churn = append(s.Churn,
			ChurnEvent{At: crashAt, Kind: ChurnNodeCrash, Node: crashed},
			ChurnEvent{At: crashAt + simtime.Duration(1+rng.Intn(4))*simtime.Second, Kind: ChurnNodeRecover, Node: crashed},
			ChurnEvent{At: downAt, Kind: ChurnLinkDown, Node: link},
			ChurnEvent{At: downAt + simtime.Duration(1+rng.Intn(3))*simtime.Second, Kind: ChurnLinkUp, Node: link},
		)
		s.Evacuate = rng.Intn(2) == 0
	}
	return s.Canonical()
}

// TestLiveViewMatchesRebuild is the live view's central property: across
// random churn/balloon/migration/failure sequences, every balance round's
// incrementally maintained view — memory totals, candidate and resident
// lists, derived rows and source order — is identical to a from-scratch
// rebuild from procState, under every registered policy and every
// topology.
func TestLiveViewMatchesRebuild(t *testing.T) {
	var crashes, evacuations, failBacks int
	for seed := uint64(1); seed <= 6; seed++ {
		spec := churnSpec(seed)
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: invalid spec: %v", seed, err)
		}
		scales, tmpl := buildWorkload(spec, seed)
		pols, err := sched.ByNames(spec.Policies)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range pols {
			c := newClusterSim(spec, scales, tmpl, pol, seed)
			rounds := 0
			c.checkView = func(base sched.View) {
				rounds++
				verifyAggregates(t, c, spec.Fabric.Topology.String()+"/"+pol.Name())
				verifyDerived(t, c, spec.Fabric.Topology.String()+"/"+pol.Name())
				// The handed view must be a faithful copy of the canonical rows.
				for i := range base.Nodes {
					if base.Nodes[i] != c.lv.rows[i] {
						t.Fatalf("%s: handed row %d %+v diverges from canonical %+v",
							pol.Name(), i, base.Nodes[i], c.lv.rows[i])
					}
				}
			}
			st := c.run()
			if pol.Name() != sched.BaselineName && rounds == 0 {
				t.Fatalf("seed %d: %s ran no balance rounds — the property was never checked", seed, pol.Name())
			}
			if st.Unfinished != 0 {
				t.Fatalf("seed %d: %s left %d processes unfinished", seed, pol.Name(), st.Unfinished)
			}
			crashes += st.Crashes
			evacuations += st.Evacuations
			failBacks += st.FailBacks
		}
	}
	if crashes == 0 || evacuations == 0 || failBacks == 0 {
		t.Fatalf("sweep never reached the failure plane: %d crashes, %d evacuations, %d fail-backs",
			crashes, evacuations, failBacks)
	}
}

// TestLiveViewMatchesRebuildBetweenEvents steps one scenario through
// virtual time in quantum-sized slices and re-verifies the aggregates
// after every slice — catching any transition (arrival, completion,
// freeze, resume, balloon, crash, evacuation, recovery) that left the
// lists stale between balance rounds, which the round-grained property
// test could miss. Seed 3 draws a flat fabric with an evacuating crash.
func TestLiveViewMatchesRebuildBetweenEvents(t *testing.T) {
	spec := churnSpec(3)
	scales, tmpl := buildWorkload(spec, 3)
	pol, _ := sched.Lookup(sched.NameAMPoM)
	c := newClusterSim(spec, scales, tmpl, pol, 3)
	step := spec.Quantum
	for at := simtime.Time(0); at < simtime.Time(spec.MaxSimTime); at = at.Add(step) {
		c.eng.Run(at)
		verifyAggregates(t, c, at.String())
		verifyDerived(t, c, at.String())
		if c.doneN == len(c.procs) {
			if c.st.Crashes == 0 || c.st.Evacuations == 0 {
				t.Fatalf("scenario never crashed or evacuated a node (%d crashes, %d evacuations)",
					c.st.Crashes, c.st.Evacuations)
			}
			return
		}
	}
	t.Fatal("scenario never completed inside the horizon")
}

// retainingPolicy wilfully breaks the sched.BalancerPolicy view contract:
// it keeps the Nodes slice it was handed and scribbles over every row it
// retained before delegating the next decision. The driver's
// copy-on-hand-off must confine the damage to the round the scribble
// happened in.
type retainingPolicy struct {
	inner    sched.BalancerPolicy
	retained []sched.NodeView
}

func (r *retainingPolicy) Name() string { return r.inner.Name() }

func (r *retainingPolicy) MigrationCost(footprintMB int64, wsFrac, bandwidthBps float64) (simtime.Duration, simtime.Duration) {
	return r.inner.MigrationCost(footprintMB, wsFrac, bandwidthBps)
}

func (r *retainingPolicy) ShouldMigrate(v sched.View, p sched.ProcView) (int, bool) {
	if r.retained != nil {
		for i := range r.retained {
			r.retained[i] = sched.NodeView{Procs: 1 << 20, Load: math.Inf(1), UsedMemMB: 1 << 40}
		}
	}
	r.retained = v.Nodes
	return r.inner.ShouldMigrate(v, p)
}

// TestRetainingPolicyCannotCorruptNextRound locks the hand-off contract's
// enforcement: every balance round re-derives the rows a policy sees, so a
// policy that retains and corrupts a previous round's slice never poisons
// a later round's view. checkView (which verifies the handed rows against
// a from-scratch rebuild every round) is the invariant check; it runs
// against both hand-off paths — the star's ground-truth copy and the
// switched fabrics' per-source gossip rewrite.
func TestRetainingPolicyCannotCorruptNextRound(t *testing.T) {
	for _, topo := range []fabric.Kind{fabric.KindStar, fabric.KindTwoTier} {
		spec := Spec{
			Name:            "retainer",
			Nodes:           8,
			Procs:           32,
			Skew:            0.7,
			MeanCompute:     2 * simtime.Second,
			MeanFootprintMB: 32,
			Fabric:          FabricSpec{Topology: topo, RackSize: 4},
		}.Canonical()
		scales, tmpl := buildWorkload(spec, 7)
		evil := &retainingPolicy{inner: sched.AMPoMPolicy}
		c := newClusterSim(spec, scales, tmpl, evil, 7)
		rounds := 0
		c.checkView = func(base sched.View) {
			rounds++
			// The previous round's scribble must not have leaked into this
			// round's hand-off.
			rows, _ := rebuildRows(c)
			for i := range base.Nodes {
				if base.Nodes[i] != rows[i] {
					t.Fatalf("%v round %d: handed row %d %+v poisoned (want %+v)",
						topo, rounds, i, base.Nodes[i], rows[i])
				}
			}
		}
		c.run()
		if rounds < 2 {
			t.Fatalf("%v: only %d balance rounds — retention was never exercised", topo, rounds)
		}
	}
}

// TestGossipViewIncrementalProbes locks the gossip view under the
// incremental probe path: rows for origins gossip has not reached are
// Unknown with an infinite load, known rows carry the origin's probed
// aggregates (which now read the live counters) with InfoAge equal to the
// entry's staleness, and the source's own row stays exact.
func TestGossipViewIncrementalProbes(t *testing.T) {
	spec := Spec{
		Name:            "gossip-view",
		Nodes:           12,
		Procs:           48,
		Skew:            0.7,
		MeanCompute:     4 * simtime.Second,
		MeanFootprintMB: 32,
		Fabric:          FabricSpec{Topology: fabric.KindFlat},
	}.Canonical()
	scales, tmpl := buildWorkload(spec, 11)
	pol, _ := sched.Lookup(sched.NameQueueGossip)
	c := newClusterSim(spec, scales, tmpl, pol, 11)

	// Before any gossip lands every non-source row is Unknown.
	c.eng.Run(simtime.Time(10 * simtime.Millisecond))
	const src = 2
	base := c.view()
	v := c.gossipView(src, base)
	if &v.Nodes[0] == &base.Nodes[0] {
		t.Fatal("gossip view aliases the ground-truth hand-off buffer")
	}
	if v.Nodes[src] != base.Nodes[src] {
		t.Fatalf("source row %+v diverges from ground truth %+v", v.Nodes[src], base.Nodes[src])
	}
	for i := range v.Nodes {
		if i == src {
			continue
		}
		if !v.Nodes[i].Unknown || !math.IsInf(v.Nodes[i].Load, 1) {
			t.Fatalf("pre-gossip row %d not Unknown/+Inf: %+v", i, v.Nodes[i])
		}
	}

	// After several gossip periods the rows fill in from the probes.
	c.eng.Run(simtime.Time(5 * spec.Fabric.GossipPeriod))
	base = c.view()
	v = c.gossipView(src, base)
	g := c.ic.Gossip(src)
	now := c.eng.Now()
	known := 0
	for i := range v.Nodes {
		if i == src || v.Nodes[i].Unknown {
			continue
		}
		known++
		e := g.Entry(i)
		if !e.Known {
			t.Fatalf("row %d known in the view but not in the daemon", i)
		}
		if v.Nodes[i].Procs != e.Sample.Queue || v.Nodes[i].UsedMemMB != e.Sample.UsedMemMB ||
			v.Nodes[i].Load != e.Sample.Load || v.Nodes[i].QueueLen != e.Sample.Queue {
			t.Fatalf("row %d %+v does not carry the daemon entry %+v", i, v.Nodes[i], e.Sample)
		}
		if want := now.Sub(e.Stamp); v.Nodes[i].InfoAge != want {
			t.Fatalf("row %d InfoAge %v, want staleness %v", i, v.Nodes[i].InfoAge, want)
		}
		if v.Nodes[i].InfoAge <= 0 {
			t.Fatalf("row %d InfoAge %v not positive — stamps are not aging", i, v.Nodes[i].InfoAge)
		}
	}
	if known == 0 {
		t.Fatal("no rows known after five gossip periods")
	}

	// The probes behind those entries read the live aggregates: pushing a
	// fresh probe for the source must match a from-scratch recompute.
	sample := c.probeFor(src)()
	wantQ, wantMem := 0, int64(0)
	for _, p := range c.procs {
		if resident(p) && p.node == src {
			wantQ++
			wantMem += p.footprintMB
		}
	}
	if sample.Queue != wantQ || sample.UsedMemMB != wantMem {
		t.Fatalf("probe %+v, rebuild queue %d mem %d", sample, wantQ, wantMem)
	}
}
