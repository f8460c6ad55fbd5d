package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"ampom/internal/campaign"
	"ampom/internal/core"
	"ampom/internal/harness"
	"ampom/internal/hpcc"
	"ampom/internal/migrate"
	"ampom/internal/scenario"
	"ampom/internal/sched"
)

// defaultSeed is the seed the simulator substitutes for 0 and the one the
// reference digests were taken at.
const defaultSeed = 42

// options size a workload. The zero sizes are the benchmark's; the tests
// shrink them.
type options struct {
	seed uint64
	// scale divides every Table 1 footprint of paper-matrix.
	scale int64
	// nodes and procs, when set, shrink a scenario preset.
	nodes, procs int
}

// full reports whether o runs the workload at the size its reference
// digests were taken at.
func (o options) full() bool { return o.scale == 0 && o.nodes == 0 && o.procs == 0 }

// workload is one named benchmark input. prepare is the set-up: it builds
// and canonicalises the preset or enumerates the jobs, and makes no call
// into the simulator.
type workload struct {
	name    string
	prepare func(o options) (runner, error)
}

// runner executes one repetition of a prepared workload. tr is nil on
// untraced repetitions.
type runner interface {
	run(tr *tracer) outcome
}

// outcome is what one repetition produced and how it was checked.
type outcome struct {
	ops, failed int
	// problems describes each failed check.
	problems []string
	// rows digests each checked output, keyed as referenceDigests is;
	// digest covers every output, so repetitions can be compared.
	rows   map[string]string
	digest string
	// events and simSeconds total the engine events and simulated time
	// over every policy run or job.
	events     uint64
	simSeconds float64
	// counts are model outputs reported as per-layer metrics.
	counts map[string]float64
	// busy totals the shard workers' busy time; shards is the shard count.
	busy   time.Duration
	shards int
}

// fail records one failed check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
	if o.failed < o.ops {
		o.failed++
	}
}

var workloads = []workload{
	{name: "paper-matrix", prepare: prepareMatrix},
	{name: "rack-farm-failures", prepare: func(o options) (runner, error) {
		return prepareScenario("rack-farm-failures", "rack-farm-failures", nil, 1, o)
	}},
	{name: "mega-farm-sharded", prepare: func(o options) (runner, error) {
		trio := []string{sched.NameNoMigration, sched.NameAMPoM, sched.NameQueueGossip}
		return prepareScenario("mega-farm-sharded", "mega-farm", trio, 2, o)
	}},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// references returns the reference digests that apply to a run, or nil
// when the run is off the default seed or shrunk.
func references(workload string, o options) map[string]string {
	if o.seed != defaultSeed || !o.full() {
		return nil
	}
	return referenceDigests[workload]
}

// --- paper-matrix -----------------------------------------------------

// matrixScale is the Table 1 divisor of paper-matrix.
const matrixScale = 4

// matrixWorkers is the campaign pool size of paper-matrix, fixed so the
// workload is the same on every host.
const matrixWorkers = 2

type matrixRunner struct {
	cfg  harness.Config
	jobs []campaign.Job
	// ref is the reference digest of the rendered tables, or "".
	ref string
	// last holds the previous repetition's results, for the serial pass
	// to compare against.
	last []*migrate.Result
}

func prepareMatrix(o options) (runner, error) {
	scale := o.scale
	if scale == 0 {
		scale = matrixScale
	}
	cfg := harness.Config{Scale: scale, Seed: o.seed, Workers: matrixWorkers}
	return &matrixRunner{
		cfg:  cfg,
		jobs: harness.NewMatrix(cfg).CampaignJobs(),
		ref:  references("paper-matrix", o)[tablesDigest],
	}, nil
}

// tablesDigest keys the matrix's one reference digest.
const tablesDigest = "tables"

// renderTables renders every figure and ablation table of a prewarmed
// matrix, in paper order.
func renderTables(m *harness.Matrix) []byte {
	var b strings.Builder
	for _, t := range append(m.AllFigures(), m.AllAblations()...) {
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	return []byte(b.String())
}

func (r *matrixRunner) run(tr *tracer) outcome {
	o := outcome{ops: len(r.jobs)}
	m := harness.NewMatrix(r.cfg)
	id := tr.begin("prewarm_s", -1)
	err := m.Prewarm()
	tr.end(id)
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
	// After a clean prewarm every Run is a cache hit; a failed job runs
	// again and fails again.
	results := make([]*migrate.Result, len(r.jobs))
	for i, j := range r.jobs {
		res, err := m.Engine().Run(j)
		switch {
		case err != nil:
			o.fail("%v: %v", j, err)
		case !movedMemory(j, res):
			o.fail("%v: no pages arrived", j)
		default:
			results[i] = res
		}
	}
	if o.failed > 0 {
		return o
	}
	r.last = results

	id = tr.begin("render_s", -1)
	tables := renderTables(m)
	tr.end(id)
	id = tr.begin("encode_s", -1)
	o.digest = sha256Hex(tables)
	tr.end(id)
	o.rows = map[string]string{tablesDigest: o.digest}
	if r.ref != "" && o.digest != r.ref {
		o.fail("rendered tables digest %s, want %s", o.digest, r.ref)
	}
	o.counts = matrixCounts(r.jobs, results)
	for _, res := range results {
		o.events += res.Events
		o.simSeconds += res.Total.Seconds()
	}
	return o
}

// matrixCounts derives the matrix's per-layer model outputs.
func matrixCounts(jobs []campaign.Job, results []*migrate.Result) map[string]float64 {
	c := map[string]float64{"campaign.jobs": float64(len(jobs))}
	noPrefetch := map[string]int64{}
	for i, j := range jobs {
		if j.Scheme == migrate.NoPrefetch {
			noPrefetch[cellKey(j)] = results[i].HardFaults
		}
	}
	var ampom, base int64
	for i, j := range jobs {
		res := results[i]
		c["sim.events"] += float64(res.Events)
		c["migrate.hard_faults"] += float64(res.HardFaults)
		c["migrate.prefetch_pages"] += float64(res.PrefetchPages)
		c["migrate.pages_arrived"] += float64(res.PagesArrived)
		if nf, ok := noPrefetch[cellKey(j)]; ok && j.Scheme == migrate.AMPoM && isDefaultAMPoM(j) {
			ampom += res.HardFaults
			base += nf
		}
	}
	if base > 0 {
		c["core.prefetch_coverage"] = 1 - float64(ampom)/float64(base)
	}
	return c
}

// cellKey identifies the workload and network of a job, the pair an
// AMPoM run and its NoPrefetch baseline share.
func cellKey(j campaign.Job) string {
	return j.WorkloadFingerprint() + "|" + j.Network.Name
}

func isDefaultAMPoM(j campaign.Job) bool {
	return j.AMPoM.Canonical() == core.DefaultConfig()
}

// serial replays every job of the matrix one after another through
// hpcc.Build and migrate.Run with the seed the campaign engine derives
// for it, timing each call, and checks each result against the one the
// campaign pool produced.
func (r *matrixRunner) serial(tr *tracer) outcome {
	o := outcome{ops: len(r.jobs)}
	eng := harness.NewMatrix(r.cfg).Engine()
	root := tr.begin("serial_s", -1)
	defer tr.end(root)
	for i, j := range r.jobs {
		seed := eng.SeedFor(j)
		id := tr.begin("hpcc_build_s", root)
		var (
			w   *hpcc.Workload
			err error
		)
		if j.AllocMB > 0 {
			w, err = hpcc.BuildWorkingSet(j.AllocMB, j.MemoryMB, seed)
		} else {
			w, err = hpcc.Build(hpcc.Entry{Kernel: j.Kernel, ProblemSize: j.MemoryMB, MemoryMB: j.MemoryMB}, seed)
		}
		tr.end(id)
		if err != nil {
			o.fail("%v: %v", j, err)
			continue
		}
		cfg := migrate.RunConfig{
			Workload:       w,
			Scheme:         j.Scheme,
			Network:        j.Network,
			Seed:           seed,
			BackgroundLoad: j.BackgroundLoad,
		}
		if j.Scheme == migrate.AMPoM {
			cfg.AMPoM = j.AMPoM.Canonical()
		}
		id = tr.begin("migrate_run_s."+j.Scheme.String(), root)
		res, err := migrate.Run(cfg)
		tr.end(id)
		switch {
		case err != nil:
			o.fail("%v: %v", j, err)
		case !movedMemory(j, res):
			o.fail("%v: no pages arrived", j)
		case r.last != nil && !sameResult(res, r.last[i]):
			o.fail("%v: serial run differs from the campaign pool's", j)
		}
	}
	return o
}

// movedMemory checks that a job's pages reached the destination: through
// the pager for the demand-paging schemes, and in the freeze-time bulk
// copy for openMosix and Precopy, which have no pager.
func movedMemory(j campaign.Job, res *migrate.Result) bool {
	if j.Scheme == migrate.OpenMosix || j.Scheme == migrate.Precopy {
		return res.BytesToDest > 0
	}
	return res.PagesArrived > 0
}

// sameResult compares every simulated output of two runs of one job.
func sameResult(a, b *migrate.Result) bool {
	return b != nil && *a == *b
}

// --- scenarios --------------------------------------------------------

type scenarioRunner struct {
	spec   scenario.Spec
	seed   uint64
	shards int
	// refs maps each policy to its reference report-row digest, or nil.
	refs map[string]string
}

// prepareScenario builds and canonicalises a preset, optionally trimmed to
// a policy set and shrunk, to run under the given shard count.
func prepareScenario(workload, preset string, policies []string, shards int, o options) (runner, error) {
	spec, err := scenario.Preset(preset)
	if err != nil {
		return nil, err
	}
	if policies != nil {
		spec.Policies = policies
	}
	if o.nodes > 0 {
		spec.Nodes = o.nodes
	}
	if o.procs > 0 {
		spec.Procs = o.procs
	}
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &scenarioRunner{spec: spec, seed: o.seed, shards: shards, refs: references(workload, o)}, nil
}

func (r *scenarioRunner) run(tr *tracer) outcome {
	o := outcome{ops: len(r.spec.Policies), shards: r.shards}
	var hook func(scenario.PolicyProgress)
	if tr != nil {
		last := time.Now()
		hook = func(p scenario.PolicyProgress) {
			now := time.Now()
			tr.add("policy_s."+p.Policy, last, now)
			last = now
		}
	}
	rep, err := scenario.RunShardsHook(r.spec, r.seed, r.shards, hook)
	if err != nil {
		o.failed = o.ops
		o.problems = append(o.problems, err.Error())
		return o
	}
	id := tr.begin("encode_s", -1)
	doc, err := rep.JSON()
	if err == nil {
		o.rows, err = rowDigests(doc)
	}
	tr.end(id)
	if err != nil {
		o.failed = o.ops
		o.problems = append(o.problems, err.Error())
		return o
	}
	o.digest = sha256Hex(doc)
	for _, p := range checkScenario(rep, o.rows, r.refs) {
		o.fail("%s", p)
	}
	o.counts = scenarioCounts(rep)
	for _, st := range rep.Schemes {
		o.events += st.Events
		o.simSeconds += st.Makespan.Seconds()
		if st.Sharding != nil {
			for _, b := range st.Sharding.Group.ShardBusy {
				o.busy += b
			}
		}
	}
	return o
}

// rowDigests digests each policy row of a report document, keyed by
// policy name.
func rowDigests(doc []byte) (map[string]string, error) {
	var d struct {
		Policies []json.RawMessage `json:"policies"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("decoding report: %w", err)
	}
	rows := make(map[string]string, len(d.Policies))
	for _, raw := range d.Policies {
		var row struct {
			Policy string `json:"policy"`
		}
		if err := json.Unmarshal(raw, &row); err != nil {
			return nil, fmt.Errorf("decoding report row: %w", err)
		}
		rows[row.Policy] = sha256Hex(raw)
	}
	return rows, nil
}

// checkScenario lists every violated output check of a report: a lost
// process, a failure script that crashed nothing or bounced no migrant,
// or a row whose digest differs from its reference (refs may be nil).
func checkScenario(rep *scenario.Report, rows, refs map[string]string) []string {
	var bad []string
	failures := rep.Spec.HasFailures()
	failBacks := 0
	for _, st := range rep.Schemes {
		failBacks += st.FailBacks
		switch {
		case st.Unfinished != 0:
			bad = append(bad, fmt.Sprintf("%s: %d processes unfinished", st.Policy, st.Unfinished))
		case failures && st.Crashes == 0:
			bad = append(bad, fmt.Sprintf("%s: failure script crashed no node", st.Policy))
		case refs != nil && rows[st.Policy] != refs[st.Policy]:
			bad = append(bad, fmt.Sprintf("%s: report row digest %s, want %s", st.Policy, rows[st.Policy], refs[st.Policy]))
		}
	}
	if failures && failBacks == 0 {
		bad = append(bad, "failure script failed back no migrant")
	}
	return bad
}

// scenarioCounts derives a report's per-layer model outputs.
func scenarioCounts(rep *scenario.Report) map[string]float64 {
	c := map[string]float64{}
	var migrations, failBacks, windows, globalSync float64
	for _, st := range rep.Schemes {
		c["sim.events"] += float64(st.Events)
		c["scenario.migrations."+st.Policy] = float64(st.Migrations)
		c["scenario.crashes"] += float64(st.Crashes)
		c["scenario.evacuations"] += float64(st.Evacuations)
		c["scenario.fail_backs"] += float64(st.FailBacks)
		migrations += float64(st.Migrations)
		failBacks += float64(st.FailBacks)
		for _, tu := range st.TierUse {
			c["fabric.bytes."+tu.Name] += float64(tu.Bytes)
		}
		if sh := st.Sharding; sh != nil {
			g := sh.Group
			windows += float64(g.Windows)
			globalSync += float64(g.GlobalSyncWindows)
			c["sim.staged_events"] += float64(g.StagedEvents)
			c["sim.global_events"] += float64(g.GlobalEvents)
		}
	}
	c["sim.windows"] = windows
	if windows > 0 {
		c["sim.global_sync_frac"] = globalSync / windows
	}
	if migrations+failBacks > 0 {
		c["scenario.fail_back_ratio"] = failBacks / (migrations + failBacks)
	}
	return c
}

// policyNames are the registered balancer policies the per-layer metrics
// name, in registry order.
var policyNames = []string{
	sched.NameAMPoM, sched.NameLoadVector, sched.NameMemUsher,
	sched.NameNoMigration, sched.NameOpenMosix, sched.NameQueueGossip,
}

// schemeNames are the migration schemes the per-layer metrics name.
func schemeNames() []string {
	var out []string
	for _, s := range migrate.AllSchemes() {
		out = append(out, s.String())
	}
	sort.Strings(out)
	return out
}
