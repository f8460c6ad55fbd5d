// Command perfbench is the repository benchmark. It runs one workload of
// the simulator for a given time, checks every output, and prints the
// workload's metrics, ending with one JSON line:
//
//	perfbench -workload rack-farm-failures -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics: set-up time, and the
// median wall time, CPU time and allocation of one repetition, the peak
// resident set and the model's events per simulated second. With -trace 1
// it repeats the same measurement and then adds one traced, CPU-profiled
// repetition, and reports the per-layer metrics instead. README.md maps
// each metric to the layer it measures.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ampom/internal/sched"
)

// baselinePolicy is the policy every balance_extra span is measured
// against: the monitoring and tick floor with no migration.
const baselinePolicy = sched.NameNoMigration

// setupProbes is how many fresh processes measure set-up time per run.
const setupProbes = 15

// t0Env carries a probe's exec instant from the parent, in Unix
// nanoseconds.
const t0Env = "PERFBENCH_T0_NS"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "workload seed (0 means the default)")
	seconds := fs.Float64("seconds", 10, "how long to repeat the workload")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a traced run and reports per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory the traced run writes its spans and counts to (none if empty)")
	probe := fs.Bool("probe-setup", false, "measure set-up only and print it (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		if err == nil {
			err = errors.New("bad arguments")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seed == 0 {
		*seed = defaultSeed
	}
	o := options{seed: *seed}

	if *probe {
		return probeSetup(wl, o, stdout, stderr)
	}

	return execute(wl, o, *seconds, *trace == 1, *traceDir, stdout, stderr)
}

// execute measures one workload and prints its result.
func execute(wl workload, o options, seconds float64, trace bool, traceDir string, stdout, stderr io.Writer) int {
	setups, err := measureSetup(wl.name, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: measuring set-up:", err)
		return 1
	}
	r, err := wl.prepare(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	b := bench{workload: wl.name, seed: o.seed, stderr: stderr}
	b.measure(r, seconds)
	e2e := b.endToEnd(median(setups))
	metrics, decls := e2e, endToEnd
	if trace {
		layers, err := b.traced(r, e2e)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		metrics, decls = layers, perLayer()
		if traceDir != "" {
			if err := b.writeTrace(traceDir, layers); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
		}
	}

	hj, _ := json.Marshal(hostInfo()) // a struct of strings and ints always encodes
	fmt.Fprintf(stdout, "host %s\n", hj)
	walls := make([]string, len(b.costs))
	for i, c := range b.costs {
		walls[i] = strconv.FormatFloat(c.wallS, 'f', 3, 64)
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d ops, %d failed; %d repetitions, wall s %s\n",
		wl.name, o.seed, b.attempted, b.failed, len(b.costs), strings.Join(walls, " "))
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric, len(decls)),
	}
	for _, d := range decls {
		v := metrics[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-36s %-14s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// probeSetup is the body of a set-up probe process: it prepares the
// workload and prints the time since its parent launched it.
func probeSetup(wl workload, o options, stdout, stderr io.Writer) int {
	t0, err := strconv.ParseInt(os.Getenv(t0Env), 10, 64)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: probe without", t0Env)
		return 2
	}
	if _, err := wl.prepare(o); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	elapsed := time.Since(time.Unix(0, t0))
	fmt.Fprintln(stdout, elapsed.Seconds())
	return 0
}

// measureSetup launches fresh probe processes of this binary and returns
// the set-up time each measured: process start, runtime and package
// initialisation, and preparing the workload, up to the first call into
// the simulator.
func measureSetup(workload string, seed uint64) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "-probe-setup", "-workload", workload, "-seed", strconv.FormatUint(seed, 10))
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		cmd.Env = append(os.Environ(), t0Env+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(buf.String()), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q", buf.String())
		}
		out = append(out, v)
	}
	return out, nil
}

// bench accumulates one run's repetitions.
type bench struct {
	workload  string
	seed      uint64
	stderr    io.Writer
	costs     []cost
	first     outcome
	attempted int
	failed    int

	// Set by the traced run.
	tr      *tracer
	profile []byte
}

// record adds one repetition's outcome, checking that its outputs match
// the first repetition's.
func (b *bench) record(out outcome) {
	b.attempted += out.ops
	b.failed += out.failed
	for _, p := range out.problems {
		fmt.Fprintln(b.stderr, "perfbench: check failed:", p)
	}
	switch {
	case b.first.digest == "":
		b.first = out
	case out.digest != "" && out.digest != b.first.digest:
		b.failed++
		fmt.Fprintln(b.stderr, "perfbench: check failed: repetition outputs differ from the first repetition's")
	}
	b.failed = min(b.failed, b.attempted)
}

// measure repeats the workload untraced for seconds: it starts another
// repetition while one as long as the last still fits.
func (b *bench) measure(r runner, seconds float64) {
	start := time.Now()
	for len(b.costs) == 0 || time.Since(start).Seconds()+b.costs[len(b.costs)-1].wallS <= seconds {
		out, c := timed(r, nil)
		b.record(out)
		b.costs = append(b.costs, c)
	}
}

// endToEnd derives the end-to-end metrics of the untraced repetitions.
func (b *bench) endToEnd(setupS float64) map[string]float64 {
	m := map[string]float64{
		"setup_s":        setupS,
		"wall_s":         medianOf(b.costs, func(c cost) float64 { return c.wallS }),
		"cpu_s":          medianOf(b.costs, func(c cost) float64 { return c.cpuS }),
		"alloc_bytes":    medianOf(b.costs, func(c cost) float64 { return c.allocBytes }),
		"peak_rss_bytes": medianOf(b.costs, func(c cost) float64 { return c.peakRSS }),
	}
	if b.first.simSeconds > 0 {
		m["events_per_sim_s"] = float64(b.first.events) / b.first.simSeconds
	}
	return m
}

// traced runs one traced, CPU-profiled repetition (plus the serial pass
// of paper-matrix) and derives the per-layer metrics.
func (b *bench) traced(r runner, e2e map[string]float64) (map[string]float64, error) {
	var prof bytes.Buffer
	b.tr = newTracer()
	debug.FreeOSMemory() // so the profile holds no collection of earlier garbage
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	out, c := timed(r, b.tr)
	pprof.StopCPUProfile()
	b.record(out)
	b.profile = prof.Bytes()
	if m, ok := r.(*matrixRunner); ok {
		b.record(m.serial(b.tr))
	}

	m := map[string]float64{
		"span.setup_s":          e2e["setup_s"],
		"span.encode_s":         b.tr.total("encode_s"),
		"span.render_s":         b.tr.total("render_s"),
		"span.hpcc_build_s":     b.tr.total("hpcc_build_s"),
		"runtime.gc_cycles":     medianOf(b.costs, func(c cost) float64 { return c.gcCycles }),
		"runtime.gc_cpu_frac":   medianOf(b.costs, func(c cost) float64 { return c.gcCPUFrac }),
		"runtime.alloc_objects": medianOf(b.costs, func(c cost) float64 { return c.allocObjs }),
		"sim.parallelism":       e2e["cpu_s"] / e2e["wall_s"],
	}
	if w := e2e["wall_s"]; w > 0 {
		m["trace_overhead_frac"] = c.wallS/w - 1
	}
	for k, v := range out.counts {
		m[k] = v
	}
	if ev := out.events; ev > 0 {
		m["sim.host_ns_per_event"] = e2e["wall_s"] * 1e9 / float64(ev)
	}

	var policyTotal float64
	for _, p := range policyNames {
		m["span.policy_s."+p] = b.tr.total("policy_s." + p)
		policyTotal += m["span.policy_s."+p]
	}
	if base := m["span.policy_s."+baselinePolicy]; base > 0 {
		for _, p := range policyNames {
			if p != baselinePolicy && m["span.policy_s."+p] > 0 {
				m["span.balance_extra_s."+p] = m["span.policy_s."+p] - base
			}
		}
	}
	if out.shards > 0 && policyTotal > 0 {
		m["sim.shard_busy_frac"] = out.busy.Seconds() / (float64(out.shards) * policyTotal)
	}
	for _, s := range schemeNames() {
		m["span.migrate_run_s."+s] = b.tr.total("migrate_run_s." + s)
	}
	runs := b.tr.durations("migrate_run_s.")
	m["span.migrate_run_s.p50"] = quantile(runs, 0.5)
	m["span.migrate_run_s.p90"] = quantile(runs, 0.9)

	shares, samples, err := cpuShares(b.profile)
	if err != nil {
		return nil, err
	}
	if samples == 0 {
		fmt.Fprintln(b.stderr, "perfbench: the CPU profile holds no samples")
	}
	for k, v := range shares {
		m["cpu_share."+k] = v
	}
	return m, nil
}

// writeTrace writes the traced run's spans and metrics (counts included) to
// dir/<workload>-seed<n>.json, with its CPU profile beside it.
func (b *bench) writeTrace(dir string, metrics map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	doc, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Host     host               `json:"host"`
		Spans    []span             `json:"spans"`
		Metrics  map[string]float64 `json:"metrics"`
	}{b.workload, b.seed, hostInfo(), b.tr.spans, metrics}, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(base+".json", append(doc, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", b.profile, 0o644); err != nil {
		return fmt.Errorf("writing profile: %w", err)
	}
	return nil
}

// host records the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostInfo() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the processor's model name from /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
