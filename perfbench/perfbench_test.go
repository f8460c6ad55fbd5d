package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ampom/internal/scenario"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the set-up measurement launches it as a probe.
func TestMain(m *testing.M) {
	if os.Getenv(t0Env) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// shrunk are small versions of every workload that keep each one's
// shape: the failure script, the two-shard engine, the matrix's jobs.
var shrunk = map[string]options{
	"paper-matrix":       {seed: defaultSeed, scale: 64},
	"rack-farm-failures": {seed: defaultSeed, nodes: 64, procs: 256},
	"mega-farm-sharded":  {seed: defaultSeed, nodes: 128, procs: 512},
}

func prepareShrunk(t *testing.T, name string) runner {
	t.Helper()
	wl, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := wl.prepare(shrunk[name])
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestDeclarationsMatchBenchmarkJSON checks that the benchmark reports
// exactly the workloads, metrics and units BENCHMARK.json declares.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, ours)
	}
	var declared, reported []string
	for _, m := range bj.EndToEnd {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	for _, d := range endToEnd {
		reported = append(reported, d.name+" "+d.unit)
	}
	for _, m := range bj.PerLayer {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	for _, d := range perLayer() {
		reported = append(reported, d.name+" "+d.unit)
	}
	if strings.Join(declared, ",") != strings.Join(reported, ",") {
		t.Errorf("metrics differ:\nBENCHMARK.json %v\nbenchmark      %v", declared, reported)
	}
}

// TestEveryMetricPrinted runs each shrunken workload untraced and traced
// and checks that the last line names every declared metric with its
// unit, and that the human-readable lines do too.
func TestEveryMetricPrinted(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			var stdout, stderr bytes.Buffer
			if code := execute(wl, shrunk[wl.name], 0.001, trace, t.TempDir(), &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", wl.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", wl.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %s",
					wl.name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			decls := endToEnd
			if trace {
				decls = perLayer()
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.name, trace, d.name, m, d.unit)
				}
				if !strings.Contains(stdout.String(), "  "+d.name+" ") {
					t.Errorf("%s trace=%v: no line for %s", wl.name, trace, d.name)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptedDigestFails checks that a report row or table whose digest
// differs from its reference counts as one failed operation.
func TestCorruptedDigestFails(t *testing.T) {
	t.Run("scenario", func(t *testing.T) {
		r := prepareShrunk(t, "rack-farm-failures").(*scenarioRunner)
		clean := r.run(nil)
		if clean.failed != 0 || len(clean.rows) != len(r.spec.Policies) {
			t.Fatalf("clean run: %d failed, %d rows: %v", clean.failed, len(clean.rows), clean.problems)
		}
		refs := map[string]string{}
		for k, v := range clean.rows {
			refs[k] = v
		}
		r.refs = refs
		if out := r.run(nil); out.failed != 0 {
			t.Fatalf("matching references: %d failed: %v", out.failed, out.problems)
		}
		refs[r.spec.Policies[0]] = strings.Repeat("0", 64)
		if out := r.run(nil); out.failed != 1 {
			t.Errorf("one corrupted reference: %d failed, want 1: %v", out.failed, out.problems)
		}
	})
	t.Run("report", func(t *testing.T) {
		r := prepareShrunk(t, "rack-farm-failures").(*scenarioRunner)
		rep, err := scenario.RunShardsHook(r.spec, r.seed, r.shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		refs, err := rowDigests(doc)
		if err != nil {
			t.Fatal(err)
		}
		if bad := checkScenario(rep, refs, refs); len(bad) != 0 {
			t.Fatalf("clean report: %v", bad)
		}
		// Change the first digit of the first row's makespan.
		i := bytes.Index(doc, []byte(`"makespan_s": `)) + len(`"makespan_s": `)
		corrupt := append([]byte(nil), doc...)
		if corrupt[i] == '9' {
			corrupt[i] = '8'
		} else {
			corrupt[i]++
		}
		rows, err := rowDigests(corrupt)
		if err != nil {
			t.Fatal(err)
		}
		if bad := checkScenario(rep, rows, refs); len(bad) != 1 {
			t.Errorf("one corrupted row: %v, want one failure", bad)
		}
	})
	t.Run("tables", func(t *testing.T) {
		r := prepareShrunk(t, "paper-matrix").(*matrixRunner)
		clean := r.run(nil)
		if clean.failed != 0 {
			t.Fatalf("clean run: %v", clean.problems)
		}
		r.ref = clean.digest
		if out := r.run(nil); out.failed != 0 {
			t.Fatalf("matching reference: %v", out.problems)
		}
		r.ref = strings.Repeat("f", 64)
		if out := r.run(nil); out.failed != 1 {
			t.Errorf("corrupted reference: %d failed, want 1: %v", out.failed, out.problems)
		}
	})
}

// TestRepetitionMismatchFails checks that a repetition whose outputs
// differ from the first's is counted as failed.
func TestRepetitionMismatchFails(t *testing.T) {
	b := bench{stderr: &bytes.Buffer{}}
	b.record(outcome{ops: 3, digest: "a"})
	b.record(outcome{ops: 3, digest: "a"})
	if b.failed != 0 {
		t.Fatalf("identical repetitions: %d failed", b.failed)
	}
	b.record(outcome{ops: 3, digest: "b"})
	if b.failed != 1 || b.attempted != 9 {
		t.Errorf("diverging repetition: %d of %d failed, want 1 of 9", b.failed, b.attempted)
	}
}

// TestCPUSharesSumToOne profiles a shrunken scenario and checks that the
// module shares partition the sampled CPU time.
func TestCPUSharesSumToOne(t *testing.T) {
	r := prepareShrunk(t, "rack-farm-failures")
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		r.run(nil)
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("profile holds no samples")
	}
	var sum float64
	for _, b := range shareBuckets() {
		v, ok := shares[b]
		if !ok || v < 0 {
			t.Errorf("bucket %s = %v, %v", b, v, ok)
		}
		sum += v
	}
	if len(shares) != len(shareBuckets()) {
		t.Errorf("%d buckets, want %d", len(shares), len(shareBuckets()))
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["scenario"]+shares["infod"] == 0 {
		t.Errorf("no CPU charged to the scenario layers: %v", shares)
	}
}

// TestBucketOf pins the innermost-module rule.
func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2_fast64", "ampom/internal/infod.(*Daemon).merge", "ampom/internal/scenario.(*clusterSim).run"}, "infod"},
		{[]string{"runtime.mallocgc", "ampom/internal/eventq.(*Queue).Push", "ampom/internal/sim.(*Engine).Run"}, "eventq"},
		{[]string{"ampom/internal/core.(*Prefetcher).Analyze.func1", "ampom/internal/migrate.Run"}, "core"},
		{[]string{"ampom/internal/resultstore.(*Store).Get", "ampom/internal/campaign.(*Engine).Run"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
