package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ampom/internal/cli"
	"ampom/internal/clitest"
)

// sample mirrors real `go test -bench` output: headers, a plain benchmark,
// one with custom metrics and a GOMAXPROCS suffix, and the PASS trailer.
const sample = `goos: linux
goarch: amd64
pkg: ampom
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFabric512 	       1	1304924710 ns/op	      3279 AMPoM_ev_per_sim_s	        95.00 qg_migrations	1113295496 B/op	 1555518 allocs/op
BenchmarkFabric4096-8 	       1	45000000000 ns/op	     13503 AMPoM_ev_per_sim_s
PASS
ok  	ampom	1.315s
`

func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSmokeConvert(t *testing.T) {
	out := clitest.Run(t, "-i", writeSample(t))
	var doc struct {
		Version    int    `json:"version"`
		GOMAXPROCS *int   `json:"gomaxprocs"`
		CPU        string `json:"cpu"`
		Benchmarks []struct {
			Name       string             `json:"name"`
			Iterations int64              `json:"iterations"`
			NsPerOp    float64            `json:"ns_per_op"`
			Metrics    map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if doc.Version != 1 || len(doc.Benchmarks) != 2 {
		t.Fatalf("decoded version %d with %d benchmarks, want 1 and 2", doc.Version, len(doc.Benchmarks))
	}
	// Sorted by name, GOMAXPROCS suffix stripped.
	b4096, b512 := doc.Benchmarks[0], doc.Benchmarks[1]
	if b4096.Name != "BenchmarkFabric4096" || b512.Name != "BenchmarkFabric512" {
		t.Fatalf("names %q, %q not sorted/stripped", b4096.Name, b512.Name)
	}
	if b512.NsPerOp != 1304924710 || b512.Iterations != 1 {
		t.Fatalf("ns/op %v iterations %d decoded wrong", b512.NsPerOp, b512.Iterations)
	}
	if b512.Metrics["AMPoM_ev_per_sim_s"] != 3279 || b512.Metrics["qg_migrations"] != 95 {
		t.Fatalf("custom metrics decoded wrong: %v", b512.Metrics)
	}
	if _, hasNs := b512.Metrics["ns/op"]; hasNs {
		t.Fatal("ns/op leaked into the metrics map")
	}
	if doc.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu %q, want the log's cpu: header", doc.CPU)
	}
	// One line ran at GOMAXPROCS 1 (no suffix), the other at 8: no single
	// value describes the log, so the field is left out.
	if doc.GOMAXPROCS != nil {
		t.Fatalf("mixed-GOMAXPROCS log recorded gomaxprocs %d", *doc.GOMAXPROCS)
	}
}

// TestHostFields locks the host record: the GOMAXPROCS suffix every line
// shares becomes the top-level gomaxprocs (a suffix-less log ran at 1),
// the cpu: header becomes cpu, and a log without a cpu: header omits it.
func TestHostFields(t *testing.T) {
	cases := []struct {
		name, log string
		procs     int
		cpu       string
	}{
		{"suffixed", "cpu: AMD EPYC 7B13\nBenchmarkA-2 \t1\t10 ns/op\nBenchmarkB-2 \t1\t20 ns/op\nPASS\n", 2, "AMD EPYC 7B13"},
		{"single-proc", "BenchmarkA \t1\t10 ns/op\n", 1, ""},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "bench.txt")
		if err := os.WriteFile(path, []byte(c.log), 0o644); err != nil {
			t.Fatal(err)
		}
		out := clitest.Run(t, "-i", path)
		var doc map[string]any
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatalf("%s: output is not JSON: %v\n%s", c.name, err, out)
		}
		if got := doc["gomaxprocs"]; got != float64(c.procs) {
			t.Fatalf("%s: gomaxprocs %v, want %d", c.name, got, c.procs)
		}
		if got, has := doc["cpu"]; (c.cpu == "") == has || (has && got != c.cpu) {
			t.Fatalf("%s: cpu %v (present %v), want %q", c.name, got, has, c.cpu)
		}
		if doc["version"] != float64(1) {
			t.Fatalf("%s: version %v, want 1", c.name, doc["version"])
		}
	}
}

func TestSmokeOutputFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if stdout := clitest.Run(t, "-i", writeSample(t), "-o", out); stdout != "" {
		t.Fatalf("-o still wrote to stdout:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "BenchmarkFabric512") {
		t.Fatalf("artefact missing benchmark:\n%s", data)
	}
}

func TestSmokeEmptyInputFails(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr := clitest.RunExpect(t, cli.CodeFail, "-i", empty); !strings.Contains(stderr, "no benchmark") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

func TestSmokeUnexpectedArgsAreUsageError(t *testing.T) {
	if _, stderr := clitest.RunExpect(t, cli.CodeUsage, "stray"); !strings.Contains(stderr, "unexpected arguments") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

func TestSmokeMalformedLineFails(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("BenchmarkX 1 12 ns/op trailing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr := clitest.RunExpect(t, cli.CodeFail, "-i", bad); !strings.Contains(stderr, "malformed") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

// TestShardSpeedupMetric locks the derived parallel-efficiency metric: a
// "<Base>Shards" benchmark paired with its sequential sibling gains
// shard_speedup = sequential-ns / sharded-ns, and nothing else does.
func TestShardSpeedupMetric(t *testing.T) {
	log := `BenchmarkFabric16384 	       1	77000000000 ns/op	      2739 qg_migrations
BenchmarkFabric16384Shards 	       1	38500000000 ns/op	      2739 qg_migrations
BenchmarkFabric512 	       1	1304924710 ns/op
PASS
`
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	out := clitest.Run(t, "-i", path)
	var doc struct {
		Benchmarks []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	byName := map[string]map[string]float64{}
	for _, b := range doc.Benchmarks {
		byName[b.Name] = b.Metrics
	}
	if got := byName["BenchmarkFabric16384Shards"]["shard_speedup"]; got != 2.0 {
		t.Fatalf("shard_speedup = %v, want 2.0", got)
	}
	for _, name := range []string{"BenchmarkFabric16384", "BenchmarkFabric512"} {
		if _, has := byName[name]["shard_speedup"]; has {
			t.Fatalf("%s wrongly carries shard_speedup", name)
		}
	}
}
