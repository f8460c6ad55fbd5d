// Command ampom-benchjson converts `go test -bench` output into a stable
// JSON artefact, so the repository's performance trajectory (the fabric
// event-budget gates above all) is machine-readable and diffable across
// PRs instead of living in CI logs.
//
// Usage:
//
//	go test -run '^$' -bench '^BenchmarkFabric' -benchtime 1x . | ampom-benchjson -o BENCH_fabric.json
//	ampom-benchjson -i bench.txt            # read a saved log instead of stdin
//
// Every benchmark result line ("BenchmarkName  N  value unit  value unit
// ...") becomes one JSON record carrying the iteration count, ns/op, and
// every custom metric (events/sim-s, migrations, B/op, allocs/op) under
// its reported unit. The host is recorded at the top level: the `cpu:`
// header line as cpu, and the GOMAXPROCS the names' "-N" suffix carried
// (no suffix means 1) as gomaxprocs — omitted when the lines disagree.
// Other non-benchmark lines (goos/pkg/PASS) pass through silently; a log
// with no benchmark lines is an error, so a CI wiring mistake cannot
// publish an empty artefact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"ampom/internal/cli"
)

// result is one parsed benchmark line.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// document is the artefact shape: the host the log was taken on, then
// results sorted by benchmark name under a version gate, like the
// scenario report artefacts — stable however the bench regexp ordered the
// runs.
type document struct {
	Version    int      `json:"version"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

// Version is the artefact format version.
const Version = 1

// gomaxprocsSuffix matches the "-8"-style GOMAXPROCS suffix go test
// appends to benchmark names (for GOMAXPROCS above 1); it is stripped so
// artefacts compare across machines, and kept as the document's
// gomaxprocs.
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

// parseLine decodes one benchmark result line and the GOMAXPROCS its name
// carried, reporting ok=false for non-benchmark lines.
func parseLine(line string) (r result, procs int, ok bool, err error) {
	if !strings.HasPrefix(line, "Benchmark") {
		return result{}, 0, false, nil
	}
	fields := strings.Fields(line)
	// Name, iterations, then (value, unit) pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return result{}, 0, false, fmt.Errorf("malformed benchmark line %q", line)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, 0, false, fmt.Errorf("benchmark line %q: bad iteration count: %v", line, err)
	}
	r = result{
		Name:       fields[0],
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	procs = 1
	if m := gomaxprocsSuffix.FindStringSubmatchIndex(r.Name); m != nil {
		procs, _ = strconv.Atoi(r.Name[m[2]:m[3]]) // the pattern admits only digits
		r.Name = r.Name[:m[0]]
	}
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, 0, false, fmt.Errorf("benchmark line %q: bad value %q: %v", line, fields[i], err)
		}
		if fields[i+1] == "ns/op" {
			r.NsPerOp = v
			continue
		}
		r.Metrics[fields[i+1]] = v
	}
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	return r, procs, true, nil
}

// convert parses a full benchmark log into the artefact encoding.
func convert(in io.Reader) ([]byte, error) {
	var doc document
	doc.Version = Version
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	mixedProcs := false
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok && doc.CPU == "" {
			doc.CPU = strings.TrimSpace(cpu)
			continue
		}
		r, procs, ok, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if len(doc.Benchmarks) > 0 && procs != doc.GOMAXPROCS {
			mixedProcs = true
		}
		doc.GOMAXPROCS = procs
		doc.Benchmarks = append(doc.Benchmarks, r)
	}
	if mixedProcs {
		doc.GOMAXPROCS = 0
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines in input")
	}
	sort.SliceStable(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	addShardSpeedups(doc.Benchmarks)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// addShardSpeedups derives the shard_speedup metric: for every benchmark
// named "<Base>Shards" whose sequential sibling "<Base>" is in the log,
// the sharded record gains sequential-ns/sharded-ns — above 1.0 the
// sharded engine wins. Derived here rather than in the benchmarks because
// the two runs are separate benchmark functions; recording the ratio in
// the artefact makes the parallel-efficiency trajectory diffable per PR.
func addShardSpeedups(results []result) {
	seq := make(map[string]float64, len(results))
	for _, r := range results {
		seq[r.Name] = r.NsPerOp
	}
	for i := range results {
		r := &results[i]
		base, ok := strings.CutSuffix(r.Name, "Shards")
		if !ok || base == "" {
			continue
		}
		ns, ok := seq[base]
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics["shard_speedup"] = ns / r.NsPerOp
	}
}

func main() {
	input := flag.String("i", "", "read the benchmark log from this file (default: stdin)")
	output := flag.String("o", "", "write the JSON artefact to this file (default: stdout)")
	flag.Parse()
	if flag.NArg() != 0 {
		cli.Usage("unexpected arguments %v", flag.Args())
	}

	in := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			cli.Fail("%v", err)
		}
		defer f.Close()
		in = f
	}
	data, err := convert(in)
	if err != nil {
		cli.Fail("%v", err)
	}
	if *output == "" {
		os.Stdout.Write(data)
		return
	}
	cli.Check(os.WriteFile(*output, data, 0o644))
}
