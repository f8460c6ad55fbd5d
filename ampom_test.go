package ampom

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/scenario"
	"ampom/internal/sched"
	"ampom/internal/sim"
)

// newEngine is shared by the micro-benchmarks.
func newEngine() *sim.Engine { return sim.New() }

func TestFacadeQuickstart(t *testing.T) {
	w, err := BuildWorkload(Entry{Kernel: STREAM, ProblemSize: 8, MemoryMB: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(RunConfig{Workload: w, Scheme: SchemeAMPoM, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Freeze <= 0 || r.Total <= r.Freeze {
		t.Fatalf("degenerate result %+v", r)
	}
}

func TestFacadeCatalogue(t *testing.T) {
	if len(Catalogue()) != 18 {
		t.Fatal("catalogue incomplete")
	}
	if len(Kernels()) != 4 {
		t.Fatal("kernel list incomplete")
	}
}

func TestFacadeSchemes(t *testing.T) {
	w, err := BuildWorkload(ScaleEntry(Catalogue()[0], 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	var prev *Result
	for _, s := range []Scheme{SchemeNoPrefetch, SchemeAMPoM, SchemeOpenMosix} {
		r, err := Run(RunConfig{Workload: w, Scheme: s, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && r.Freeze <= prev.Freeze {
			t.Fatalf("freeze ordering violated at %v", s)
		}
		prev = r
	}
}

func TestFacadeNetworkShaping(t *testing.T) {
	if Broadband().BandwidthBps != 0.75e6 {
		t.Fatal("broadband profile wrong")
	}
}

func TestFacadePrefetcher(t *testing.T) {
	p, err := NewPrefetcher(DefaultPrefetcherConfig(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p.RecordFault(PageNum(i), Time(i)*1_000_000, 1)
	}
	a := p.Analyze(Estimates{RTT: 20_000_000, PageTransfer: 400_000})
	if a.Score != 1 || a.N == 0 {
		t.Fatalf("sequential analysis = %+v", a)
	}
}

func TestFacadeCampaign(t *testing.T) {
	c := NewCampaign(CampaignConfig{Scale: 32, Seed: 3})
	tab := c.Table1()
	if len(tab.Rows) == 0 {
		t.Fatal("campaign table empty")
	}
}

func TestFacadeWorkingSet(t *testing.T) {
	w, err := BuildWorkingSetWorkload(32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.WorkingSetPages >= w.Layout.Pages() {
		t.Fatal("working set not smaller than allocation")
	}
}

func TestFacadeLocality(t *testing.T) {
	w, err := BuildWorkload(Entry{Kernel: STREAM, ProblemSize: 8, MemoryMB: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, tmp := Locality(w)
	if s <= 0.2 {
		t.Fatalf("STREAM spatial = %v", s)
	}
	if tmp > 0.2 {
		t.Fatalf("STREAM temporal = %v", tmp)
	}
}

// TestFacadeCampaignEngine drives the re-exported parallel campaign engine:
// a small scheme sweep must be cache-shared and deterministic across worker
// counts.
func TestFacadeCampaignEngine(t *testing.T) {
	jobs := []CampaignJob{
		{Kernel: STREAM, MemoryMB: 8, Scheme: SchemeAMPoM},
		{Kernel: STREAM, MemoryMB: 8, Scheme: SchemeOpenMosix},
		{Kernel: STREAM, MemoryMB: 8, Scheme: SchemeAMPoM}, // duplicate
	}
	seq := NewCampaignEngine(CampaignOptions{Workers: 1, BaseSeed: 9})
	par := NewCampaignEngine(CampaignOptions{Workers: 4, BaseSeed: 9})
	sres, err := seq.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := par.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Executed() != 2 || par.Executed() != 2 {
		t.Fatalf("executed %d/%d distinct jobs, want 2", seq.Executed(), par.Executed())
	}
	for i := range jobs {
		if sres[i].Total != pres[i].Total || sres[i].HardFaults != pres[i].HardFaults {
			t.Fatalf("job %d: sequential and parallel results differ", i)
		}
	}
}

// TestFacadePolicyRegistry drives the balancer surface: the registry lists
// the built-ins in sorted order, and a scenario run under a policy subset
// reports exactly that subset in registry order.
func TestFacadePolicyRegistry(t *testing.T) {
	names := BalancerPolicyNames()
	if !slices.IsSorted(names) {
		t.Fatalf("registry names not sorted: %v", names)
	}
	for _, want := range []string{sched.NameAMPoM, sched.NameLoadVector, sched.NameMemUsher,
		sched.NameNoMigration, sched.NameOpenMosix, sched.NameQueueGossip} {
		if !slices.Contains(names, want) {
			t.Fatalf("built-in policy %q missing from %v", want, names)
		}
	}
	rep, err := RunScenario(ScenarioSpec{
		Nodes:    4,
		Procs:    16,
		Policies: []string{sched.NameNoMigration, sched.NameAMPoM},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schemes) != 2 || rep.Schemes[0].Policy != sched.NameAMPoM || rep.Schemes[1].Policy != sched.NameNoMigration {
		t.Fatalf("scenario rows not {AMPoM, no-migration} in registry order: %+v", rep.Schemes)
	}
	if am, ok := rep.Scheme(sched.NameAMPoM); !ok || am.Makespan <= 0 {
		t.Fatalf("AMPoM row degenerate: %+v", am)
	}
}

// TestFacadeFabric drives the fabric surface: topology parsing, the
// spec's fabric block, a switched-fabric run with tier stats and the
// queue-gossip policy, and the report decode/diff round trip.
func TestFacadeFabric(t *testing.T) {
	names := FabricTopologyNames()
	if len(names) != 3 {
		t.Fatalf("topologies %v, want star/two-tier/flat", names)
	}
	k, err := ParseFabricTopology("two-tier")
	if err != nil || k != fabric.KindTwoTier {
		t.Fatalf("ParseFabricTopology = %v, %v", k, err)
	}
	if _, err := ParseFabricTopology("hypercube"); err == nil {
		t.Fatal("unknown topology accepted")
	}

	spec := ScenarioSpec{
		Name: "facade-fabric", Nodes: 8, Procs: 24,
		Policies: []string{sched.NameAMPoM, sched.NameQueueGossip},
		Fabric:   scenario.FabricSpec{Topology: k, RackSize: 4},
	}
	rep, err := RunScenario(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	am, ok := rep.Scheme(sched.NameAMPoM)
	if !ok || len(am.TierUse) != 2 {
		t.Fatalf("two-tier run carries tiers %+v", am.TierUse)
	}

	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeScenarioReports(js)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Seed != rep.Seed {
		t.Fatalf("report decode round trip lost the run: %+v", back)
	}
	diffs, err := DiffScenarioReports(js, js, ScenarioDiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("identical artefacts diverged: %v", diffs)
	}
	other, err := RunScenario(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	oj, err := other.JSON()
	if err != nil {
		t.Fatal(err)
	}
	diffs, err = DiffScenarioReports(js, oj, ScenarioDiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) == 0 {
		t.Fatal("different-seed artefacts compared equal")
	}
}

// TestFacadeScenarioSpecIO round-trips a spec file and a report through
// the facade's I/O surface.
func TestFacadeScenarioSpecIO(t *testing.T) {
	spec := ScenarioSpec{Name: "facade", Nodes: 4, Procs: 8, Policies: []string{sched.NameAMPoM}}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := SaveScenarioSpec(path, spec); err != nil {
		t.Fatal(err)
	}
	back, err := LoadScenarioSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != spec.Canonical().Fingerprint() {
		t.Fatal("facade spec round trip changed the fingerprint")
	}
	rep, err := RunScenario(back, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schemes) != 2 { // AMPoM plus the implicit baseline
		t.Fatalf("report has %d rows, want 2", len(rep.Schemes))
	}
	js, err := ScenarioReportsJSON([]*ScenarioReport{rep})
	if err != nil {
		t.Fatal(err)
	}
	if len(js) == 0 || ScenarioReportsCSV([]*ScenarioReport{rep}) == "" {
		t.Fatal("report encoders returned nothing")
	}
}

// TestFacadeCampaignWorkers checks the harness-level Workers plumbing.
func TestFacadeCampaignWorkers(t *testing.T) {
	seq := NewCampaign(CampaignConfig{Scale: 16, Seed: 7, Workers: 1}).Table1().Render()
	par := NewCampaign(CampaignConfig{Scale: 16, Seed: 7, Workers: 8}).Table1().Render()
	if seq != par {
		t.Fatal("Table 1 differs across worker counts")
	}
}

// TestFacadeNamesHaveCallers keeps the facade from growing back: every
// exported name in ampom.go must either be reached as ampom.<Name> by a
// program under cmd/ or examples/, or appear in the signature of another
// exported facade function.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "ampom.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	inSignature := map[string]bool{}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			names = append(names, d.Name.Name)
			ast.Inspect(d.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					inSignature[id.Name] = true
				}
				return true
			})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							names = append(names, id.Name)
						}
					}
				}
			}
		}
	}

	called := map[string]bool{}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "ampom" {
						called[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, name := range names {
		if !called[name] && !inSignature[name] {
			t.Errorf("ampom.%s has no caller under cmd/ or examples/ and is in no exported facade signature", name)
		}
	}
}
