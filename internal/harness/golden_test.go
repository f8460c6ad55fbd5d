package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// These tests lock in the campaign determinism guarantee: the rendered
// tables are byte-identical whatever the worker count, across repeated
// runs of the same configuration, and to the checked-in golden.

// renderAll renders every figure and ablation into one byte stream.
func renderAll(m *Matrix) string {
	var b strings.Builder
	for _, t := range m.AllFigures() {
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	for _, t := range m.AllAblations() {
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	return b.String()
}

func goldenCfg(workers int) Config {
	return Config{Scale: 16, Seed: 7, Workers: workers}
}

// readGolden returns a checked-in golden file from testdata.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestTable1DeterministicAcrossWorkers(t *testing.T) {
	seq := NewMatrix(goldenCfg(1)).Table1().Render()
	par := NewMatrix(goldenCfg(8)).Table1().Render()
	if seq != par {
		t.Fatalf("Table1 differs between 1 and 8 workers:\n%s\n---\n%s", seq, par)
	}
}

func TestFigure4DeterministicAcrossWorkers(t *testing.T) {
	seq := NewMatrix(goldenCfg(1)).Figure4().Render()
	par := NewMatrix(goldenCfg(8)).Figure4().Render()
	if seq != par {
		t.Fatalf("Figure4 differs between 1 and 8 workers:\n%s\n---\n%s", seq, par)
	}
	rep := NewMatrix(goldenCfg(8)).Figure4().Render()
	if par != rep {
		t.Fatal("Figure4 differs between repeated runs of the same config")
	}
}

// TestCampaignByteIdentical is the full guarantee: every figure and every
// ablation table, sequential vs the golden vs 8-way parallel vs a repeated
// parallel run. The golden catches a change that moves every figure the
// same way at every worker count.
func TestCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign comparison in -short mode")
	}
	seq := renderAll(NewMatrix(goldenCfg(1)))
	if want := readGolden(t, "campaign.golden"); seq != want {
		t.Fatalf("sequential campaign output diverged from testdata/campaign.golden:\n--- got ---\n%s--- want ---\n%s", seq, want)
	}
	par := renderAll(NewMatrix(goldenCfg(8)))
	if seq != par {
		t.Fatal("campaign output differs between sequential and parallel execution")
	}
	rep := renderAll(NewMatrix(goldenCfg(8)))
	if par != rep {
		t.Fatal("campaign output differs between repeated parallel runs")
	}
}

// TestSeedChangesOutput guards against the degenerate way to pass the
// determinism tests — ignoring the seed altogether.
func TestSeedChangesOutput(t *testing.T) {
	// Figure 7's fault-request counts on RandomAccess are the most
	// seed-sensitive artefact (its reference stream is the stochastic one).
	a := NewMatrix(Config{Scale: 16, Seed: 7}).Figure7().Render()
	b := NewMatrix(Config{Scale: 16, Seed: 8}).Figure7().Render()
	if a == b {
		t.Fatal("changing the campaign seed left Figure 7 unchanged")
	}
}

func TestCampaignJobsDeduplicated(t *testing.T) {
	m := NewMatrix(goldenCfg(0))
	jobs := m.CampaignJobs()
	seen := map[string]bool{}
	for _, j := range jobs {
		fp := j.Fingerprint()
		if seen[fp] {
			t.Fatalf("duplicate fingerprint %q in CampaignJobs", fp)
		}
		seen[fp] = true
	}
	// The matrix must cover at least: 18 catalogue rows × 3 schemes, the
	// Figure 9 broadband cells, the Figure 10 working-set sweep and the
	// ablation sweeps.
	if len(jobs) < 60 {
		t.Fatalf("campaign matrix has %d jobs, expected a fuller matrix", len(jobs))
	}
}

// TestPrewarmSharesCellsWithFigures: after a prewarm, rendering the figures
// must not execute a single extra simulation.
func TestPrewarmSharesCellsWithFigures(t *testing.T) {
	m := NewMatrix(goldenCfg(4))
	if err := m.Prewarm(); err != nil {
		t.Fatal(err)
	}
	executed := m.Engine().Executed()
	if executed != len(m.CampaignJobs()) {
		t.Fatalf("prewarm executed %d jobs for a %d-job matrix", executed, len(m.CampaignJobs()))
	}
	for _, tab := range m.AllFigures() {
		if len(tab.Rows) == 0 {
			t.Fatalf("figure %q empty", tab.Title)
		}
	}
	for _, tab := range m.AllAblations() {
		if len(tab.Rows) == 0 {
			t.Fatalf("ablation %q empty", tab.Title)
		}
	}
	if post := m.Engine().Executed(); post != executed {
		t.Fatalf("rendering after prewarm executed %d extra simulations", post-executed)
	}
}

// TestPrewarmFigureCoversRendering: prewarming one named figure must leave
// nothing for its rendering path to simulate, and unknown names are no-ops.
func TestPrewarmFigureCoversRendering(t *testing.T) {
	m := NewMatrix(goldenCfg(4))
	if err := m.PrewarmFigure("fig7"); err != nil {
		t.Fatal(err)
	}
	warm := m.Engine().Executed()
	if warm == 0 {
		t.Fatal("PrewarmFigure(fig7) executed nothing")
	}
	_ = m.Figure7()
	if got := m.Engine().Executed(); got != warm {
		t.Fatalf("rendering Figure 7 after its prewarm executed %d extra jobs", got-warm)
	}
	if err := m.PrewarmFigure("table1"); err != nil {
		t.Fatal(err)
	}
	if err := m.PrewarmFigure("nonsense"); err != nil {
		t.Fatal(err)
	}
	if got := m.Engine().Executed(); got != warm {
		t.Fatal("simulation-free prewarms must not execute jobs")
	}
}

// TestSharedBaselineComputedOnce: the openMosix baseline cell reused across
// Figures 5–7 and the scheme ablation must map to one fingerprint.
func TestSharedBaselineComputedOnce(t *testing.T) {
	m := NewMatrix(goldenCfg(1))
	_ = m.Figure5()
	after5 := m.Engine().Executed()
	_ = m.Figure6() // same cells as Figure 5
	if got := m.Engine().Executed(); got != after5 {
		t.Fatalf("Figure 6 executed %d extra jobs after Figure 5", got-after5)
	}
	// The scheme ablation's three paper schemes on DGEMM@575/16 coincide
	// with Figure 5 cells; only the two extra baselines may run.
	_ = m.AblationSchemes()
	if got := m.Engine().Executed(); got != after5+2 {
		t.Fatalf("scheme ablation executed %d extra jobs, want 2", got-after5)
	}
}
