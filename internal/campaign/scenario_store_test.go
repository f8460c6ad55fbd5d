package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ampom/internal/resultstore"
	"ampom/internal/scenario"
)

// TestFlightErrorDropped locks the single-flight retry contract: a failed
// compute is not memoised, so the next request for the same key re-executes
// instead of replaying a stale failure.
func TestFlightErrorDropped(t *testing.T) {
	var f flight[int]
	wrap := func(r any) error { return fmt.Errorf("panic: %v", r) }
	calls := 0
	boom := errors.New("transient fault")
	compute := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 42, nil
	}
	if _, err, executed := f.do("k", wrap, compute); err != boom || !executed {
		t.Fatalf("first call: err %v executed %v, want the fault, executed", err, executed)
	}
	v, err, executed := f.do("k", wrap, compute)
	if err != nil || v != 42 || !executed {
		t.Fatalf("retry after error: v %d err %v executed %v, want recomputed 42", v, err, executed)
	}
	// Success, by contrast, stays cached.
	if _, _, executed := f.do("k", wrap, compute); executed {
		t.Fatal("successful cell was not cached")
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

// TestScenarioErrorRetryReexecutes is the same contract at the engine level:
// a failing scenario job does not poison its fingerprint.
func TestScenarioErrorRetryReexecutes(t *testing.T) {
	bad := ScenarioJob{Spec: scenario.Spec{Name: "bad", Nodes: 4, Skew: 3}}
	e := New(Options{BaseSeed: 7})
	if _, err := e.RunScenario(bad); err == nil {
		t.Fatal("invalid scenario did not fail")
	}
	if _, err := e.RunScenario(bad); err == nil {
		t.Fatal("invalid scenario did not fail on retry")
	}
	if e.Executed() != 2 {
		t.Fatalf("failing job executed %d times across 2 requests, want 2 (errors must not be cached)", e.Executed())
	}
}

// TestScenarioStoreRoundTrip locks the persistent-store contract: a fresh
// engine sharing the store serves the fingerprint from disk — byte-identical
// report, no simulation — and the store observes the hit.
func TestScenarioStoreRoundTrip(t *testing.T) {
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := testScenario("store-rt")

	first := New(Options{BaseSeed: 7, Store: st})
	r1, err := first.RunScenario(job)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Puts != 1 {
		t.Fatalf("store puts %d after first run, want 1", got.Puts)
	}

	// A fresh engine (empty in-memory cache) with the same store must not
	// simulate: the progress hook fires only from a real run, so any sample
	// is proof of a re-simulation.
	simulated := false
	second := New(Options{BaseSeed: 7, Store: st,
		OnScenarioProgress: func(ScenarioProgress) { simulated = true }})
	r2, err := second.RunScenario(job)
	if err != nil {
		t.Fatal(err)
	}
	if simulated {
		t.Fatal("store hit re-simulated the scenario")
	}
	if got := st.Stats(); got.Hits < 1 {
		t.Fatalf("store stats %+v, want at least one hit", got)
	}
	b1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("store-served report re-encodes differently from the simulated one")
	}
}

// TestScenarioFailureNeverPersisted locks that a store cell is proof of a
// completed run: failed jobs write nothing.
func TestScenarioFailureNeverPersisted(t *testing.T) {
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := ScenarioJob{Spec: scenario.Spec{Name: "bad", Nodes: 4, Skew: 3}}
	e := New(Options{BaseSeed: 7, Store: st})
	if _, err := e.RunScenario(bad); err == nil {
		t.Fatal("invalid scenario did not fail")
	}
	if got := st.Stats(); got.Puts != 0 {
		t.Fatalf("failed job persisted %d cell(s), want 0", got.Puts)
	}
	if _, ok, _ := st.Get(bad.Fingerprint()); ok {
		t.Fatal("failed job's fingerprint hits the store")
	}
}

// TestRunScenariosCtxCancelled locks the graceful-drain contract: a done
// context stops dispatch, and every skipped job fails with the context's
// error instead of hanging or running.
func TestRunScenariosCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Options{Workers: 2, BaseSeed: 7})
	jobs := []ScenarioJob{testScenario("c1"), testScenario("c2"), testScenario("c3")}
	reports, err := e.RunScenariosCtx(ctx, jobs)
	if err == nil {
		t.Fatal("cancelled batch reported success")
	}
	re, ok := err.(*ScenarioRunError)
	if !ok {
		t.Fatalf("error is %T, want *ScenarioRunError", err)
	}
	if len(re.Failures) != len(jobs) {
		t.Fatalf("%d/%d jobs failed, want all skipped", len(re.Failures), len(jobs))
	}
	for _, f := range re.Failures {
		if !errors.Is(f.Err, context.Canceled) {
			t.Fatalf("skip error %v does not wrap context.Canceled", f.Err)
		}
	}
	for i, r := range reports {
		if r != nil {
			t.Fatalf("skipped job %d returned a report", i)
		}
	}
	if e.Executed() != 0 {
		t.Fatalf("cancelled batch executed %d simulations, want 0", e.Executed())
	}
}

// TestFanOutCtxDoneNeverDispatches locks the dispatch half of the drain
// contract at the pool itself: under an already-done context no index
// reaches a worker, however eagerly the workers are parked on the
// dispatch channel. A select between ctx.Done() and the send picks at
// random when both are ready, so the loop must check the context first;
// many repetitions make a random pick all but certain to show.
func TestFanOutCtxDoneNeverDispatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(Options{Workers: 4})
	const jobs = 8
	for rep := 0; rep < 2000; rep++ {
		var ran, skipped int64
		var mu sync.Mutex
		e.fanOutCtx(ctx, jobs,
			func(int) { mu.Lock(); ran++; mu.Unlock() },
			func(int) { mu.Lock(); skipped++; mu.Unlock() })
		if ran != 0 {
			t.Fatalf("repetition %d: ran %d jobs under a done context", rep, ran)
		}
		if skipped != jobs {
			t.Fatalf("repetition %d: skipped %d jobs, want %d", rep, skipped, jobs)
		}
	}
}

// TestScenarioProgressHook locks the shape of the progress stream the daemon
// multiplexes to clients: one sample per completed policy, Done counting up
// to Total, every sample carrying the job's fingerprint.
func TestScenarioProgressHook(t *testing.T) {
	var (
		mu      sync.Mutex
		samples []ScenarioProgress
	)
	e := New(Options{BaseSeed: 7, OnScenarioProgress: func(p ScenarioProgress) {
		mu.Lock()
		samples = append(samples, p)
		mu.Unlock()
	}})
	job := testScenario("progress")
	if _, err := e.RunScenario(job); err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no progress samples from a real run")
	}
	total := samples[0].Total
	if len(samples) != total {
		t.Fatalf("%d samples for Total %d, want one per policy", len(samples), total)
	}
	for i, p := range samples {
		if p.Done != i+1 || p.Total != total {
			t.Fatalf("sample %d = %d/%d, want %d/%d", i, p.Done, p.Total, i+1, total)
		}
		if p.Fingerprint != job.Fingerprint() {
			t.Fatalf("sample fingerprint %q, want %q", p.Fingerprint, job.Fingerprint())
		}
		if p.Policy == "" {
			t.Fatalf("sample %d has no policy name", i)
		}
	}
	// A cache hit produces no samples — nothing runs.
	before := len(samples)
	if _, err := e.RunScenario(job); err != nil {
		t.Fatal(err)
	}
	if len(samples) != before {
		t.Fatal("cache hit emitted progress samples")
	}
}
