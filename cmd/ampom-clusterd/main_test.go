package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ampom"
	"ampom/internal/cli"
)

// The daemon outlives any single request, so these smoke tests manage the
// process directly instead of going through clitest's run-to-completion
// helpers: boot on an ephemeral port, drive the HTTP API with the public
// client, then SIGTERM and assert a clean drain.

var (
	buildOnce sync.Once
	binDir    string
	binPath   string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// daemonBinary builds the daemon once per test process into a directory
// of its own, so a concurrent test run from another checkout can never
// replace the executable while a test is starting it.
func daemonBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "ampom-clusterd-smoke-")
		if buildErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "ampom-clusterd")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startDaemon boots the daemon on an ephemeral port and returns its base
// URL and a stop function that SIGTERMs and returns the exit code.
func startDaemon(t *testing.T, args ...string) (string, func() int) {
	t.Helper()
	cmd := exec.Command(daemonBinary(t), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(stdout)
	urlCh := make(chan string, 1)
	go func() {
		for lines.Scan() {
			if m := listenRE.FindStringSubmatch(lines.Text()); m != nil {
				urlCh <- m[1]
				break
			}
		}
		close(urlCh)
		// Keep draining so the daemon never blocks on a full stdout pipe.
		for lines.Scan() {
		}
	}()
	var url string
	select {
	case url = <-urlCh:
	case <-time.After(30 * time.Second):
	}
	if url == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("daemon never announced its listen address")
	}
	stopped := false
	stop := func() int {
		if stopped {
			return -1
		}
		stopped = true
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan int, 1)
		go func() {
			cmd.Wait()
			done <- cmd.ProcessState.ExitCode()
		}()
		select {
		case code := <-done:
			return code
		case <-time.After(time.Minute):
			cmd.Process.Kill()
			<-done
			t.Fatal("daemon did not drain within a minute of SIGTERM")
			return -1
		}
	}
	t.Cleanup(func() {
		if !stopped {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return url, stop
}

// smallSpec is a preset shrunk to simulate in milliseconds.
func smallSpec(t *testing.T) ampom.ScenarioSpec {
	t.Helper()
	spec, err := ampom.ScenarioPreset("web-churn")
	if err != nil {
		t.Fatal(err)
	}
	spec.Nodes, spec.Procs, spec.NodeMemMB = 4, 8, 0
	return spec.Canonical()
}

// TestDaemonSmoke boots the binary, runs one job end to end over HTTP,
// asserts the bytes match a local engine run, and drains with SIGTERM.
func TestDaemonSmoke(t *testing.T) {
	store := t.TempDir()
	url, stop := startDaemon(t, "-store", store)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	c := ampom.NewClusterClient(url)
	spec := smallSpec(t)
	st, err := c.Submit(ctx, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.Key); err != nil || st.Status != "done" {
		t.Fatalf("job did not complete: %+v, %v", st, err)
	}
	got, err := c.Result(ctx, st.Key, "json")
	if err != nil {
		t.Fatal(err)
	}
	eng := ampom.NewCampaignEngine(ampom.CampaignOptions{})
	rep, err := eng.RunScenario(ampom.ScenarioJob{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("daemon bytes differ from the local engine run")
	}

	if code := stop(); code != cli.CodeOK {
		t.Fatalf("daemon exited %d after SIGTERM, want %d", code, cli.CodeOK)
	}
	// The report survived the daemon: the store directory holds the cell.
	var cells int
	filepath.Walk(store, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".rst") {
			cells++
		}
		return nil
	})
	if cells != 1 {
		t.Fatalf("store holds %d cells after shutdown, want 1", cells)
	}
}

// TestDaemonStoreSharedWithRestart locks durability: a second daemon
// lifetime over the same store serves the first lifetime's report as a
// cached hit.
func TestDaemonStoreSharedWithRestart(t *testing.T) {
	store := t.TempDir()
	spec := smallSpec(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	url, stop := startDaemon(t, "-store", store)
	c := ampom.NewClusterClient(url)
	st, err := c.Submit(ctx, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.Key); err != nil || st.Status != "done" {
		t.Fatalf("first lifetime: %+v, %v", st, err)
	}
	first, err := c.Result(ctx, st.Key, "json")
	if err != nil {
		t.Fatal(err)
	}
	if code := stop(); code != cli.CodeOK {
		t.Fatalf("first lifetime exited %d", code)
	}

	url2, stop2 := startDaemon(t, "-store", store)
	c2 := ampom.NewClusterClient(url2)
	st2, err := c2.Submit(ctx, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Status != "done" || !st2.Cached || st2.Key != st.Key {
		t.Fatalf("restart submission %+v, want done+cached under key %s", st2, st.Key)
	}
	second, err := c2.Result(ctx, st2.Key, "json")
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("restart served different bytes")
	}
	if code := stop2(); code != cli.CodeOK {
		t.Fatalf("second lifetime exited %d", code)
	}
}

// TestDaemonUsageErrors locks the flag hygiene and exit-code convention.
func TestDaemonUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-store", ""},
		{"-shards", "0"},
		{"unexpected-arg"},
	} {
		cmd := exec.Command(daemonBinary(t), args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("args %v: daemon started, want usage error\n%s", args, out)
		}
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != cli.CodeUsage {
			t.Fatalf("args %v: exit %v, want %d\n%s", args, err, cli.CodeUsage, out)
		}
	}
}
