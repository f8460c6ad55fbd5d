// Package leakcheck fails a test binary whose tests leave goroutines
// running: a daemon that does not drain, or a worker pool that outlives its
// batch. A package opts in from its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// settle bounds how long goroutines that are already shutting down (closed
// listeners, cancelled workers) get to exit after the last test returns.
const settle = 2 * time.Second

// Main runs the tests, then waits up to settle for the goroutine count to
// fall back to its value before they ran. If it does not, Main prints every
// goroutine's stack and exits non-zero.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	deadline := time.Now().Add(settle)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines running after the tests, %d before them\n", n, before)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		code = 1
	}
	os.Exit(code)
}
