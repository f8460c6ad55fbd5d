package cli

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext returns a context cancelled on the first SIGINT or
// SIGTERM — the shared graceful-shutdown hook of the repository's
// long-running binaries. The daemon drains on it (stop admitting, finish
// running jobs); the batch CLIs pass it to the engine's RunScenarios so an
// interrupted campaign stops dispatching but never tears a simulation
// mid-run.
//
// Signal delivery is one-shot: the stop function restores default
// handling, so a second Ctrl-C during the drain kills the process the
// ordinary way instead of being swallowed.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}
