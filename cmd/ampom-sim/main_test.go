package main

import (
	"strings"
	"testing"

	"ampom/internal/cli"
	"ampom/internal/clitest"
)

func TestSmokeSingleScheme(t *testing.T) {
	out := clitest.Run(t, "-kernel", "STREAM", "-mb", "8", "-scheme", "ampom")
	for _, want := range []string{"workload", "freeze", "faults", "prefetch/req"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeAllSchemesParallel(t *testing.T) {
	out := clitest.Run(t, "-kernel", "DGEMM", "-mb", "8", "-scheme", "all", "-j", "2")
	if !strings.Contains(out, "Scheme comparison") || !strings.Contains(out, "AMPoM") {
		t.Fatalf("unexpected comparison output:\n%s", out)
	}
}

func TestSmokeUnknownKernelIsUsageError(t *testing.T) {
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-kernel", "bogus")
	if !strings.Contains(stderr, "unknown kernel") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

func TestSmokeUnknownNetworkIsUsageError(t *testing.T) {
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-network", "foo")
	if !strings.Contains(stderr, "unknown network") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

// TestSmokeBadLoadIsUsageError: a load past the 0.95 cap is rejected, not
// clamped, and NaN is rejected, not run with a NaN bandwidth.
func TestSmokeBadLoadIsUsageError(t *testing.T) {
	for _, load := range []string{"2", "NaN", "-0.1"} {
		_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-load", load, "-mb", "8")
		if !strings.Contains(stderr, "-load") {
			t.Fatalf("-load %s: unexpected stderr:\n%s", load, stderr)
		}
	}
}
