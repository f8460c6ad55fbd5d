package main

import (
	"strings"
	"testing"

	"ampom/internal/cli"
	"ampom/internal/clitest"
)

func TestSmokeTable1(t *testing.T) {
	out := clitest.Run(t, "-figure", "table1", "-scale", "64")
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "DGEMM") {
		t.Fatalf("unexpected table1 output:\n%s", out)
	}
}

func TestSmokeFigure10CSV(t *testing.T) {
	out := clitest.Run(t, "-figure", "fig10", "-scale", "64", "-csv", "-j", "2")
	if !strings.Contains(out, "openMosix") || !strings.Contains(out, ",") {
		t.Fatalf("unexpected fig10 CSV output:\n%s", out)
	}
}

func TestSmokeUnknownFigureIsUsageError(t *testing.T) {
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-figure", "bogus")
	if !strings.Contains(stderr, "unknown figure") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

// TestSmokeScaleBelowOneIsUsageError: a non-positive divisor is rejected
// before any experiment runs, instead of silently running paper scale.
func TestSmokeScaleBelowOneIsUsageError(t *testing.T) {
	for _, scale := range []string{"0", "-2"} {
		_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-scale", scale, "-figure", "table1")
		if !strings.Contains(stderr, "-scale") {
			t.Fatalf("-scale %s: unexpected stderr:\n%s", scale, stderr)
		}
	}
}
