package scenario

import (
	"testing"
)

// These tests pin the gossip plane byte for byte. Every legacy golden runs
// on the star fabric, which never builds a gossip daemon; the two cases
// below run on switched fabrics, where every balancer decision reads a
// gossip view, so any change to what a daemon stores, expires, windows or
// reports shows up in the report bytes. The testdata artefacts were
// generated from these exact specs and seeds; do not edit one without
// regenerating the other.

// switchedGoldenCases are the gossip-plane golden runs: the flat 96-node
// gossip-mesh preset under every policy, and the rack-farm failure script
// (crashes, evacuations, fail-backs and an uplink flap) shrunk to 128
// nodes and 512 processes.
func switchedGoldenCases(t *testing.T) map[string]struct {
	spec Spec
	seed uint64
} {
	t.Helper()
	mesh, err := Preset("gossip-mesh")
	if err != nil {
		t.Fatal(err)
	}
	failures, err := Preset("rack-farm-failures")
	if err != nil {
		t.Fatal(err)
	}
	failures.Nodes, failures.Procs, failures.NodeMemMB = 128, 512, 0
	return map[string]struct {
		spec Spec
		seed uint64
	}{
		"gossip_mesh":        {mesh, 42},
		"rack_farm_failures": {failures, 42},
	}
}

// TestSwitchedMatchesGoldens locks the switched-fabric JSON reports —
// and with them every gossip-plane read a balancer decision makes — to
// their recorded bytes.
func TestSwitchedMatchesGoldens(t *testing.T) {
	for name, c := range switchedGoldenCases(t) {
		rep, err := Run(c.spec, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(js), readGolden(t, "switched_"+name+".json.golden"); got != want {
			t.Errorf("%s: JSON report diverged from the recorded gossip-plane golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
}
