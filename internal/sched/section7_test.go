package sched_test

import (
	"fmt"
	"testing"

	"ampom/internal/scenario"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// The paper's §7 outlook — AMPoM's cheap freeze lets the same cost-benefit
// rule migrate more aggressively — checked for the registered policies on
// the cluster scenario engine. The heterogeneous burst carries 128 MB
// footprints, so openMosix's full copy is expensive there; small 32 MB
// footprints would make its freeze cheap too.

const section7Seeds = 5

var section7Reports = map[string]*scenario.Report{}

// section7Rows returns the named policies' rows of one scenario run,
// running each (spec, seed) pair once per test binary.
func section7Rows(t *testing.T, spec scenario.Spec, seed uint64, policies ...string) []scenario.SchemeStats {
	t.Helper()
	key := fmt.Sprintf("%s|%d", spec.Fingerprint(), seed)
	rep := section7Reports[key]
	if rep == nil {
		rep = scenario.MustRun(spec, seed)
		section7Reports[key] = rep
	}
	rows := make([]scenario.SchemeStats, len(policies))
	for i, p := range policies {
		st, ok := rep.Scheme(p)
		if !ok {
			t.Fatalf("no %s row", p)
		}
		rows[i] = st
	}
	return rows
}

func heteroBurst(t *testing.T) scenario.Spec {
	t.Helper()
	spec, err := scenario.Preset("hetero-burst")
	if err != nil {
		t.Fatal(err)
	}
	spec.Policies = []string{sched.NameOpenMosix, sched.NameAMPoM}
	return spec.Canonical()
}

// TestAMPoMEnablesAggressiveMigration is the §7 claim: with AMPoM's cheap
// migrations the same lifetime rule fires more often and the cluster
// balances better.
func TestAMPoMEnablesAggressiveMigration(t *testing.T) {
	spec := heteroBurst(t)
	for seed := uint64(1); seed <= section7Seeds; seed++ {
		r := section7Rows(t, spec, seed, sched.NameNoMigration, sched.NameOpenMosix, sched.NameAMPoM)
		none, om, am := r[0], r[1], r[2]
		if am.Migrations <= om.Migrations {
			t.Errorf("seed %d: AMPoM migrations %d not above openMosix's %d (aggressiveness lost)",
				seed, am.Migrations, om.Migrations)
		}
		if am.MeanSlowdown >= none.MeanSlowdown {
			t.Errorf("seed %d: AMPoM slowdown %.2f not below no-migration %.2f", seed, am.MeanSlowdown, none.MeanSlowdown)
		}
		if am.MeanSlowdown >= om.MeanSlowdown {
			t.Errorf("seed %d: AMPoM slowdown %.2f not below openMosix %.2f", seed, am.MeanSlowdown, om.MeanSlowdown)
		}
	}
}

func TestFreezeTimeCharged(t *testing.T) {
	spec := heteroBurst(t)
	for seed := uint64(1); seed <= section7Seeds; seed++ {
		r := section7Rows(t, spec, seed, sched.NameOpenMosix, sched.NameAMPoM)
		om, am := r[0], r[1]
		if om.Migrations == 0 || am.Migrations == 0 {
			t.Fatalf("seed %d: nothing migrated (openMosix %d, AMPoM %d)", seed, om.Migrations, am.Migrations)
		}
		if om.FrozenTotal <= 0 {
			t.Errorf("seed %d: openMosix migrations charged no freeze time", seed)
		}
		if am.ExtraWork <= 0 {
			t.Errorf("seed %d: AMPoM migrations must charge remote-paging work", seed)
		}
		// AMPoM's freeze proper (excluding the working-set paging stalls,
		// which FrozenTotal also accumulates) is per-migration far cheaper.
		perOM := float64(om.FrozenTotal) / float64(om.Migrations)
		perAM := float64(am.FrozenTotal-am.ExtraWork) / float64(am.Migrations)
		if perAM >= perOM/5 {
			t.Errorf("seed %d: AMPoM per-migration freeze %.3fs not ≪ openMosix %.3fs",
				seed, perAM/float64(simtime.Second), perOM/float64(simtime.Second))
		}
	}
}

func TestBalancedClusterMigratesLittle(t *testing.T) {
	// With no skew the cluster starts balanced; fewer migrations should fire.
	skewed := scenario.Spec{
		Name:            "small",
		Nodes:           4,
		Procs:           12,
		MeanCompute:     8 * simtime.Second,
		MeanFootprintMB: 32,
		Skew:            0.7,
		Policies:        []string{sched.NameAMPoM},
	}.Canonical()
	flat := skewed
	flat.Skew = -1
	for seed := uint64(1); seed <= section7Seeds; seed++ {
		s := section7Rows(t, skewed, seed, sched.NameAMPoM)[0]
		f := section7Rows(t, flat, seed, sched.NameAMPoM)[0]
		if f.Migrations >= s.Migrations {
			t.Errorf("seed %d: balanced start migrated %d, skewed %d", seed, f.Migrations, s.Migrations)
		}
	}
}
