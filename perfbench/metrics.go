package main

// decl names one reported metric and its unit.
type decl struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run: what a user of the
// simulator sees.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_bytes", "B"},
	{"peak_rss_bytes", "B"},
	{"events_per_sim_s", "1/s"},
}

// perLayer are the metrics of a traced run. Every workload reports every
// one; a layer a workload bypasses reads 0.
func perLayer() []decl {
	d := []decl{{"span.setup_s", "s"}}
	for _, p := range policyNames {
		d = append(d, decl{"span.policy_s." + p, "s"})
	}
	for _, p := range policyNames {
		if p != baselinePolicy {
			d = append(d, decl{"span.balance_extra_s." + p, "s"})
		}
	}
	d = append(d,
		decl{"span.encode_s", "s"},
		decl{"span.hpcc_build_s", "s"},
	)
	for _, s := range schemeNames() {
		d = append(d, decl{"span.migrate_run_s." + s, "s"})
	}
	d = append(d,
		decl{"span.migrate_run_s.p50", "s"},
		decl{"span.migrate_run_s.p90", "s"},
		decl{"span.render_s", "s"},
		decl{"trace_overhead_frac", "ratio"},
		decl{"sim.events", "count"},
		decl{"sim.host_ns_per_event", "ns"},
		decl{"sim.windows", "count"},
		decl{"sim.global_sync_frac", "ratio"},
		decl{"sim.staged_events", "count"},
		decl{"sim.global_events", "count"},
		decl{"sim.shard_busy_frac", "ratio"},
		decl{"sim.parallelism", "ratio"},
	)
	for _, p := range policyNames {
		d = append(d, decl{"scenario.migrations." + p, "count"})
	}
	d = append(d,
		decl{"scenario.crashes", "count"},
		decl{"scenario.evacuations", "count"},
		decl{"scenario.fail_backs", "count"},
		decl{"scenario.fail_back_ratio", "ratio"},
		decl{"fabric.bytes.edge", "B"},
		decl{"fabric.bytes.core", "B"},
		decl{"migrate.hard_faults", "count"},
		decl{"migrate.prefetch_pages", "count"},
		decl{"migrate.pages_arrived", "count"},
		decl{"core.prefetch_coverage", "ratio"},
		decl{"campaign.jobs", "count"},
		decl{"runtime.gc_cycles", "count"},
		decl{"runtime.gc_cpu_frac", "ratio"},
		decl{"runtime.alloc_objects", "count"},
	)
	for _, b := range shareBuckets() {
		d = append(d, decl{"cpu_share." + b, "ratio"})
	}
	return d
}
