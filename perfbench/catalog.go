package main

// metricDef names one metric. For a per-layer metric, Moves is the
// end-to-end metric a change to that layer should move and On the workload
// it should move on; on the other workloads it should stay flat, and where a
// workload never reaches the layer the traced run reports 0. BENCHMARK.json
// at the repository root lists the same names and units (the test checks).
type metricDef struct {
	Name, Unit, Better string
	Moves, On          string
}

// endToEnd is what a user of the system sees; every workload reports all
// of them from the untraced run. The timings are at the reference host
// speed (host.go); the raw timings print as notes beside them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "setup_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower"},
}

const (
	wCPA   = "campaign_cpa"
	wFleet = "campaign_fleet"
	wView  = "view_browse"
)

// perLayer is reported by the traced run.
var perLayer = []metricDef{
	// internal/sched/cpa: one Schedule call per algorithm and replicate.
	{"sched.cpa.schedule_ms", "ms", "lower", "op_p50_ms", wCPA},
	{"sched.mcpa.schedule_ms", "ms", "lower", "op_p50_ms", wCPA},
	{"sched.mcpa2.schedule_ms", "ms", "lower", "op_p50_ms", wCPA},
	{"sched.cpa.alloc_mb", "MB", "lower", "ops_per_s", wCPA},
	{"sched.mcpa.alloc_mb", "MB", "lower", "ops_per_s", wCPA},
	{"sched.mcpa2.alloc_mb", "MB", "lower", "ops_per_s", wCPA},
	{"sched.cpa.mallocs", "count", "lower", "op_p90_ms", wCPA},
	// internal/dag, internal/sim, internal/campaign.
	{"dag.generate_ms", "ms", "lower", "op_p50_ms", wCPA},
	{"sim.execute_ms", "ms", "lower", "op_p50_ms", wCPA},
	{"campaign.cell_self_ms", "ms", "lower", "op_p50_ms", wCPA},
	// Go runtime, measured over the untraced passes of the traced run.
	{"runtime.gc_cycles_per_op", "count", "lower", "op_p90_ms", wCPA},
	{"runtime.gc_cpu_fraction", "ratio", "lower", "op_p90_ms", wCPA},
	// internal/fleet: worker side and the worker-protocol routes.
	{"fleet.shard_compute_ms", "ms", "lower", "op_p50_ms", wFleet},
	{"fleet.compute_share", "ratio", "higher", "ops_per_s", wFleet},
	{"fleet.http.lease_ms", "ms", "lower", "op_p50_ms", wFleet},
	{"fleet.http.complete_ms", "ms", "lower", "op_p50_ms", wFleet},
	{"fleet.lease_polls_per_op", "count", "lower", "ops_per_s", wFleet},
	{"fleet.leases_per_shard", "count", "lower", "ops_per_s", wFleet},
	{"fleet.steals", "count", "lower", "op_p90_ms", wFleet},
	{"fleet.duplicates", "count", "lower", "op_p90_ms", wFleet},
	// internal/coord, internal/jobs, internal/api on the campaign route.
	{"coord.first_lease_ms", "ms", "lower", "op_p50_ms", wFleet},
	{"api.campaign_submit_ms", "ms", "lower", "op_p50_ms", wFleet},
	{"jobs.done_wake_ms", "ms", "lower", "op_p50_ms", wFleet},
	{"api.result_ms", "ms", "lower", "op_p50_ms", wFleet},
	// internal/api on the session routes.
	{"first_view_p50_ms", "ms", "lower", "op_p50_ms", wView},
	{"pan_p50_ms", "ms", "lower", "op_p50_ms", wView},
	{"api.create_ms", "ms", "lower", "op_p50_ms", wView},
	{"api.create_build_ms", "ms", "lower", "op_p50_ms", wView},
	{"api.cache_hit_ms", "ms", "lower", "op_p50_ms", wView},
	{"api.delete_ms", "ms", "lower", "op_p50_ms", wView},
	{"api.cache_hit_ratio", "ratio", "higher", "op_p50_ms", wView},
	// internal/render: the first render of a fresh session (a miss).
	{"render.first.layout_ms", "ms", "lower", "op_p50_ms", wView},
	{"render.first.raster_ms", "ms", "lower", "op_p50_ms", wView},
	{"render.first.encode_ms", "ms", "lower", "op_p50_ms", wView},
	{"render.first.unstaged_ms", "ms", "lower", "op_p50_ms", wView},
	// internal/render, internal/core: a fresh LOD window of the big trace.
	{"render.pan.index_ms", "ms", "lower", "op_p50_ms", wView},
	{"render.pan.lod_ms", "ms", "lower", "op_p50_ms", wView},
	{"render.pan.raster_ms", "ms", "lower", "op_p50_ms", wView},
	{"render.pan.encode_ms", "ms", "lower", "op_p50_ms", wView},
	{"render.pan.unstaged_ms", "ms", "lower", "op_p50_ms", wView},
	{"core.validate_ms", "ms", "lower", "op_p50_ms", wView},
	{"render.lod_tasks_per_pan", "count", "lower", "op_p50_ms", wView},
	// internal/jedxml, internal/render, internal/api: the set-up upload.
	{"jedxml.read_s", "s", "lower", "setup_s", wView},
	{"render.build_index_s", "s", "lower", "setup_s", wView},
	{"api.upload_s", "s", "lower", "setup_s", wView},
	// Every workload: the traced run's cost over the untraced one.
	{"trace_overhead", "ratio", "lower", "", ""},
}
