#include "metrics.h"

namespace perfbench {

const std::vector<MetricDef>&
metricDefs()
{
    static const std::vector<MetricDef> defs = {
        {"op_p50_ref_ms", "ref_ms", false},
        {"op_tail_ref_ms", "ref_ms", false},
        {"ops_per_ref_s", "1/ref_s", false},
        {"setup_s", "s", false},
        {"peak_rss_mb", "MB", false},
        {"op_ok_ratio", "ratio", false},
        {"api.report_ms", "ms", true},
        {"core.sched.evict_ms", "ms", true},
        {"core.sched.plan_ms", "ms", true},
        {"core.sched.prefetch_ms", "ms", true},
        {"core.vitality_ms", "ms", true},
        {"fleet.route_ms", "ms", true},
        {"fleet.run_ms", "ms", true},
        {"models.build_ms", "ms", true},
        {"other_ms", "ms", true},
        {"policies.make_ms", "ms", true},
        {"serve.construct_ms", "ms", true},
        {"serve.sweep_ms", "ms", true},
        {"sim.replay_ms", "ms", true},
        {"traced_op_ms", "ms", true},
        {"setup.engine.start_ms", "ms", true},
        {"setup.fleet.construct_ms", "ms", true},
        {"setup.models.build_ms", "ms", true},
        {"setup.other_ms", "ms", true},
        {"setup.serve.construct_ms", "ms", true},
        {"setup.wall_ms", "ms", true},
        {"core.sched.evict.migrations", "count", true},
        {"core.vitality.periods", "count", true},
        {"engine.cpu_util", "ratio", true},
        {"fleet.rejected", "count", true},
        {"fleet.warm_ratio", "ratio", true},
        {"models.kernels", "count", true},
        {"obs.traced_over_off", "x", true},
        {"serve.cold_compiles", "count", true},
        {"serve.kernels_simulated", "count", true},
        {"serve.ns_per_kernel", "ns", true},
        {"serve.plan_cache.hit_ratio", "ratio", true},
        {"serve.plan_cache.hits", "count", true},
        {"serve.plan_cache.misses", "count", true},
        {"serve.probes.decided", "count", true},
        {"serve.probes.issued", "count", true},
        {"serve.probes.spec_wasted", "count", true},
        {"serve.probes.useful_ratio", "ratio", true},
        {"serve.replans", "count", true},
        {"serve.resizes", "count", true},
        {"serve.splits", "count", true},
        {"serve.warm_compiles", "count", true},
        {"sim.migrated_bytes", "bytes", true},
        {"sim.ns_per_kernel", "ns", true},
        {"sim.page_fault_batches", "count", true},
        {"sim.ssd.gc_runs", "count", true},
        {"sim.ssd.waf", "x", true},
        {"sim.stall_share", "ratio", true},
        {"sim_fleet_slo", "ratio", true},
        {"sim_g10_norm_perf", "ratio", true},
        {"sim_g10_speedup_max", "x", true},
        {"sim_knee_rps", "1/s", true},
    };
    return defs;
}

const MetricDef*
findMetric(const std::string& name)
{
    for (const MetricDef& def : metricDefs())
        if (name == def.name)
            return &def;
    return nullptr;
}

}  // namespace perfbench
