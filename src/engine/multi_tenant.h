/**
 * @file
 * Multi-tenant execution: N DNN training jobs time-sharing one modeled
 * GPU while contending for partitioned GPU/host memory and the shared
 * PCIe fabric + SSD.
 *
 * Each job keeps its own SimRuntime + Policy (plans are compiled
 * against the job's memory partition), but all jobs run on one
 * Machine: they reserve bandwidth on its FabricChannels, wear its
 * SsdDevice, and serialize kernels on its GpuComputeTimeline. The
 * machine interleaves jobs at kernel granularity by stepping whichever
 * job is furthest behind in virtual time (optionally weighted by
 * priority — stride scheduling), which makes runs deterministic and
 * independent of host thread count; this class is its fixed-arrival
 * driver.
 */

#ifndef G10_ENGINE_MULTI_TENANT_H
#define G10_ENGINE_MULTI_TENANT_H

#include <memory>
#include <vector>

#include "engine/workload_mix.h"
#include "graph/trace.h"
#include "sim/runtime/policy.h"
#include "sim/runtime/sim_runtime.h"

namespace g10 {

/** Outcome of one job inside a consolidated run. */
struct JobResult
{
    std::string name;
    JobSpec spec;

    /** Stats measured while sharing the machine. */
    ExecStats shared;

    /** Stats of the same job alone on the full machine (baseline). */
    ExecStats isolated;

    /**
     * Measured-iteration slowdown vs. the isolated run (>= ~1.0);
     * 0 when the baseline was skipped or either run failed. Captures
     * steady-state contention while both jobs are on the machine.
     */
    double slowdown = 0.0;

    /**
     * ANTT-style turnaround slowdown: (finish - arrival) divided by
     * the job's isolated end-to-end runtime. Captures queueing and
     * scheduling-priority effects that iteration slowdown misses
     * (e.g. strict priority serializing the tenants). 0 when the
     * baseline was skipped or either run failed.
     */
    double turnaroundSlowdown = 0.0;

    /** End-to-end runtime of the isolated baseline. */
    TimeNs isolatedRunNs = 0;

    /** All-iteration migration traffic through this job's fabric view. */
    TrafficStats lifetimeTraffic;

    /** Stream time at which the job's last kernel completed. */
    TimeNs finishNs = 0;
};

/** Aggregate outcome of one consolidated mix. */
struct MixResult
{
    std::vector<JobResult> jobs;

    /** Latest job completion time. */
    TimeNs makespanNs = 0;

    /** Total kernel-occupied GPU time across all tenants. */
    TimeNs gpuBusyNs = 0;

    /** gpuBusyNs / makespanNs. */
    double gpuUtilization = 0.0;

    /** Sum of per-job measured throughput, samples/s. */
    double aggregateThroughput = 0.0;

    /**
     * Jain's fairness index over per-job service speeds
     * (1/turnaroundSlowdown when baselines ran, normalized perf
     * otherwise). 1.0 = perfectly fair.
     */
    double fairness = 1.0;

    /** Wear of the one shared SSD (consolidated WAF/lifetime). */
    SsdStats ssd;

    /** True when every job completed without failure. */
    bool allSucceeded() const;
};

/** Simulates one WorkloadMix; see run(). */
class MultiTenantSim
{
  public:
    /** Build job traces from the mix's model specs (scaled). */
    explicit MultiTenantSim(const WorkloadMix& mix);

    /**
     * Use pre-built traces (index-matched to mix.jobs) instead of
     * building models; mix.sys is used as-is, ignoring mix.scaleDown.
     * Lets tests drive the engine with tiny synthetic traces.
     */
    MultiTenantSim(const WorkloadMix& mix,
                   std::vector<KernelTrace> traces);

    /** Run the consolidated mix (and isolated baselines if enabled). */
    MixResult run();

    /**
     * Attach observability (see obs/tracer.h) before run(); nullptr =
     * off. The consolidated runtimes emit with pid = job index; the
     * isolated baselines stay untraced (they are a reference, not part
     * of the consolidated timeline).
     */
    void setTracer(Tracer* tracer) { tracer_ = tracer; }

  private:
    WorkloadMix mix_;
    std::vector<KernelTrace> traces_;
    SystemConfig scaledSys_;  ///< the shared machine, after scaling
    Tracer* tracer_ = nullptr;
};

}  // namespace g10

#endif  // G10_ENGINE_MULTI_TENANT_H
