#include "multi_tenant.h"

#include <algorithm>

#include "common/logging.h"
#include "engine/machine.h"
#include "engine/partition.h"
#include "policies/registry.h"

namespace g10 {

bool
MixResult::allSucceeded() const
{
    for (const JobResult& j : jobs)
        if (j.shared.failed)
            return false;
    return true;
}

MultiTenantSim::MultiTenantSim(const WorkloadMix& mix)
    : mix_(mix), scaledSys_(mix.sys.scaledDown(mix.scaleDown))
{
    if (mix_.jobs.empty())
        fatal("MultiTenantSim: mix has no jobs");
    traces_.reserve(mix_.jobs.size());
    for (JobSpec& spec : mix_.jobs) {
        if (spec.batchSize <= 0)
            spec.batchSize = paperBatchSize(spec.model);
        traces_.push_back(buildModelScaled(spec.model, spec.batchSize,
                                           mix_.scaleDown));
    }
}

MultiTenantSim::MultiTenantSim(const WorkloadMix& mix,
                               std::vector<KernelTrace> traces)
    : mix_(mix), traces_(std::move(traces)), scaledSys_(mix.sys)
{
    if (mix_.jobs.empty())
        fatal("MultiTenantSim: mix has no jobs");
    if (traces_.size() != mix_.jobs.size())
        fatal("MultiTenantSim: %zu traces for %zu jobs",
              traces_.size(), mix_.jobs.size());
}

MixResult
MultiTenantSim::run()
{
    const std::size_t n = mix_.jobs.size();

    // Partition GPU and host memory by the jobs' memory weights; the
    // SSD and PCIe fabric stay fully shared (that is the experiment).
    // Every tenant holds its weighted lease for the whole run (this
    // engine has no churn; the serving engine leases/reclaims).
    double wsum = 0.0;
    for (const JobSpec& s : mix_.jobs)
        wsum += (s.memWeight > 0.0 ? s.memWeight : 1.0);
    PartitionManager partitions(scaledSys_, static_cast<int>(n));
    std::vector<PartitionManager::Lease> leases(n);

    Machine machine(scaledSys_, mix_.sched);

    std::vector<DesignInstance> designs;
    std::vector<std::unique_ptr<SimRuntime>> rts;
    designs.reserve(n);
    rts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const JobSpec& spec = mix_.jobs[i];
        double w = (spec.memWeight > 0.0 ? spec.memWeight : 1.0) / wsum;
        leases[i] = partitions.acquireWeighted(w);
        const SystemConfig& jobSys = leases[i].sys;

        designs.push_back(PolicyRegistry::instance().make(
            spec.design, traces_[i], jobSys));

        RunConfig rc;
        rc.sys = jobSys;
        rc.iterations = spec.iterations;
        rc.uvmExtension = designs.back().uvmExtension;
        rc.seed = mix_.seed + i;
        rc.startNs = spec.arrivalNs;
        rts.push_back(std::make_unique<SimRuntime>(
            traces_[i], *designs.back().policy, rc, machine.shared()));
        if (tracer_)
            rts.back()->setTracer(tracer_, static_cast<int>(i));
    }

    for (std::size_t i = 0; i < n; ++i) {
        rts[i]->start();
        machine.attach(*rts[i], i, mix_.jobs[i].priority);
    }
    while (!machine.empty())
        machine.stepNext();

    MixResult out;
    out.jobs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        JobResult& jr = out.jobs[i];
        jr.spec = mix_.jobs[i];
        jr.name = mix_.jobs[i].name;
        if (jr.name.empty()) {
            jr.name = traces_[i].modelName() + "-" +
                      std::to_string(traces_[i].batchSize()) + "#" +
                      std::to_string(i);
        }
        jr.shared = rts[i]->finalize();
        jr.lifetimeTraffic = rts[i]->fabric().traffic();
        jr.finishNs = rts[i]->now();
        out.makespanNs = std::max(out.makespanNs, jr.finishNs);
        if (!jr.shared.failed)
            out.aggregateThroughput += jr.shared.throughput();
    }
    out.gpuBusyNs = machine.gpu().busyNs;
    if (out.makespanNs > 0)
        out.gpuUtilization = static_cast<double>(out.gpuBusyNs) /
                             static_cast<double>(out.makespanNs);
    out.ssd = machine.ssd().stats();

    // All tenants have departed; return the partitions.
    for (PartitionManager::Lease& l : leases)
        partitions.release(&l);

    // Per-job isolated baselines: the same job alone on the whole
    // machine (full memory, private fabric/SSD, exclusive GPU).
    std::vector<double> speeds;
    for (std::size_t i = 0; i < n; ++i) {
        JobResult& jr = out.jobs[i];
        if (mix_.isolatedBaseline) {
            DesignInstance design = PolicyRegistry::instance().make(
                mix_.jobs[i].design, traces_[i], scaledSys_);
            RunConfig rc;
            rc.sys = scaledSys_;
            rc.iterations = mix_.jobs[i].iterations;
            rc.uvmExtension = design.uvmExtension;
            rc.seed = mix_.seed + i;
            SimRuntime iso(traces_[i], *design.policy, rc);
            jr.isolated = iso.run();
            jr.isolatedRunNs = iso.now();
            if (!jr.shared.failed && !jr.isolated.failed &&
                jr.isolated.measuredIterationNs > 0) {
                jr.slowdown =
                    static_cast<double>(jr.shared.measuredIterationNs) /
                    static_cast<double>(jr.isolated.measuredIterationNs);
                if (jr.isolatedRunNs > 0) {
                    jr.turnaroundSlowdown =
                        static_cast<double>(jr.finishNs -
                                            jr.spec.arrivalNs) /
                        static_cast<double>(jr.isolatedRunNs);
                    speeds.push_back(1.0 / jr.turnaroundSlowdown);
                }
            }
        } else if (!jr.shared.failed) {
            speeds.push_back(jr.shared.normalizedPerf());
        }
    }
    if (!speeds.empty()) {
        double s = 0.0, s2 = 0.0;
        for (double x : speeds) {
            s += x;
            s2 += x * x;
        }
        out.fairness =
            (s * s) / (static_cast<double>(speeds.size()) * s2);
    }
    return out;
}

}  // namespace g10
