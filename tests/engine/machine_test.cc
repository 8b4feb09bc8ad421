/** @file Machine: the furthest-behind kernel interleave shared by the
 *  multi-tenant and serving engines — attach order as the tie order,
 *  detach, the idle clock, and the MultiTenant priority/late-joiner
 *  behaviour and golden values reproduced by stepping a Machine
 *  directly. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/machine.h"
#include "engine/multi_tenant.h"
#include "engine/partition.h"
#include "models/model_zoo.h"
#include "policies/registry.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

/** Jobs built over one Machine, the way MultiTenantSim builds them:
 *  memWeight-proportional partitions, a registry design each, seed
 *  mix.seed + i, and the job's arrival as its start time. */
struct Node
{
    Node(const WorkloadMix& mix, std::vector<KernelTrace> jobTraces)
        : traces(std::move(jobTraces)), machine(mix.sys, mix.sched)
    {
        const std::size_t n = mix.jobs.size();
        double wsum = 0.0;
        for (const JobSpec& s : mix.jobs)
            wsum += s.memWeight > 0.0 ? s.memWeight : 1.0;
        PartitionManager partitions(mix.sys, static_cast<int>(n));
        for (std::size_t i = 0; i < n; ++i) {
            const JobSpec& spec = mix.jobs[i];
            const double w =
                (spec.memWeight > 0.0 ? spec.memWeight : 1.0) / wsum;
            const SystemConfig jobSys = partitions.acquireWeighted(w).sys;
            designs.push_back(PolicyRegistry::instance().make(
                spec.design, traces[i], jobSys));
            RunConfig rc;
            rc.sys = jobSys;
            rc.iterations = spec.iterations;
            rc.uvmExtension = designs.back().uvmExtension;
            rc.seed = mix.seed + i;
            rc.startNs = spec.arrivalNs;
            rts.push_back(std::make_unique<SimRuntime>(
                traces[i], *designs.back().policy, rc, machine.shared()));
            rts.back()->start();
        }
    }

    /** Attach every job in index order and step until all finished;
     *  returns each job's finish time. */
    std::vector<TimeNs> runAll(const WorkloadMix& mix)
    {
        for (std::size_t i = 0; i < rts.size(); ++i)
            machine.attach(*rts[i], i, mix.jobs[i].priority);
        std::vector<TimeNs> finish(rts.size(), -1);
        while (!machine.empty())
            if (std::optional<std::size_t> done = machine.stepNext())
                finish[*done] = rts[*done]->now();
        return finish;
    }

    std::vector<KernelTrace> traces;
    Machine machine;
    std::vector<DesignInstance> designs;
    std::vector<std::unique_ptr<SimRuntime>> rts;
};

/** The MultiTenant suite's mix: @p n identical fwd+bwd jobs. */
WorkloadMix
identicalMix(int n)
{
    WorkloadMix mix;
    mix.sys = test::tinySystem();
    mix.isolatedBaseline = false;
    for (int i = 0; i < n; ++i) {
        JobSpec job;
        job.design = "baseuvm";
        job.iterations = 2;
        mix.jobs.push_back(job);
    }
    return mix;
}

std::vector<KernelTrace>
identicalTraces(int n)
{
    std::vector<KernelTrace> traces;
    for (int i = 0; i < n; ++i)
        traces.push_back(test::makeFwdBwdTrace(16, 2 * MiB, 500 * USEC));
    return traces;
}

TEST(Machine, AttachOrderIsTheTieOrder)
{
    const WorkloadMix mix = identicalMix(3);
    Node node(mix, identicalTraces(3));
    std::vector<std::unique_ptr<SimRuntime>>& rts = node.rts;
    ASSERT_EQ(rts[0]->now(), rts[1]->now());
    ASSERT_EQ(rts[1]->now(), rts[2]->now());

    // Attached 2, 0, 1 with equal clocks: 2 goes first, then 0, then
    // 1 — the index order of the jobs plays no part.
    node.machine.attach(*rts[2], 2);
    node.machine.attach(*rts[0], 0);
    node.machine.attach(*rts[1], 1);
    EXPECT_EQ(node.machine.nextClock(), rts[2]->now());
    for (std::size_t expect : {2u, 0u, 1u}) {
        EXPECT_FALSE(node.machine.stepNext().has_value());
        EXPECT_EQ(rts[expect]->globalKernelIndex(), 1) << expect;
    }
    EXPECT_EQ(rts[0]->globalKernelIndex() + rts[1]->globalKernelIndex() +
                  rts[2]->globalKernelIndex(),
              3);
}

TEST(Machine, DetachMidRunKeepsTheSurvivorsOrder)
{
    const WorkloadMix mix = identicalMix(3);
    Node node(mix, identicalTraces(3));
    std::vector<std::unique_ptr<SimRuntime>>& rts = node.rts;
    for (std::size_t i = 0; i < 3; ++i)
        node.machine.attach(*rts[i], i);

    // Job 0 steps first and is then detached mid-run; 1 and 2 are
    // still tied at their start clock and keep their attach order.
    node.machine.stepNext();
    ASSERT_EQ(rts[0]->globalKernelIndex(), 1);
    node.machine.detach(0);
    node.machine.stepNext();
    EXPECT_EQ(rts[1]->globalKernelIndex(), 1);
    EXPECT_EQ(rts[2]->globalKernelIndex(), 0);
    node.machine.stepNext();
    EXPECT_EQ(rts[2]->globalKernelIndex(), 1);

    // The survivors run to completion; the detached job is never
    // stepped again.
    std::vector<std::size_t> finished;
    while (!node.machine.empty())
        if (std::optional<std::size_t> done = node.machine.stepNext())
            finished.push_back(*done);
    EXPECT_EQ(finished.size(), 2u);
    EXPECT_TRUE(rts[1]->finished());
    EXPECT_TRUE(rts[2]->finished());
    EXPECT_EQ(rts[0]->globalKernelIndex(), 1);
    EXPECT_FALSE(rts[0]->finished());
}

TEST(Machine, EmptyMachineIsIdle)
{
    Machine machine(test::tinySystem());
    EXPECT_TRUE(machine.empty());
    EXPECT_EQ(machine.nextClock(), Machine::kIdle);
    EXPECT_EQ(machine.gpu().busyNs, 0);

    // A machine whose last job finished is idle again.
    const WorkloadMix mix = identicalMix(1);
    Node node(mix, identicalTraces(1));
    node.runAll(mix);
    EXPECT_TRUE(node.machine.empty());
    EXPECT_EQ(node.machine.nextClock(), Machine::kIdle);
    EXPECT_GT(node.machine.gpu().busyNs, 0);
}

TEST(MachineDeathTest, SteppingAnIdleMachinePanics)
{
    Machine machine(test::tinySystem());
    EXPECT_DEATH(machine.stepNext(), "no runtime attached");
}

TEST(Machine, PriorityMixMatchesMultiTenantSim)
{
    // MultiTenant.PrioritySchedulingFavorsHighPriorityJob's mix.
    WorkloadMix mix = identicalMix(2);
    mix.sched = MixSched::Priority;
    mix.jobs[0].priority = 1;
    mix.jobs[1].priority = 8;
    Node node(mix, identicalTraces(2));
    const std::vector<TimeNs> finish = node.runAll(mix);

    // The priority-8 job gets ~8x the interleaving share and completes
    // well before its priority-1 peer.
    EXPECT_LT(finish[1], finish[0]);
    const MixResult ref = MultiTenantSim(mix, identicalTraces(2)).run();
    EXPECT_EQ(finish[0], ref.jobs[0].finishNs);
    EXPECT_EQ(finish[1], ref.jobs[1].finishNs);
}

TEST(Machine, LateJoinerMatchesMultiTenantSim)
{
    // MultiTenant.LateJoinerGetsNoCatchUpCredit's mix: under equal
    // priorities a late joiner's stride start gives it no catch-up
    // credit, so both jobs' turnarounds track round-robin's.
    std::vector<TimeNs> turnaround[2];
    int idx = 0;
    for (MixSched sched : {MixSched::Priority, MixSched::RoundRobin}) {
        WorkloadMix mix = identicalMix(2);
        mix.sched = sched;
        mix.jobs[1].arrivalNs = 10 * MSEC;
        Node node(mix, identicalTraces(2));
        const std::vector<TimeNs> finish = node.runAll(mix);
        const MixResult ref = MultiTenantSim(mix, identicalTraces(2)).run();
        for (std::size_t j = 0; j < 2; ++j) {
            EXPECT_EQ(finish[j], ref.jobs[j].finishNs);
            turnaround[idx].push_back(finish[j] - mix.jobs[j].arrivalNs);
        }
        ++idx;
    }
    for (std::size_t j = 0; j < 2; ++j)
        EXPECT_NEAR(static_cast<double>(turnaround[0][j]) /
                        static_cast<double>(turnaround[1][j]),
                    1.0, 0.05)
            << "job " << j;
}

TEST(Machine, WeightedSplitGoldenThroughTheMachine)
{
    // MultiTenantGolden.WeightedSplitIsBitIdenticalThroughTheManager's
    // mix and pinned values, stepped through a Machine directly.
    WorkloadMix mix;
    mix.seed = 42;
    JobSpec a;
    a.model = ModelKind::ResNet152;
    a.batchSize = 512;
    a.design = "g10";
    a.memWeight = 3.0;
    JobSpec b;
    b.model = ModelKind::ResNet152;
    b.batchSize = 256;
    b.design = "baseuvm";
    b.memWeight = 1.0;
    JobSpec c;
    c.model = ModelKind::BertBase;
    c.batchSize = paperBatchSize(ModelKind::BertBase);
    c.design = "deepum";
    c.memWeight = 2.0;
    c.arrivalNs = 5 * MSEC;
    mix.jobs = {a, b, c};
    mix.sys = mix.sys.scaledDown(64);

    std::vector<KernelTrace> traces;
    for (const JobSpec& j : mix.jobs)
        traces.push_back(buildModelScaled(j.model, j.batchSize, 64));
    Node node(mix, std::move(traces));
    const std::vector<TimeNs> finish = node.runAll(mix);

    std::vector<ExecStats> st;
    for (auto& rt : node.rts)
        st.push_back(rt->finalize());
    EXPECT_EQ(st[0].measuredIterationNs, 1640126760);
    EXPECT_EQ(finish[0], 4273828996);
    EXPECT_EQ(st[0].totalStallNs, 969417304);
    EXPECT_EQ(st[0].pageFaultBatches, 78u);

    EXPECT_EQ(st[1].measuredIterationNs, 1639461779);
    EXPECT_EQ(finish[1], 4280998319);
    EXPECT_EQ(st[1].totalStallNs, 1300752307);
    EXPECT_EQ(st[1].pageFaultBatches, 2443u);

    EXPECT_EQ(st[2].measuredIterationNs, 1237278686);
    EXPECT_EQ(finish[2], 2685569490);
    EXPECT_EQ(st[2].totalStallNs, 1161089015);
    EXPECT_EQ(st[2].pageFaultBatches, 0u);

    EXPECT_EQ(node.machine.gpu().busyNs, 2137597198);
    EXPECT_EQ(node.machine.ssd().stats().nandWriteBytes, 3586260992u);
    EXPECT_EQ(node.machine.ssd().stats().hostWriteBytes, 3572817920u);
}

}  // namespace
}  // namespace g10
