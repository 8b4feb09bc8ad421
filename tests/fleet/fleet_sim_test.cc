/** @file Fleet-simulator tests: bit-identity across pool sizes and
 *  repeated runs, the single-node golden against a directly-constructed
 *  ServeSim cell, the affinity warm-hit win over JSQ, and fleet metric
 *  invariants. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "api/report.h"
#include "engine/partition.h"
#include "fleet/fleet_sim.h"
#include "graph/trace.h"

namespace g10 {
namespace {

/** Serialize a fleet result to a string (deep-compare helper). */
std::string
toJson(const FleetResult& r)
{
    std::ostringstream os;
    writeFleetResultJson(os, r);
    return os.str();
}

TEST(FleetSim, ResultIsBitIdenticalAcrossPoolSizes)
{
    FleetSpec spec = demoFleetSpec(64);
    ExperimentEngine serial(1);
    ExperimentEngine pooled(4);
    FleetResult a = FleetSim(spec).run(serial);
    FleetResult b = FleetSim(spec).run(pooled);

    // The serialized g10.fleet_result.v1 documents — every metric,
    // every per-node cell, every job outcome that feeds them — must
    // match byte for byte.
    EXPECT_EQ(toJson(a), toJson(b));
}

TEST(FleetSim, RepeatedRunsReuseBaselinesAndMatch)
{
    // The second run() reuses the baselines the first one computed;
    // both documents, and a fresh FleetSim's, must match byte for byte.
    FleetSpec spec = demoFleetSpec(64);
    ExperimentEngine engine(2);
    FleetSim sim(spec);
    const std::string first = toJson(sim.run(engine));
    const std::string second = toJson(sim.run(engine));
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, toJson(FleetSim(spec).run(engine)));
}

TEST(FleetSim, SingleNodeFleetMatchesPlainServeSim)
{
    // A one-node fleet is exactly one serving cell: the fleet layer
    // must add routing and aggregation, never simulation drift. Build
    // the same cell directly from public serve ingredients and
    // compare field by field.
    FleetSpec spec = demoFleetSpec(64);
    spec.nodes.resize(1);  // big0 alone
    spec.placements = {PlacementKind::JoinShortestQueue};

    FleetSim fleet(spec);
    ExperimentEngine engine(2);
    FleetResult res = fleet.run(engine);
    ASSERT_EQ(res.placements.size(), 1u);
    ASSERT_EQ(res.placements[0].nodeCells.size(), 1u);
    const ServeCellResult& fleetCell = res.placements[0].nodeCells[0];

    // With one node every placement routes the whole stream to it.
    RoutedStream routed =
        fleet.routed(PlacementKind::JoinShortestQueue);
    ASSERT_EQ(routed.perNode[0].size(), fleet.stream().size());

    const ServeWorkload workload(fleet.nodeServeSpec(0));
    ServeSim direct(fleet.nodeServeSpec(0), spec.design, spec.rate,
                    workload, routed.perNode[0], res.baselines[0]);
    ServeCellResult cell = direct.run();

    EXPECT_EQ(cell.design, fleetCell.design);
    EXPECT_EQ(cell.designName, fleetCell.designName);
    EXPECT_DOUBLE_EQ(cell.rate, fleetCell.rate);
    EXPECT_EQ(cell.metrics.offered, fleetCell.metrics.offered);
    EXPECT_EQ(cell.metrics.admitted, fleetCell.metrics.admitted);
    EXPECT_EQ(cell.metrics.rejected, fleetCell.metrics.rejected);
    EXPECT_EQ(cell.metrics.completed, fleetCell.metrics.completed);
    EXPECT_EQ(cell.metrics.failed, fleetCell.metrics.failed);
    EXPECT_EQ(cell.metrics.makespanNs, fleetCell.metrics.makespanNs);
    EXPECT_EQ(cell.metrics.latencyP95Ns,
              fleetCell.metrics.latencyP95Ns);
    EXPECT_DOUBLE_EQ(cell.metrics.sloAttainment,
                     fleetCell.metrics.sloAttainment);
    EXPECT_DOUBLE_EQ(cell.metrics.gpuUtilization,
                     fleetCell.metrics.gpuUtilization);
    EXPECT_EQ(cell.metrics.warmCompiles,
              fleetCell.metrics.warmCompiles);
    EXPECT_EQ(cell.metrics.coldCompiles,
              fleetCell.metrics.coldCompiles);
    EXPECT_EQ(cell.ssd.nandWriteBytes, fleetCell.ssd.nandWriteBytes);
    EXPECT_EQ(cell.ssd.hostWriteBytes, fleetCell.ssd.hostWriteBytes);
    ASSERT_EQ(cell.jobs.size(), fleetCell.jobs.size());
    for (std::size_t j = 0; j < cell.jobs.size(); ++j) {
        EXPECT_EQ(cell.jobs[j].arrivalNs, fleetCell.jobs[j].arrivalNs);
        EXPECT_EQ(cell.jobs[j].admitNs, fleetCell.jobs[j].admitNs);
        EXPECT_EQ(cell.jobs[j].finishNs, fleetCell.jobs[j].finishNs);
        EXPECT_EQ(cell.jobs[j].sloMet, fleetCell.jobs[j].sloMet);
    }

    // Fleet aggregates of one node collapse onto the cell.
    const FleetMetrics& fm = res.placements[0].fleet;
    EXPECT_EQ(fm.offered, cell.metrics.offered);
    EXPECT_DOUBLE_EQ(fm.throughputRps, fm.capacityPerNodeRps);
    EXPECT_DOUBLE_EQ(fm.utilMin, fm.utilMax);
    EXPECT_DOUBLE_EQ(fm.utilJain, 1.0);
}

TEST(FleetSim, BaselinesMatchEachNodesServeSweep)
{
    // A node's SLO reference is exactly the unloaded baseline a serve
    // sweep of that node's own spec computes: the node's seed and one
    // idle slot of the node's platform.
    FleetSpec spec = demoFleetSpec(64);
    FleetSim fleet(spec);
    ExperimentEngine engine(2);
    FleetResult res = fleet.run(engine);
    ASSERT_EQ(res.baselines.size(), spec.nodes.size());
    for (std::size_t n = 0; n < spec.nodes.size(); ++n) {
        ServeSweepResult node =
            ServeSweep(fleet.nodeServeSpec(n)).run(engine);
        ASSERT_EQ(node.baselines.size(), 1u);
        ASSERT_EQ(res.baselines[n].size(), node.baselines[0].size());
        for (std::size_t c = 0; c < res.baselines[n].size(); ++c) {
            EXPECT_EQ(res.baselines[n][c].unloadedNs,
                      node.baselines[0][c].unloadedNs)
                << "node " << n << " class " << c;
            EXPECT_EQ(res.baselines[n][c].failed,
                      node.baselines[0][c].failed)
                << "node " << n << " class " << c;
        }
    }
}

TEST(FleetSim, AffinityBeatsJsqOnWarmPlanCacheHits)
{
    // The reason class-affinity routing exists: pinning a model
    // family per node means each node's plan cache sees the same
    // model repeatedly — strictly more warm compiles than spreading
    // by queue depth (the ISSUE acceptance check, pinned at demo
    // scale).
    FleetSpec spec = demoFleetSpec(64);
    FleetSim fleet(spec);
    ExperimentEngine engine(4);
    FleetResult res = fleet.run(engine);

    ASSERT_EQ(res.placements.size(), 3u);
    const FleetMetrics& jsq = res.placements[0].fleet;
    const FleetMetrics& affinity = res.placements[2].fleet;
    EXPECT_GT(affinity.warmCompiles, jsq.warmCompiles);
    EXPECT_LT(affinity.coldCompiles, jsq.coldCompiles);

    // The demo stays inside capacity under every policy.
    for (const FleetPlacementResult& p : res.placements) {
        EXPECT_EQ(p.fleet.rejected, 0u)
            << placementKindName(p.kind);
        EXPECT_EQ(p.fleet.failed, 0u) << placementKindName(p.kind);
    }
    EXPECT_TRUE(res.allSucceeded());
}

TEST(FleetSim, FleetMetricInvariantsHold)
{
    FleetSpec spec = demoFleetSpec(64);
    FleetSim fleet(spec);
    ExperimentEngine engine(4);
    FleetResult res = fleet.run(engine);

    ASSERT_EQ(res.nodeNames.size(), spec.nodes.size());
    ASSERT_EQ(res.classNames.size(), spec.classes.size());
    ASSERT_EQ(res.baselines.size(), spec.nodes.size());
    for (const auto& nodeBase : res.baselines) {
        ASSERT_EQ(nodeBase.size(), spec.classes.size());
        for (const ServeClassBaseline& b : nodeBase) {
            EXPECT_FALSE(b.failed);
            EXPECT_GT(b.unloadedNs, 0);
        }
    }

    for (const FleetPlacementResult& p : res.placements) {
        const FleetMetrics& m = p.fleet;
        SCOPED_TRACE(placementKindName(p.kind));

        // Conservation across the split: the fleet sees the whole
        // stream exactly once.
        EXPECT_EQ(m.offered,
                  static_cast<std::uint64_t>(spec.requests));
        EXPECT_EQ(m.admitted + m.rejected, m.offered);
        EXPECT_EQ(m.completed + m.failed, m.admitted);
        std::uint64_t offeredSum = 0;
        for (std::size_t n = 0; n < p.nodeCells.size(); ++n) {
            EXPECT_EQ(p.nodeCells[n].metrics.offered,
                      p.nodeOffered[n]);
            offeredSum += p.nodeOffered[n];
        }
        EXPECT_EQ(offeredSum, m.offered);

        // Spread and rates are well-formed.
        EXPECT_GE(m.utilMin, 0.0);
        EXPECT_GE(m.utilMax, m.utilMean);
        EXPECT_GE(m.utilMean, m.utilMin);
        EXPECT_LE(m.utilMax, 1.0);
        EXPECT_GT(m.utilJain, 0.0);
        EXPECT_LE(m.utilJain, 1.0 + 1e-12);
        EXPECT_GT(m.makespanNs, 0);
        EXPECT_GT(m.throughputRps, 0.0);
        EXPECT_DOUBLE_EQ(
            m.capacityPerNodeRps,
            m.throughputRps /
                static_cast<double>(spec.nodes.size()));
        EXPECT_GE(m.consolidatedWaf, 1.0);
    }
}

TEST(FleetSim, CountersMergeWorkerCountIndependently)
{
    FleetSpec spec = demoFleetSpec(64);
    FleetObsRequest obs;
    obs.collectCounters = true;

    ExperimentEngine serial(1);
    ExperimentEngine pooled(3);
    FleetResult a = FleetSim(spec).run(serial, obs);
    FleetResult b = FleetSim(spec).run(pooled, obs);

    std::ostringstream ja, jb;
    writeMetricsJson(ja, a.counters);
    writeMetricsJson(jb, b.counters);
    EXPECT_FALSE(ja.str().empty());
    EXPECT_EQ(ja.str(), jb.str());
}

TEST(FleetSimDeath, RejectsEmptyFleet)
{
    FleetSpec spec = demoFleetSpec(64);
    spec.nodes.clear();
    EXPECT_EXIT(FleetSim fleet(spec), ::testing::ExitedWithCode(1),
                "at least one node");
}

}  // namespace
}  // namespace g10
