/**
 * @file
 * Self-test of the benchmark's own helpers: the order statistics and
 * tail-percentile rule (and that the fixed percentile sample keeps the
 * tail on one input's ops whatever the host speed), the host-speed
 * calibration and its scaling to reference times, span self times
 * and the per-layer breakdown, the output checks (each must reject a
 * doctored result), the traced zoo op against the untraced one, the
 * knee search's counting op, the metric list against BENCHMARK.json,
 * and the workload inputs against the example files they reproduce.
 *
 *   bash perfbench/run.sh --selftest
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "api/g10.h"
#include "calibration.h"
#include "checks.h"
#include "metrics.h"
#include "serve/probe_scheduler.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int failures = 0;

void
expect(bool ok, const char* what, int line)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "selftest.cc:%d: FAILED: %s\n", line, what);
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
testOrderStatistics()
{
    EXPECT(median({}) == 0.0);
    EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
    EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);

    // Reference values from Python's statistics.quantiles(v, n=4).
    Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT(near(q.q1, 2.75) && near(q.q3, 8.25));
    q = quartiles({3, 1});
    EXPECT(near(q.q1, 0.5) && near(q.q3, 3.5));
    q = quartiles({10, 20, 30});
    EXPECT(near(q.q1, 10.0) && near(q.q3, 30.0));
    q = quartiles({0.5, 7, 2.25, 9, 4, 1.5, 3});
    EXPECT(near(q.q1, 1.5) && near(q.q3, 7.0));

    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    EXPECT(nearestRank(hundred, 90) == 90.0);
    EXPECT(nearestRank(hundred, 50) == 50.0);
    EXPECT(nearestRank({7.0}, 99) == 7.0);
}

void
testTailPercentile()
{
    EXPECT(tailPercentile(0) == 0);
    EXPECT(tailPercentile(10) == 0);  // nothing can leave ten beyond
    EXPECT(tailPercentile(11) == 9);
    EXPECT(tailPercentile(20) == 50);
    EXPECT(tailPercentile(100) == 90);
    EXPECT(tailPercentile(1000) == 99);
    EXPECT(samplesBeyond(100, 90) == 10);
    EXPECT(samplesBeyond(100, 91) == 9);
    // The highest qualifying percentile, for every count.
    for (std::size_t n = 11; n <= 3000; ++n) {
        int p = tailPercentile(n);
        bool ok = p >= 1 && samplesBeyond(n, p) >= kTailBeyond &&
                  (p == 99 || samplesBeyond(n, p + 1) < kTailBeyond);
        if (!ok) {
            EXPECT(ok);
            break;
        }
    }
}

/**
 * Op times of @p rounds rounds of @p inputs inputs whose costs are far
 * apart (input i costs about 1000 * (i + 1), a little more each round),
 * in the order a run records them.
 */
std::vector<double>
clustered(std::size_t inputs, std::size_t rounds)
{
    std::vector<double> v;
    for (std::size_t r = 0; r < rounds; ++r)
        for (std::size_t i = 0; i < inputs; ++i)
            v.push_back(1000.0 * static_cast<double>(i + 1) +
                        static_cast<double>((r * 7 + i * 3) % 11));
    return v;
}

/** Input of a clustered() sample. */
int
inputOf(double ms)
{
    return static_cast<int>(ms / 1000.0) - 1;
}

/** Input whose op is the tail of @p v. */
int
tailInput(const std::vector<double>& v)
{
    return inputOf(nearestRank(v, tailPercentile(v.size())));
}

void
testTailStaysOnOneInput()
{
    // Five inputs like the zoo's rows: timing however many rounds fit
    // in the measured time moves the tail from one input to another
    // between 10 and 11 rounds...
    EXPECT(tailInput(clustered(5, 10)) != tailInput(clustered(5, 11)));

    // ...while the fixed sample of each workload keeps it on the same
    // input however many rounds the host measured, and away from the
    // edge of that input's ops.
    WorkloadOptions opt;
    for (const std::string& name : workloadNames()) {
        auto wl = makeWorkload(name, opt, nullptr);
        const std::size_t ops = wl->roundOps();
        const std::size_t rounds = wl->measuredRounds();
        const std::vector<double> fixed =
            firstRounds(clustered(ops, rounds), ops, rounds);
        EXPECT(fixed.size() == ops * rounds);
        EXPECT(samplesBeyond(fixed.size(), tailPercentile(fixed.size())) >=
               kTailBeyond);
        const int input = tailInput(fixed);
        for (std::size_t k = rounds; k <= 3 * rounds; ++k) {
            std::vector<double> cut =
                firstRounds(clustered(ops, k), ops, rounds);
            if (tailInput(cut) != input) {
                std::fprintf(stderr, "%s, %zu rounds:\n", name.c_str(), k);
                EXPECT(tailInput(cut) == input);
            }
        }
        if (ops > 1 && rounds >= 3) {
            std::vector<double> sorted = fixed;
            std::sort(sorted.begin(), sorted.end());
            const int p = tailPercentile(sorted.size());
            const std::size_t rank = sorted.size() - samplesBeyond(
                                                         sorted.size(), p);
            EXPECT(inputOf(sorted[rank - 2]) == input &&
                   inputOf(sorted[rank]) == input);
        }
    }
    EXPECT(firstRounds({1, 2, 3}, 2, 5).size() == 3);
}

void
testCalibration()
{
    CalibrationScratch scratch;
    EXPECT(calibrationKernel(&scratch) == kCalibrationChecksum);
    EXPECT(calibrationKernel(&scratch) == kCalibrationChecksum);
    EXPECT(calibrationBlockNs() > 0.0);

    // At the reference speed, reference time is host time.
    const double r = kReferenceNs;
    std::vector<double> same = toReference({5.0, 7.0, 9.0}, {r, r, r});
    EXPECT(same.size() == 3 && near(same[0], 5.0) && near(same[2], 9.0));

    // A host running twice as slow (calibration too) reports the same.
    std::vector<double> slow =
        toReference({10.0, 14.0, 18.0}, {2 * r, 2 * r, 2 * r});
    EXPECT(near(slow[0], 5.0) && near(slow[1], 7.0) && near(slow[2], 9.0));

    // One interrupted block does not move its neighbours' scale.
    std::vector<double> host(9, 4.0);
    std::vector<double> cal(9, r);
    cal[4] = 10 * r;
    std::vector<double> ref = toReference(host, cal);
    for (double v : ref)
        EXPECT(near(v, 4.0));

    // A drift is followed op by op: each op is scaled by the blocks
    // around it, not by the run's median.
    std::vector<double> drift = toReference(
        {1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2},
        {r, r, r, r, r, r, r, r, 2 * r, 2 * r, 2 * r, 2 * r, 2 * r, 2 * r,
         2 * r, 2 * r}, 1);
    EXPECT(near(drift.front(), 1.0) && near(drift.back(), 1.0));
}

void
testSpansAndBreakdown()
{
    SpanRecorder rec;
    const auto before = Clock::now();
    {
        Span outer(&rec, "a");
        {
            Span inner(&rec, "b");
            volatile double x = 0;
            for (int i = 0; i < 100000; ++i)
                x = x + i;
        }
    }
    const auto wall = static_cast<double>(nsBetween(before, Clock::now()));
    EXPECT(rec.selfNs().at("a") >= 0 && rec.selfNs().at("b") > 0);
    EXPECT(rec.count().at("a") == 1 && rec.count().at("b") == 1);
    // Self times partition the outer span, which lies inside the wall.
    EXPECT(static_cast<double>(rec.totalSelfNs()) <= wall);

    auto rows = breakdown({"a", "b", "c"}, rec, 1, wall, "x.", "x.wall_ms");
    EXPECT(rows.at("x.c_ms") == 0.0);
    double sum = rows.at("x.a_ms") + rows.at("x.b_ms") + rows.at("x.c_ms") +
                 rows.at("x.other_ms");
    EXPECT(near(sum, rows.at("x.wall_ms")));
    EXPECT(rows.at("x.other_ms") >= 0.0);

    {
        SpanRecorder* none = nullptr;
        Span ignored(none, "ignored");  // a null recorder records nothing
    }
    EXPECT(rec.count().count("ignored") == 0);
}

void
testRunChecks()
{
    g10::RunResult r = g10::Experiment()
                           .model("BERT")
                           .batch(128)
                           .design("g10")
                           .scaleDown(64)
                           .run();
    EXPECT(checkRunResult(r).empty());

    g10::RunResult faster = r;
    faster.stats.measuredIterationNs = r.stats.idealIterationNs - 1;
    EXPECT(!checkRunResult(faster).empty());

    g10::RunResult failed = r;
    failed.stats.failed = true;
    EXPECT(!checkRunResult(failed).empty());

}

g10::ServeCellResult
cell(std::uint64_t offered, std::uint64_t rejected, std::uint64_t failed)
{
    g10::ServeCellResult c;
    c.design = "g10";
    c.metrics.offered = offered;
    c.metrics.rejected = rejected;
    c.metrics.admitted = offered - rejected;
    c.metrics.failed = failed;
    c.metrics.completed = offered - rejected - failed;
    return c;
}

void
testServeAndFleetChecks()
{
    g10::ServeSweepResult sweep;
    sweep.cells = {cell(12, 0, 0), cell(12, 3, 1)};
    EXPECT(checkServeResult(sweep).empty());
    sweep.cells[1].metrics.rejected = 2;  // offered != admitted+rejected
    EXPECT(!checkServeResult(sweep).empty());
    sweep.cells[1] = cell(12, 3, 1);
    sweep.cells[1].metrics.completed += 1;  // admitted != completed+failed
    EXPECT(!checkServeResult(sweep).empty());
    EXPECT(!checkServeResult(g10::ServeSweepResult{}).empty());

    g10::FleetPlacementResult p;
    p.nodeCells = {cell(5, 0, 0), cell(7, 1, 0)};
    p.nodeOffered = {5, 7};
    p.fleet.offered = 12;
    p.fleet.rejected = 1;
    p.fleet.admitted = 11;
    p.fleet.completed = 11;
    g10::FleetResult fleet;
    fleet.placements = {p};
    EXPECT(checkFleetResult(fleet).empty());
    fleet.placements[0].nodeOffered = {5, 6};  // nodes miss a request
    EXPECT(!checkFleetResult(fleet).empty());
    fleet.placements[0] = p;
    fleet.placements[0].nodeCells[0] = cell(4, 0, 0);
    EXPECT(!checkFleetResult(fleet).empty());
    fleet.placements[0] = p;
    fleet.placements[0].fleet.completed = 10;
    EXPECT(!checkFleetResult(fleet).empty());
}

void
testDigestBook()
{
    DigestBook book;
    EXPECT(book.check("in", "{\"a\": 1}").empty());
    EXPECT(book.check("in", "{\"a\": 1}").empty());
    EXPECT(book.check("other", "{\"a\": 2}").empty());
    EXPECT(!book.check("in", "{\"a\": 2}").empty());
    EXPECT(book.digests().size() == 2);
    EXPECT(fnv1a64("") == 1469598103934665603ULL);
    EXPECT(hex64(0xabcULL) == "0000000000000abc");
}

void
testTracedZooOpMatches()
{
    WorkloadOptions opt;
    auto zoo = makeWorkload("zoo_paper", opt, nullptr);
    SpanRecorder spans;
    Counts counts;
    // Every model's row: the staged, traced calls produce the same
    // document as the one-call path.
    for (std::size_t i = 0; i < zoo->roundOps(); ++i) {
        OpResult plain = zoo->runOp(i, nullptr, nullptr);
        OpResult traced = zoo->runOp(i, &spans, &counts);
        EXPECT(plain.violations.empty() && traced.violations.empty());
        EXPECT(plain.input == traced.input);
        EXPECT(plain.document == traced.document);
    }
    EXPECT(spans.count().at("sim.replay") == 25);  // 5 models x 5 designs
    EXPECT(spans.count().at("core.sched.evict") == 10);  // 5 models x 2
    EXPECT(counts.at("models.kernels") > 0);
    EXPECT(zoo->verifyTracedPath().empty());
    EXPECT(zoo->simMetrics().size() == 2);
    EXPECT(makeWorkload("no_such_workload", opt, nullptr) == nullptr);
}

void
testKneeCountingOp()
{
    WorkloadOptions opt;
    auto knee = makeWorkload("knee_elastic", opt, nullptr);
    EXPECT(knee->collectsCounters());
    SpanRecorder spans;
    Counts counts;
    Counts registry;
    OpResult traced = knee->runOp(0, &spans, &counts);
    OpResult counting = knee->runOp(0, nullptr, nullptr, &registry);
    EXPECT(traced.violations.empty() && counting.violations.empty());
    EXPECT(traced.document == counting.document);
    // A traced op times the untraced op's work: no registry counts.
    EXPECT(counts.count("serve.kernels_simulated") == 0);
    EXPECT(counts.count("serve.probes.issued") == 1);
    EXPECT(registry.at("serve.kernels_simulated") > 0);
    EXPECT(registry.at("serve.probes.decided") > 0);
    EXPECT(registry.at("serve.plan_cache.hits") +
               registry.at("serve.plan_cache.misses") >
           0);

    Counts sums = {{"serve.probes.issued", 20.0}};
    std::map<std::string, double> rows =
        layerCounts(sums, {{"serve.kernels_simulated", 300.0}}, 3, spans, 2);
    EXPECT(near(rows.at("serve.kernels_simulated"), 100.0));
    EXPECT(near(rows.at("serve.probes.issued"), 10.0));
}

/** (name, unit) of every metric in one section of BENCHMARK.json. */
std::vector<std::pair<std::string, std::string>>
listedIn(const std::string& json, const std::string& section)
{
    std::vector<std::pair<std::string, std::string>> out;
    const std::size_t from = json.find("\"" + section + "\"");
    const std::size_t to = json.find(']', from);
    if (from == std::string::npos || to == std::string::npos)
        return out;
    const std::string body = json.substr(from, to - from);
    static const std::regex entry(
        "\"name\"\\s*:\\s*\"([^\"]+)\"\\s*,\\s*\"unit\"\\s*:"
        "\\s*\"([^\"]+)\"");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
         it != std::sregex_iterator(); ++it)
        out.emplace_back((*it)[1].str(), (*it)[2].str());
    return out;
}

void
testMetricListMatchesBenchmarkJson()
{
    std::ifstream in(PERFBENCH_BENCHMARK_JSON);
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    EXPECT(!json.empty());

    std::vector<std::pair<std::string, std::string>> listed;
    for (bool traced : {false, true})
        for (const MetricDef& def : metricDefs())
            if (def.traced == traced)
                listed.emplace_back(def.name, def.unit);
    std::vector<std::pair<std::string, std::string>> inJson =
        listedIn(json, "end_to_end");
    for (const auto& m : listedIn(json, "per_layer"))
        inJson.push_back(m);
    EXPECT(listed == inJson);
    EXPECT(listedIn(json, "end_to_end").size() ==
           static_cast<std::size_t>(std::count_if(
               metricDefs().begin(), metricDefs().end(),
               [](const MetricDef& d) { return !d.traced; })));
    EXPECT(findMetric("setup_s") && !findMetric("no_such_metric"));
}

void
testInputsMatchExamples()
{
    const std::string dir = PERFBENCH_EXAMPLES_DIR;

    g10::ServeSpec file = g10::parseServeFile(dir + "/elastic.serve");
    g10::ServeSpec knee = kneeSpec(file.seed);
    EXPECT(g10::fingerprintServeSpec(knee) ==
           g10::fingerprintServeSpec(file));
    EXPECT(knee.ratesAuto && file.ratesAuto);
    EXPECT(knee.rateProbes == file.rateProbes);
    EXPECT(knee.resolvedRateLo() == file.resolvedRateLo());
    EXPECT(knee.rateHi == file.rateHi);
    EXPECT(knee.sweepPlanCache && knee.speculativeProbes);

    g10::FleetSpec ffile = g10::parseFleetFile(dir + "/fleet.serve");
    g10::FleetSpec fleet = fleetSpec(ffile.seed);
    EXPECT(fleet.requests == 240);
    ffile.requests = fleet.requests;  // the one knob the stream extends
    EXPECT(fleet.rate == ffile.rate && fleet.design == ffile.design);
    EXPECT(fleet.placements == ffile.placements);
    EXPECT(fleet.nodes.size() == ffile.nodes.size());
    for (std::size_t i = 0;
         i < fleet.nodes.size() && i < ffile.nodes.size(); ++i) {
        EXPECT(fleet.nodes[i].name == ffile.nodes[i].name);
        EXPECT(fleet.nodes[i].families == ffile.nodes[i].families);
        EXPECT(g10::fingerprintServeSpec(fleet.nodeServeSpec(i)) ==
               g10::fingerprintServeSpec(ffile.nodeServeSpec(i)));
    }
}

}  // namespace

int
main()
{
    testOrderStatistics();
    testTailPercentile();
    testTailStaysOnOneInput();
    testCalibration();
    testSpansAndBreakdown();
    testRunChecks();
    testServeAndFleetChecks();
    testDigestBook();
    testTracedZooOpMatches();
    testKneeCountingOp();
    testMetricListMatchesBenchmarkJson();
    testInputsMatchExamples();
    if (failures == 0)
        std::printf("perfbench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
