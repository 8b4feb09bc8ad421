/**
 * @file
 * perfbench -- the repository's seeded end-to-end benchmark program.
 *
 * Usage:
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
 *   perfbench --check-determinism --seed <n>
 *
 * A run sets the workload up several times, one set-up alive at a
 * time (set-up time is their median), runs untimed warm-up ops, then a
 * closed loop of ops: the workload's measuredRounds() whole rounds,
 * and more ops until --seconds have passed. Timing metrics are taken
 * over the fixed rounds only, so which ops they cover does not depend
 * on host speed, and are scaled to a reference host speed by
 * calibration blocks run between ops (see calibration.h). Every op's
 * output is checked (see checks.h); an op failing a check counts as
 * failed and the run exits 1 after printing its result.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates
 * untraced and traced rounds and reports the per-layer metrics: each
 * layer's mean self time per traced op, the residual other_ms, work
 * counts, and the tracing overhead traced ÷ untraced op median. Counts
 * held only by the engine's counter registries come from one round of
 * untimed counting ops after the warm-up.
 *
 * Every metric printed must be listed in metrics.cc for the run's
 * mode, and every metric listed there must be printed.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "calibration.h"
#include "common/parse_util.h"
#include "metrics.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 11;

/** Hard cap on the measured phase, seconds. */
constexpr double kMaxMeasureSeconds = 120.0;

/** Violations printed per run before the rest are only counted. */
constexpr int kMaxReported = 20;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 0;
    int trace = 0;
    bool determinism = false;
};

int
usage(int code)
{
    std::fprintf(
        stderr,
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace 0|1\n"
        "       perfbench --check-determinism --seed <n>\n"
        "workloads:");
    for (const std::string& w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return code;
}

bool
parseArgs(int argc, char** argv, Args* out)
{
    bool haveSeed = false;
    bool haveSeconds = false;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--check-determinism") {
            out->determinism = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        long long v = 0;
        if (flag == "--workload") {
            out->workload = value;
        } else if (flag == "--seed") {
            if (!g10::parseIntStrict(value, &v) || v < 0)
                return false;
            out->seed = static_cast<std::uint64_t>(v);
            haveSeed = true;
        } else if (flag == "--seconds") {
            if (!g10::parseIntStrict(value, &v) || v < 1 || v > 600)
                return false;
            out->seconds = static_cast<int>(v);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (!g10::parseIntStrict(value, &v) || (v != 0 && v != 1))
                return false;
            out->trace = static_cast<int>(v);
            haveTrace = true;
        } else {
            return false;
        }
    }
    if (out->determinism)
        return haveSeed && out->workload.empty();
    return haveSeed && haveSeconds && haveTrace &&
           std::count(workloadNames().begin(), workloadNames().end(),
                      out->workload) == 1;
}

unsigned
hostCpus()
{
    long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

/** Engine pool size: min(4, nproc). */
unsigned
engineWorkers()
{
    return std::min(4u, hostCpus());
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Shortest round-tripping decimal form of @p v. */
std::string
number(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/** Unit of a listed metric. */
std::string
unitOf(const std::string& metric)
{
    const MetricDef* def = findMetric(metric);
    return def ? def->unit : "?";
}

/**
 * Check that @p names are exactly the metrics metrics.cc lists for
 * the run's mode (@p traced); print what differs.
 */
bool
matchesMetricList(const std::vector<std::string>& names, bool traced)
{
    bool ok = true;
    std::set<std::string> printed(names.begin(), names.end());
    for (const std::string& name : names) {
        const MetricDef* def = findMetric(name);
        if (def == nullptr || def->traced != traced) {
            std::fprintf(stderr, "[perfbench] metric %s is not listed "
                         "for --trace %d\n", name.c_str(), traced ? 1 : 0);
            ok = false;
        }
    }
    for (const MetricDef& def : metricDefs())
        if (def.traced == traced && printed.count(def.name) == 0) {
            std::fprintf(stderr, "[perfbench] listed metric %s was not "
                         "measured\n", def.name);
            ok = false;
        }
    return ok;
}

/** One printed metric row. */
struct Row
{
    std::string name;
    double value = 0.0;
    std::string spread;  ///< "q1 q3 n" columns, or "-" when single
    std::string note;
};

void
printRows(const std::vector<Row>& rows)
{
    std::printf("%-36s %-6s %14s %14s %14s %6s  %s\n", "metric", "unit",
                "median", "q1", "q3", "n", "note");
    for (const Row& r : rows)
        std::printf("%-36s %-6s %14.6g %s  %s\n", r.name.c_str(),
                    unitOf(r.name).c_str(), r.value, r.spread.c_str(),
                    r.note.c_str());
}

std::string
spreadOf(const std::vector<double>& v)
{
    Quartiles q = quartiles(v);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%14.6g %14.6g %6zu", q.q1, q.q3,
                  v.size());
    return buf;
}

std::string
single(std::size_t n)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%14s %14s %6zu", "-", "-", n);
    return buf;
}

/** Run one workload op at 1 worker and at the engine pool size and
 *  compare the documents byte for byte. */
int
checkDeterminism(std::uint64_t seed)
{
    const unsigned wide = engineWorkers();
    bool ok = true;
    for (const char* name : {"knee_elastic", "fleet_stream"}) {
        std::string docs[2];
        unsigned counts[2] = {1, wide};
        for (int i = 0; i < 2; ++i) {
            WorkloadOptions opt;
            opt.seed = seed;
            opt.workers = counts[i];
            auto wl = makeWorkload(name, opt, nullptr);
            OpResult r = wl->runOp(0, nullptr, nullptr);
            for (const std::string& v : r.violations) {
                std::fprintf(stderr, "[perfbench] %s\n", v.c_str());
                ok = false;
            }
            docs[i] = r.document;
        }
        const bool same = docs[0] == docs[1];
        ok = ok && same;
        std::printf("determinism %s seed %llu: 1 worker %s, %u workers "
                    "%s: %s\n",
                    name, static_cast<unsigned long long>(seed),
                    hex64(fnv1a64(docs[0])).c_str(), wide,
                    hex64(fnv1a64(docs[1])).c_str(),
                    same ? "byte-identical" : "DIFFERENT");
    }
    return ok ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    const auto processStart = Clock::now();
    Args args;
    if (!parseArgs(argc, argv, &args))
        return usage(2);
    if (args.determinism)
        return checkDeterminism(args.seed);
    const bool traced = args.trace == 1;

    // ---- set-up, several times; the last one is kept ----------------
    WorkloadOptions options;
    options.seed = args.seed;
    options.workers = engineWorkers();
    SpanRecorder setupSpans;
    std::vector<double> setupS;
    std::vector<double> setupCal;  // calibration block after each set-up
    double setupWallNs = 0.0;
    std::unique_ptr<Workload> wl;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        wl.reset();  // one set-up alive at a time, as in a fresh process
        const auto start = rep == 0 ? processStart : Clock::now();
        wl = makeWorkload(args.workload, options,
                          traced ? &setupSpans : nullptr);
        const double ns =
            static_cast<double>(nsBetween(start, Clock::now()));
        setupS.push_back(ns * 1e-9);
        setupWallNs += ns;
        setupCal.push_back(calibrationBlockNs());
    }
    const std::vector<double> setupRefS = toReference(setupS, setupCal);

    // ---- checked ops --------------------------------------------------
    DigestBook book;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    int reported = 0;
    auto fail = [&](const Violations& v) {
        ++failed;
        for (const std::string& msg : v)
            if (reported++ < kMaxReported)
                std::fprintf(stderr, "[perfbench] check failed: %s\n",
                             msg.c_str());
    };
    SpanRecorder opSpans;
    Counts counts;
    Counts registry;
    double opCpuS = 0.0;  // process CPU seconds spent inside ops
    auto runOp = [&](std::size_t index, bool tracedOp,
                     Counts* counting = nullptr) {
        const double cpu0 = processCpuSeconds();
        const auto start = Clock::now();
        OpResult r = wl->runOp(index, tracedOp ? &opSpans : nullptr,
                               tracedOp ? &counts : nullptr, counting);
        const double ns =
            static_cast<double>(nsBetween(start, Clock::now()));
        opCpuS += processCpuSeconds() - cpu0;
        Violations v = r.violations;
        Violations d = book.check(r.input, r.document);
        v.insert(v.end(), d.begin(), d.end());
        ++attempted;
        if (!v.empty())
            fail(v);
        return ns;
    };

    if (traced) {
        ++attempted;
        Violations v = wl->verifyTracedPath();
        if (!v.empty())
            fail(v);
    }
    for (std::size_t i = 0; i < wl->warmupOps(); ++i)
        runOp(i, false);
    const std::size_t registryOps =
        traced && wl->collectsCounters() ? wl->roundOps() : 0;
    for (std::size_t i = 0; i < registryOps; ++i)
        runOp(i, false, &registry);
    for (int i = 0; i < 3; ++i)
        calibrationBlockNs();  // warm the reference code too

    // ---- measured phase: whole rounds, closed loop --------------------
    // A traced run splits its rounds evenly between untraced and traced
    // ones, so each kind gets a fixed count of at least one round. A
    // calibration block follows every op (see calibration.h).
    const std::size_t rounds =
        traced ? 2 * std::max<std::size_t>(1, wl->measuredRounds() / 2)
               : wl->measuredRounds();
    const std::size_t sampleRounds = traced ? rounds / 2 : rounds;
    std::vector<double> opMs;
    std::vector<bool> opTraced;
    std::vector<double> opCal;
    double tracedWallNs = 0.0;
    opCpuS = 0.0;
    const std::size_t fixedOps = rounds * wl->roundOps();
    const auto start = Clock::now();
    double elapsed = 0.0;
    for (std::size_t index = 0;; ++index) {
        const bool tracedRound =
            traced && (index / wl->roundOps()) % 2 == 1;
        double ns = runOp(index, tracedRound);
        opCal.push_back(calibrationBlockNs());
        opMs.push_back(ns * 1e-6);
        opTraced.push_back(tracedRound);
        if (tracedRound)
            tracedWallNs += ns;
        elapsed = 1e-9 * static_cast<double>(nsBetween(start, Clock::now()));
        if ((index + 1 >= fixedOps && elapsed >= args.seconds) ||
            elapsed >= kMaxMeasureSeconds)
            break;
    }
    const std::vector<double> opRefMs = toReference(opMs, opCal);
    std::vector<double> untracedMs, untracedRefMs, tracedMs, tracedRefMs;
    for (std::size_t i = 0; i < opMs.size(); ++i) {
        (opTraced[i] ? tracedMs : untracedMs).push_back(opMs[i]);
        (opTraced[i] ? tracedRefMs : untracedRefMs).push_back(opRefMs[i]);
    }
    const std::vector<double> sample =
        firstRounds(untracedRefMs, wl->roundOps(), sampleRounds);
    const std::vector<double> hostSample =
        firstRounds(untracedMs, wl->roundOps(), sampleRounds);
    const std::vector<double> tracedSample =
        firstRounds(tracedRefMs, wl->roundOps(), sampleRounds);
    auto sum = [](const std::vector<double>& v) {
        double total = 0.0;
        for (double x : v)
            total += x;
        return total;
    };
    if (sample.size() < sampleRounds * wl->roundOps())
        std::fprintf(stderr, "[perfbench] warning: the %.0f s cap ended "
                     "the run before %zu rounds\n", kMaxMeasureSeconds,
                     rounds);

    // ---- report ---------------------------------------------------------
    const std::map<std::string, double> sim = wl->simMetrics();
    std::printf("# perfbench: workload %s, seed %llu, trace %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                traced ? "on (per-layer metrics)" : "off (end-to-end)");
    const char* revision = std::getenv("PERFBENCH_REVISION");
    std::printf("# host: nproc %u, engine workers %u, compiler %s (%s), "
                "revision %s\n",
                hostCpus(), wl->workers(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, revision ? revision : "unknown");
    std::printf("# ops: %zu warm-up and %zu counting (discarded), %zu "
                "untraced + %zu traced measured over %.3f s, percentiles "
                "over the first %zu rounds of %zu ops; %llu of %llu "
                "attempted failed (op_fail_ratio %.6g)\n",
                wl->warmupOps(), registryOps, untracedMs.size(),
                tracedMs.size(), elapsed, sampleRounds, wl->roundOps(),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted),
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0);
    std::printf("# host speed: calibration block median %.4g ms over the "
                "measured phase (reference %.4g ms); *_ref_* metrics and "
                "setup_s are scaled to the reference speed\n",
                1e-6 * median(opCal), 1e-6 * kReferenceNs);
    for (const auto& [input, digest] : book.digests())
        std::printf("# digest %s %s\n", input.c_str(),
                    hex64(digest).c_str());
    for (const auto& [name, v] : sim)
        std::printf("# simulated %s = %s %s\n", name.c_str(),
                    number(v).c_str(), unitOf(name).c_str());

    std::vector<Row> rows;
    if (!traced) {
        const int tailP = tailPercentile(sample.size());
        char note[96];
        std::snprintf(note, sizeof(note),
                      "p%d of %zu samples, %zu beyond it", tailP,
                      sample.size(), samplesBeyond(sample.size(), tailP));
        char hostNote[160];
        std::snprintf(hostNote, sizeof(hostNote),
                      "median op; host %.6g ms", median(hostSample));
        char tailNote[160];
        std::snprintf(tailNote, sizeof(tailNote), "%s; host %.6g ms", note,
                      nearestRank(hostSample, tailP));
        char rateNote[160];
        std::snprintf(rateNote, sizeof(rateNote),
                      "ops of the fixed rounds per second inside them; "
                      "host %.6g 1/s",
                      static_cast<double>(hostSample.size()) /
                          (1e-3 * sum(hostSample)));
        char setupNote[160];
        std::snprintf(setupNote, sizeof(setupNote),
                      "median of set-ups; host %.6g s, cold first from "
                      "process start %.6g s",
                      median(setupS), setupS.front());
        rows.push_back({"op_p50_ref_ms", median(sample), spreadOf(sample),
                        hostNote});
        rows.push_back({"op_tail_ref_ms", nearestRank(sample, tailP),
                        single(sample.size()), tailNote});
        rows.push_back({"ops_per_ref_s",
                        static_cast<double>(sample.size()) /
                            (1e-3 * sum(sample)),
                        single(sample.size()), rateNote});
        rows.push_back({"setup_s", median(setupRefS), spreadOf(setupRefS),
                        setupNote});
        rows.push_back({"peak_rss_mb", peakRssMb(), single(1),
                        "peak resident set of this process"});
        rows.push_back(
            {"op_ok_ratio",
             attempted ? static_cast<double>(attempted - failed) /
                             static_cast<double>(attempted)
                       : 0.0,
             single(attempted), "1 - op_fail_ratio"});
    } else {
        const std::size_t n = tracedMs.size();
        std::map<std::string, double> layer =
            breakdown(opLayers(), opSpans, n, tracedWallNs, "",
                      "traced_op_ms");
        for (const auto& [k, v] :
             breakdown(setupLayers(), setupSpans, kSetupReps, setupWallNs,
                       "setup.", "setup.wall_ms"))
            layer[k] = v;
        for (const auto& [k, v] :
             layerCounts(counts, registry, registryOps, opSpans, n))
            layer[k] = v;
        layer["engine.cpu_util"] =
            opCpuS /
            (1e-3 * sum(opMs) * static_cast<double>(wl->workers()));
        layer["obs.traced_over_off"] =
            median(tracedSample) / std::max(median(sample), 1e-9);
        for (const std::string& name : simMetricNames()) {
            auto it = sim.find(name);
            layer[name] = it == sim.end() ? 0.0 : it->second;
        }
        for (const auto& [k, v] : layer)
            rows.push_back({k, v,
                            single(k.rfind("setup.", 0) == 0
                                       ? static_cast<std::size_t>(kSetupReps)
                                       : n),
                            ""});
    }
    std::vector<std::string> names;
    for (const Row& r : rows)
        names.push_back(r.name);
    if (!matchesMetricList(names, traced))
        return 3;
    printRows(rows);

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        json += (i ? ", \"" : "\"") + rows[i].name + "\": {\"value\": " +
                number(rows[i].value) + ", \"unit\": \"" +
                unitOf(rows[i].name) + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}
