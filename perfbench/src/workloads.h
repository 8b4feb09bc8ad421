/**
 * @file
 * The benchmark's workloads. Each drives the G10 library through its
 * public API as a closed loop of back-to-back ops; constructing one is
 * the workload's set-up (what a CLI does before its first run), and
 * runOp() is one op, checked and serialized.
 *
 * A traced op runs the same calls with spans around each layer's
 * public functions (and, for the zoo, the compile pipeline split into
 * its public stages in the order compileG10Plan uses), and adds the
 * layers' work counts to a Counts map. An untraced op passes null for
 * both and records nothing.
 *
 * Counts that only the engine's counter registries hold (plan-cache
 * hits, decided probes, simulated kernels) cost far more to collect
 * than the op they count, so a traced op never collects them: separate
 * untimed counting ops do, once per input (the totals are the same for
 * every op on an input).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "fleet/fleet_spec.h"
#include "serve/serve_spec.h"
#include "spans.h"

namespace perfbench {

/** Layer work counts summed over the traced ops of a run. */
using Counts = std::map<std::string, double>;

/** What one op returns. */
struct OpResult
{
    /** The op's input, keying the digest check (same input, same
     *  document). */
    std::string input;

    /** The serialized result document (report layer output). */
    std::string document;

    Violations violations;
};

struct WorkloadOptions
{
    /** Drives the generated inputs (see each workload). */
    std::uint64_t seed = 1;

    /** ExperimentEngine pool size, for workloads that use one. */
    unsigned workers = 1;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Ops in one round. The measured phase runs whole rounds so every
     * run covers each op kind equally (the zoo's round is one pass
     * over its model x design grid).
     */
    virtual std::size_t roundOps() const { return 1; }

    /**
     * Rounds whose ops the percentiles are taken over: a fixed count,
     * so the tail rank falls on the same input's ops on every host and
     * commit (see firstRounds()). A run measures at least this many
     * rounds, and more while --seconds have not passed.
     */
    virtual std::size_t measuredRounds() const = 0;

    /** Untimed ops run (and checked) before the measured phase. */
    virtual std::size_t warmupOps() const = 0;

    /** True when the workload's ops have counter registries to collect
     *  (a traced run then runs one round of counting ops). */
    virtual bool collectsCounters() const { return false; }

    /** Engine workers the ops use (1 when there is no engine). */
    virtual unsigned workers() const = 0;

    /**
     * Run op @p index (taken modulo roundOps()). @p spans and
     * @p counts are non-null for a traced op. @p registry is non-null
     * for an untimed counting op, which collects the engine's counter
     * registries and adds their totals to it.
     */
    virtual OpResult runOp(std::size_t index, SpanRecorder* spans,
                           Counts* counts, Counts* registry = nullptr) = 0;

    /**
     * Check that the traced op's split calls do the same work as the
     * one-call path they replace (run once, before a traced run).
     */
    virtual Violations verifyTracedPath() { return {}; }

    /** The workload's simulated results (sim_* metrics), taken from
     *  the ops run so far; empty before the first op. */
    virtual std::map<std::string, double> simMetrics() const = 0;
};

/** The inputs of knee_elastic and fleet_stream for @p seed:
 *  examples/elastic.serve, and examples/fleet.serve on a longer
 *  stream, as described at each definition. */
g10::ServeSpec kneeSpec(std::uint64_t seed);
g10::FleetSpec fleetSpec(std::uint64_t seed);

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/**
 * Set up workload @p name (nullptr when unknown). Set-up layers are
 * recorded on @p setupSpans when it is non-null.
 */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const WorkloadOptions& options,
                                       SpanRecorder* setupSpans);

/**
 * Mean self time per span of @p layers over @p n recorded ops (or
 * set-ups): `<prefix><layer>_ms` for each layer, `<prefix>other_ms` =
 * the mean wall-clock @p wallNs / n minus their sum, and the mean wall
 * itself as @p wallName. The layer rows plus other_ms add up to the
 * wall exactly.
 */
std::map<std::string, double> breakdown(
    const std::vector<std::string>& layers, const SpanRecorder& spans,
    std::size_t n, double wallNs, const std::string& prefix,
    const std::string& wallName);

/** Per-op work counts and the ratios derived from them, from the
 *  @p sums of @p n traced ops, the @p registry sums of @p registryOps
 *  counting ops, and the op spans (for host ns per simulated kernel). */
std::map<std::string, double> layerCounts(const Counts& sums,
                                          const Counts& registry,
                                          std::size_t registryOps,
                                          const SpanRecorder& spans,
                                          std::size_t n);

/** Every simulated metric name, and the per-layer span names of ops
 *  and of set-up, in report order. */
const std::vector<std::string>& simMetricNames();
const std::vector<std::string>& opLayers();
const std::vector<std::string>& setupLayers();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
