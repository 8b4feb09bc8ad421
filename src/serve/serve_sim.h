/**
 * @file
 * Open-loop serving simulator: a G10-managed GPU+SSD node absorbing
 * sustained request traffic with dynamic job churn.
 *
 * Where MultiTenantSim runs a fixed mix to completion, ServeSim models
 * a *service*: requests arrive over time from a seeded open-loop
 * process, wait in a bounded admission queue when the node is full,
 * lease a memory partition + compile their migration plan on admission
 * (warm-starting from the previous plan of the same model when the
 * batch size or partition capacity differs), share the GPU / PCIe
 * fabric / SSD with the other active jobs at kernel granularity, and
 * on departure release their partition and trim their SSD log space
 * for the next arrival.
 *
 * Partitions are *elastic* (ServeSpec::partitionPolicy): instead of
 * leasing one of N fixed equal slots, the proportional policy keeps
 * every active job at an equal share of the whole machine (a lone job
 * gets all of it), and the ondemand policy splits live leases in half
 * under arrival pressure and merges capacity back with hysteresis on
 * departure. Capacity changes flow through
 * SimRuntime::resizeMemoryBudget() (evicting down to the new
 * watermark through the migration machinery) and trigger a warm
 * replan of the job's migration schedule at the new capacity.
 *
 * ServeSweep runs the cross product of designs × offered arrival rates
 * — each cell an independent deterministic simulation — and derives
 * SLO-centric metrics: queueing delay and completion-latency
 * percentiles (p50/p95/p99), per-request slowdown vs. the unloaded
 * latency, SLO-attainment fraction, the sustained-throughput capacity
 * (max offered rate with a bounded queue, i.e. zero rejections; with
 * `rates = auto` a per-design bisection finds this knee instead of
 * sweeping a hand-guessed axis), and consolidated SSD write
 * amplification under churn. Results are bit-identical for a given
 * (spec, seed) regardless of worker count.
 */

#ifndef G10_SERVE_SERVE_SIM_H
#define G10_SERVE_SERVE_SIM_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/experiment_engine.h"
#include "graph/trace.h"
#include "obs/counters.h"
#include "serve/serve_spec.h"
#include "sim/ssd/ssd_device.h"

namespace g10 {

class Arena;
class SweepPlanCache;
class TraceSink;

/** One offered request, after arrival generation / trace replay. */
struct ServeRequest
{
    TimeNs arrivalNs = 0;
    std::size_t classIndex = 0;
};

/**
 * Length of one compiled plan's ideal timeline (kernel durations +
 * launch overhead) times @p iterations — the service-time estimate the
 * SJF admission key and the fleet router's backlog accounting use.
 * Known before the job runs and identical for every design.
 */
TimeNs planServiceEstimateNs(const KernelTrace& trace,
                             const SystemConfig& sys, int iterations);

/**
 * The largest single-kernel working set of @p trace (page-rounded).
 * This is exactly what the runtime's OOM guard pins: a lease below it
 * is guaranteed to fail.
 */
Bytes maxKernelWorkingSet(const KernelTrace& trace, Bytes page);

/**
 * Per-class elastic capacity floor: the largest kernel working set
 * plus 12.5% headroom for in-flight transfers. ServeSweep computes
 * these once per sweep; the fleet router reuses them as the compiled
 * working-set footprint for plan-aware placement.
 */
Bytes serveClassGpuFloor(const KernelTrace& trace, Bytes page);

/**
 * Everything a serving scenario's cells share, built once from the
 * scenario and index-matched by class: the resolved classes (derived
 * from the trace for ArrivalKind::Trace, one per distinct request
 * shape), their scaled traces, capacity floors and plan service
 * estimates, plus the trace replay at rate 1. Floors and estimates
 * depend only on the page size and launch overhead, which scaling and
 * fleet node platforms leave alone, so one workload serves every node
 * of a fleet.
 */
struct ServeWorkload
{
    /** Fatal (exit 1) on a scenario with no classes or a bad trace. */
    explicit ServeWorkload(const ServeScenario& scenario);

    std::vector<ServeJobClass> classes;  ///< resolved
    std::vector<KernelTrace> traces;     ///< per class, scaled
    std::vector<Bytes> floors;           ///< serveClassGpuFloor
    std::vector<TimeNs> serviceEstNs;    ///< planServiceEstimateNs
    std::vector<ServeRequest> traced;    ///< ArrivalKind::Trace only
};

/**
 * The offered request stream of @p scenario at @p rate. Poisson and
 * bursty arrivals draw their times from scenario.seed and their class
 * picks (weighted by ServeJobClass::weight) from their own engine
 * seeded seed + 1, so the class sequence is identical at every rate —
 * streams differ only in arrival spacing. Trace arrivals replay
 * workload.traced with @p rate as a speed multiplier.
 */
std::vector<ServeRequest>
requestStream(const ServeScenario& scenario,
              const ServeWorkload& workload, double rate);

/** Fate of one request inside a cell. */
struct ServeJobOutcome
{
    std::size_t request = 0;    ///< index into the cell's request list
    std::size_t classIndex = 0;
    TimeNs arrivalNs = 0;
    TimeNs admitNs = -1;        ///< -1 when rejected
    TimeNs finishNs = -1;       ///< -1 when rejected
    bool rejected = false;      ///< admission queue was full
    bool failed = false;        ///< ran but failed (e.g. hard OOM)
    bool warmCompiled = false;  ///< plan compile used a warm start

    /** Queueing delay (admission - arrival); 0 when rejected. */
    TimeNs queueNs() const
    {
        return admitNs >= 0 ? admitNs - arrivalNs : 0;
    }

    /** Completion latency (finish - arrival); 0 unless completed. */
    TimeNs latencyNs() const
    {
        return finishNs >= 0 ? finishNs - arrivalNs : 0;
    }

    /** latency / unloaded class latency; 0 unless completed. */
    double slowdown = 0.0;

    /** Completed within sloFactor × the unloaded latency. */
    bool sloMet = false;
};

/** Aggregated SLO-centric metrics of one cell. */
struct ServeMetrics
{
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;  ///< admitted and did not fail
    std::uint64_t failed = 0;

    // Queueing delay over admitted requests.
    TimeNs queueP50Ns = 0, queueP95Ns = 0, queueP99Ns = 0;
    TimeNs queueMaxNs = 0;
    double queueMeanNs = 0.0;

    // Completion latency over completed requests.
    TimeNs latencyP50Ns = 0, latencyP95Ns = 0, latencyP99Ns = 0;
    double latencyMeanNs = 0.0;

    // Slowdown vs. unloaded latency, over completed requests.
    double slowdownMean = 0.0;
    double slowdownP95 = 0.0;

    /** Fraction of *offered* requests that met their SLO. */
    double sloAttainment = 0.0;

    /** Completed requests per second of makespan. */
    double throughputRps = 0.0;

    TimeNs makespanNs = 0;       ///< last finish - first arrival
    double gpuUtilization = 0.0;

    std::size_t maxQueueDepth = 0;
    std::uint64_t starvationPromotions = 0;
    std::uint64_t coldCompiles = 0;
    std::uint64_t warmCompiles = 0;

    // ---- Elastic-partition activity (all zero under Static) --------

    /** Lease capacity changes applied to live jobs. */
    std::uint64_t resizes = 0;
    std::uint64_t resizeShrinks = 0;
    std::uint64_t resizeGrows = 0;

    /** Admissions that split a live lease (OnDemand). */
    std::uint64_t splits = 0;

    /** GPU bytes shrinks drained out of live jobs. */
    Bytes resizeEvictedBytes = 0;

    /** Mid-run plan recompiles triggered by a capacity resize. */
    std::uint64_t replans = 0;

    /**
     * Warm starts that crossed a capacity change: mid-run replans
     * that reused prior picks, plus admission compiles seeded by a
     * schedule compiled at a different GPU capacity.
     */
    std::uint64_t resizeWarmHits = 0;

    /** Prior-schedule picks recommitted / invalidated across all
     *  warm-started compiles of the cell (scheduler replay stats). */
    std::uint64_t warmReplayedMigrations = 0;
    std::uint64_t warmDroppedMigrations = 0;
};

/** One (design, rate) cell of the sweep. */
struct ServeCellResult
{
    std::string design;      ///< registry key, e.g. "g10"
    std::string designName;  ///< display name, e.g. "G10"
    double rate = 0.0;       ///< offered rate (or trace multiplier)

    std::vector<ServeJobOutcome> jobs;
    ServeMetrics metrics;

    /** Wear of the cell's shared SSD (consolidated WAF under churn). */
    SsdStats ssd;

    /**
     * Open-loop stability: every offered request was admitted (the
     * bounded queue never overflowed) and none failed.
     */
    bool sustained() const
    {
        return metrics.rejected == 0 && metrics.failed == 0;
    }
};

/** Unloaded reference latency of one (class, design) pair. */
struct ServeClassBaseline
{
    TimeNs unloadedNs = 0;  ///< end-to-end on one idle partition slot
    bool failed = false;
};

/**
 * Class @p cls of @p workload run alone under @p design on one idle
 * partition slot @p slotSys with per-job seed @p seed: the latency
 * reference the SLO and slowdown metrics are defined against, shared
 * by every partition policy so elastic results stay comparable to
 * static. G10-family designs compile a cold plan through @p planCache
 * (null = compile directly); its key is the one a cell's first
 * slot-sized admission compiles, so the cells start warm.
 */
ServeClassBaseline unloadedBaseline(const std::string& design,
                                    const ServeWorkload& workload,
                                    std::size_t cls, unsigned scaleDown,
                                    const SystemConfig& slotSys,
                                    std::uint64_t seed,
                                    SweepPlanCache* planCache);

/**
 * Auto-knee probe-scheduler totals of one search (all zero without
 * one): probe executions issued, how many of those were speculative,
 * the speculative split into consumed vs mispredicted, and acquires
 * that found a finished result waiting. Reporting-only (speculation
 * depends on pool timing) and never serialized; the decided path the
 * results record is byte-identical regardless.
 */
struct ProbeTotals
{
    std::uint64_t probesIssued = 0;
    std::uint64_t probesSpeculative = 0;
    std::uint64_t probeSpecUsed = 0;
    std::uint64_t probeSpecWasted = 0;
    std::uint64_t probeCacheHits = 0;
};

/** Whole-sweep outcome (what g10serve reports); the ProbeTotals are
 *  the auto-knee search's. */
struct ServeSweepResult : ProbeTotals
{
    ServeSpec spec;

    /** Display names of the job classes, by class index. */
    std::vector<std::string> classNames;

    /** Unloaded latencies, design-major: [design][class]. */
    std::vector<std::vector<ServeClassBaseline>> baselines;

    /** Cells, design-major: designs[i] × rates[j] at i*rates+j. */
    std::vector<ServeCellResult> cells;

    /**
     * Per design: the highest tested rate every offered request was
     * served at (sustained() cell), 0 when even the lowest rate
     * overflowed the queue. In auto mode (spec.ratesAuto) this is the
     * bisected capacity knee.
     */
    std::vector<double> sustainedRate;

    /** Per design: probes spent by the auto knee search (empty when
     *  the spec carried an explicit rate axis). */
    std::vector<std::uint64_t> rateProbes;

    /**
     * Cross-probe plan-cache totals (all zero when the sweep-scoped
     * cache is off). Deterministic in auto-knee mode on a 1-worker
     * pool (probes run sequentially per design over disjoint key
     * spaces); grid-mode parallel cells — and speculative knee probes
     * on bigger pools — can race on a key, so these are
     * reporting-only and never golden-pinned. Cell results always are
     * deterministic.
     */
    std::uint64_t planCacheHits = 0;
    std::uint64_t planCacheMisses = 0;
    std::uint64_t planCacheEntries = 0;

    /**
     * Sweep-wide observability counters (empty unless the sweep ran
     * with ServeObsRequest::collectCounters): per-cell registries
     * merged in grid order, so the totals are identical for every
     * worker count.
     */
    CounterRegistry counters;

    /** True when no cell had failed (crashed) jobs. Rejections are
     *  load shedding, not failures, and do not clear this. */
    bool allSucceeded() const;
};

/** Simulates one (design, rate) cell; see ServeSweep for the grid. */
class ServeSim
{
  public:
    /**
     * @param spec      scenario (slots, queue, SLO, platform)
     * @param design    registry key of the design under test
     * @param rate      offered rate / trace multiplier of this cell
     * @param workload  the scenario's classes, traces, floors and
     *                  service estimates (built once per sweep)
     * @param requests  the offered request sequence for this rate,
     *                  in non-decreasing arrival order (it panics
     *                  otherwise); same-time arrivals are offered in
     *                  request order
     * @param baselines per-class unloaded latencies for this design
     */
    ServeSim(const ServeSpec& spec, std::string design, double rate,
             const ServeWorkload& workload,
             std::vector<ServeRequest> requests,
             const std::vector<ServeClassBaseline>& baselines);

    ServeCellResult run();

    /**
     * Attach observability before run(): serving events + per-job
     * runtime events go to @p sink, aggregates to @p counters (either
     * may be null). Pure observation — the cell result is
     * bit-identical with or without observers.
     */
    void setObservers(TraceSink* sink, CounterRegistry* counters)
    {
        sink_ = sink;
        counters_ = counters;
    }

    /**
     * Route this cell's G10-family compiles through @p cache (may be
     * null = compile directly). The cache memoizes the pure compile
     * call only; the cell's own per-model warm-start chain and its
     * warm/cold metrics are unchanged, so results stay bit-identical —
     * cached or not (see SweepPlanCache).
     */
    void setPlanCache(SweepPlanCache* cache) { planCache_ = cache; }

    /**
     * Back this cell's per-job runtime scratch with @p arena (may be
     * null = the cell creates its own). The caller must not reset()
     * the arena until run() returns; sequential probes over one arena
     * reset() between cells to reuse the high-water allocation.
     */
    void setArena(Arena* arena) { arena_ = arena; }

  private:
    const ServeSpec& spec_;
    std::string design_;
    double rate_;
    const ServeWorkload& work_;
    std::vector<ServeRequest> requests_;
    const std::vector<ServeClassBaseline>& baselines_;
    TraceSink* sink_ = nullptr;
    CounterRegistry* counters_ = nullptr;
    SweepPlanCache* planCache_ = nullptr;
    Arena* arena_ = nullptr;
};

/** Observability hookup for one sweep (all fields optional). */
struct ServeObsRequest
{
    /** Merge every cell's CounterRegistry into the result. */
    bool collectCounters = false;

    /**
     * Event sink for *one* representative cell (the grid's first
     * cell; in auto-rate mode the first probe of the first design) —
     * a sweep-wide event stream would interleave unrelated simulated
     * timelines.
     */
    TraceSink* sink = nullptr;

    bool any() const { return collectCounters || sink != nullptr; }
};

/** Runs the designs × rates grid of a ServeSpec. */
class ServeSweep
{
  public:
    explicit ServeSweep(const ServeSpec& spec);
    ~ServeSweep();  // defined where SweepPlanCache is complete

    /**
     * Run every cell through @p engine's pool. Cells are independent
     * deterministic simulations, so the result is bit-identical
     * regardless of the pool size; cells come back in grid order.
     */
    ServeSweepResult run(ExperimentEngine& engine);

    /** run() with observability (counters merged in grid order). */
    ServeSweepResult run(ExperimentEngine& engine,
                         const ServeObsRequest& obs);

    /**
     * Share an externally owned plan cache instead of this sweep's own
     * (pass null to disable caching outright, overriding the spec
     * toggle). Callers running several sweeps over the same spec
     * family (benchmarks timing static vs elastic) use this so later
     * sweeps start warm.
     */
    void sharePlanCache(SweepPlanCache* cache);

  private:
    ServeSpec spec_;
    ServeWorkload workload_;

    /** Sweep-scoped compile cache (spec.sweepPlanCache); null = off. */
    std::unique_ptr<SweepPlanCache> ownedPlanCache_;
    SweepPlanCache* planCache_ = nullptr;

    /**
     * `rates = auto`: per design, grow the probe rate geometrically
     * until the queue overflows, then bisect the bracket for the
     * sustained-throughput knee. Cells record every probe in probe
     * order; designs run concurrently across the pool.
     */
    void runAutoRates(ExperimentEngine& engine,
                      const ServeObsRequest& obs,
                      ServeSweepResult* out);
};

}  // namespace g10

#endif  // G10_SERVE_SERVE_SIM_H
