/**
 * @file
 * Serving-scenario description: the job classes a node serves, the
 * arrival process that offers them, the admission policy and partition
 * slot count, the SLO definition, and the two sweep axes (designs ×
 * arrival rates) — plus a strict `key = value` serve-file parser for
 * the g10serve CLI, following the mix-file format conventions.
 */

#ifndef G10_SERVE_SERVE_SPEC_H
#define G10_SERVE_SERVE_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/system_config.h"
#include "common/types.h"
#include "models/model_zoo.h"
#include "serve/admission.h"
#include "serve/arrival.h"

namespace g10 {

/**
 * One class of requests the node serves (a model fine-tuning /
 * training job shape users submit repeatedly).
 */
struct ServeJobClass
{
    /** Display name; defaults to "<model>-<batch>". */
    std::string name;

    ModelKind model = ModelKind::ResNet152;

    /** Paper-scale batch size; 0 = the model's Fig. 11 batch. */
    int batchSize = 0;

    /** Training iterations per request. */
    int iterations = 1;

    /** Admission priority (AdmitPolicy::Priority). */
    int priority = 1;

    /** Relative share of the arrival mix (probability weight). */
    double weight = 1.0;
};

/** @p cls with its defaults filled in: the paper batch when
 *  batchSize <= 0, and the name "<model>-<batch>" when empty. */
ServeJobClass resolvedClass(ServeJobClass cls);

/**
 * How the serving node divides its memory among concurrent jobs.
 *
 *  - Static: `slots` fixed equal partitions, leased and reclaimed
 *    whole (the original behavior; compiled plans are maximally
 *    reusable because every lease has the same geometry).
 *  - Proportional: up to maxActive concurrent jobs share the whole
 *    machine equally — each admission shrinks the incumbents to
 *    1/(k+1) and each departure grows the survivors back (growth is
 *    hysteresis-gated). A lone job gets the entire machine.
 *  - OnDemand: arrivals take a static-slot-sized grant from the free
 *    pool while one exists, then split the largest live lease in
 *    half (never below half a slot); departures return capacity to
 *    the pool and hysteresis-gated grows top the smallest leases
 *    back up toward a full slot.
 */
enum class PartitionPolicy
{
    Static,
    Proportional,
    OnDemand,
};

/** CLI/file name of a partition policy ("static", "proportional",
 *  "ondemand"). */
const char* partitionPolicyName(PartitionPolicy policy);

/** Parse a partition policy name; false on unknown input. */
bool partitionPolicyFromName(const std::string& name,
                             PartitionPolicy* out);

struct SpecEntry;

/**
 * The scenario a serving node runs, as serve and fleet files share it:
 * the platform, partitioning and admission, the SLO, the arrival
 * process and its job classes, and the auto knee search's bracket.
 */
struct ServeScenario
{
    /** Platform before scaling (Table 2 defaults); a fleet's default
     *  node platform. */
    SystemConfig sys;

    /** Divide batches and capacities by this factor (1 = paper scale). */
    unsigned scaleDown = 16;

    /** Base RNG seed (arrivals, class picks, per-job perturbations).
     *  A fleet's shared arrival stream draws from it, and every node's
     *  ServeSpec seed is split from it (fleetNodeSeed). */
    std::uint64_t seed = 42;

    /** Concurrent partition slots (jobs actively sharing the GPU).
     *  Elastic policies use this as the equal-split reference size. */
    int slots = 2;

    /** How capacity is divided among concurrent jobs. */
    PartitionPolicy partitionPolicy = PartitionPolicy::Static;

    /**
     * Minimum relative capacity change that triggers a *growth*
     * resize of a live job (elastic policies). Shrinks needed to
     * admit an arrival are always applied; growth below the
     * hysteresis is deferred so departures don't thrash leases.
     */
    double resizeHysteresis = 0.25;

    /** Admission queue bound; arrivals beyond it are rejected. */
    std::size_t queueCapacity = 8;

    AdmitPolicy admit = AdmitPolicy::Fifo;

    /** Priority starvation-guard window; <= 0 disables the guard. */
    TimeNs starvationNs = 500 * MSEC;

    /**
     * A request meets its SLO when its completion latency (finish -
     * arrival) is within sloFactor × its class's unloaded latency (the
     * same job alone on one partition slot).
     */
    double sloFactor = 3.0;

    /** Requests offered per cell (Poisson/Bursty); a fleet offers
     *  them to the whole fleet. */
    int requests = 32;

    /** Arrival process (fleets: poisson | bursty only; trace arrivals
     *  are a per-node concept). */
    ArrivalSpec arrival;

    /**
     * `rates = auto` (fleet: `rate = auto`): instead of sweeping
     * hand-guessed rates, bisect for the sustained-throughput knee —
     * grow the probe rate geometrically until a bounded queue
     * overflows, then bisect the bracket. A serve sweep searches per
     * design, a fleet per placement; probes share one plan cache.
     */
    bool ratesAuto = false;

    /** First probe rate of the auto search; 0 = 0.05 req/s. */
    double rateLo = 0.0;

    /** Optional auto-search ceiling; 0 = unbounded (probe-limited). */
    double rateHi = 0.0;

    /** Max probes (cells) per design / placement in auto mode. */
    int rateProbes = 10;

    /**
     * Speculatively evaluate the auto search's possible next probes
     * on idle pool workers while the decided probe runs
     * (`speculate = on|off`). Pure wall-clock, like sweep_cache: the
     * decided bisection path only *reads* memoized probe results in
     * sequential order, so the knee, every cell, and the serialized
     * document are byte-identical either way (and at any worker
     * count). Inert on pools with fewer than two workers.
     */
    bool speculativeProbes = true;

    /** The auto search's actual first probe rate: rateLo, defaulted,
     *  and clamped under the rateHi ceiling when one is set. */
    double resolvedRateLo() const
    {
        double lo = rateLo > 0.0 ? rateLo : 0.05;
        if (rateHi > 0.0 && lo > rateHi)
            lo = rateHi;
        return lo;
    }

    /** Job classes of the arrival mix (Poisson/Bursty; trace files
     *  carry their own). */
    std::vector<ServeJobClass> classes;
};

/** Apply @p entry to @p out when its key is one serve and fleet files
 *  share (the platform keys included); false when it is not one. */
bool applyScenarioKey(const SpecEntry& entry, ServeScenario* out);

/** The keys applyScenarioKey accepts. */
const std::vector<std::string>& scenarioKeyNames();

/** Everything one serving experiment needs. */
struct ServeSpec : ServeScenario
{
    /**
     * Elastic concurrency cap: most jobs simultaneously holding a
     * lease. 0 = derive (slots for proportional, 2*slots for
     * ondemand; static always uses slots).
     */
    int maxActive = 0;

    /** The cap after derivation (what the engine actually uses). */
    int resolvedMaxActive() const
    {
        if (partitionPolicy == PartitionPolicy::Static)
            return slots;
        if (maxActive > 0)
            return maxActive;
        return partitionPolicy == PartitionPolicy::OnDemand ? 2 * slots
                                                            : slots;
    }

    /**
     * Sweep axis: offered arrival rates in requests/second
     * (Poisson/Bursty). For trace arrivals each value is a time-scale
     * multiplier instead: rate 2 replays the trace twice as fast.
     * Empty iff ratesAuto (capacity-knee bisection).
     */
    std::vector<double> rates;

    /**
     * Memoize G10-family plan compiles across the whole sweep — rate
     * probes, grid cells, and the unloaded-baseline compiles share
     * one cache (`sweep_cache = on|off`). Pure wall-clock: results
     * are bit-identical either way (the compiler is deterministic, so
     * a cache hit returns exactly the plan a recompile would build),
     * which is what makes the auto-knee bisection cheap — probe N+1
     * replays probe N's per-model compile chain from the cache.
     */
    bool sweepPlanCache = true;

    /** Sweep axis: memory-management designs, by registry name. */
    std::vector<std::string> designs;
};

/** The keys a serve file accepts. */
const std::vector<std::string>& serveFileKeys();

/**
 * Parse a serve file. Unknown keys, malformed values, and inconsistent
 * scenarios are fatal (exit 1) with file/line diagnostics. Format:
 *
 *   # scenario-level keys
 *   scale       = 32          # 1/N platform scale
 *   seed        = 42
 *   slots       = 2           # concurrent partition slots
 *   partition_policy = static # static | proportional | ondemand
 *   resize_hysteresis = 0.25  # min relative growth worth a resize
 *   max_active  = 4           # elastic concurrency cap (0 = derive)
 *   queue       = 8           # admission queue bound
 *   admission   = fifo        # fifo | sjf | priority
 *   starvation_ms = 500       # priority starvation guard (0 = off)
 *   slo_factor  = 3           # SLO = factor x unloaded latency
 *   requests    = 32          # offered requests per cell
 *   arrival     = poisson     # poisson | bursty | trace
 *   burst_on_ms / burst_off_ms = <bursty windows>
 *   trace       = <file.arr>  # arrival = trace
 *   rates       = 5,10,20     # requests/s sweep (trace: multipliers)
 *   rates       = auto        # or: bisect for the capacity knee
 *   rate_lo / rate_hi = <auto-search bracket (optional)>
 *   rate_probes = 10          # max probes per design (auto mode)
 *   sweep_cache = on          # on | off: cross-probe plan-compile
 *                             # cache (wall-clock only; results are
 *                             # bit-identical either way)
 *   speculate   = on          # on | off: speculative parallel knee
 *                             # probes (wall-clock only; the decided
 *                             # path is byte-identical either way)
 *   designs     = baseuvm,deepum,g10
 *   gpu_mem_gb / host_mem_gb / ssd_gbps / pcie_gbps = <platform knobs>
 *
 *   # one line per class: "class = <Model> key=value ..."
 *   class = ResNet152 batch=256 weight=2
 *   class = BERT iterations=2 priority=4
 */
ServeSpec parseServeFile(const std::string& path);

/** The demo class mix g10serve --demo and g10fleet --demo serve: two
 *  ResNet152 batch shapes (512 and 256, the latter twice as likely)
 *  and BERT at its paper batch. */
std::vector<ServeJobClass> demoServeClasses();

/**
 * The built-in demo scenario (g10serve --demo and the CI smoke run):
 * two ResNet batches + BERT under Poisson traffic, three designs at
 * three rates, at platform scale 1/@p scale.
 */
ServeSpec demoServeSpec(unsigned scale);

}  // namespace g10

#endif  // G10_SERVE_SERVE_SPEC_H
