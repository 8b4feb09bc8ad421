#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <sstream>

#include "api/g10.h"
#include "serve/plan_cache.h"
#include "stats.h"

namespace perfbench {

using namespace g10;

/** examples/elastic.serve, with the arrival seed from the benchmark. */
ServeSpec
kneeSpec(std::uint64_t seed)
{
    ServeSpec spec = demoServeSpec(32);
    spec.seed = seed;
    spec.partitionPolicy = PartitionPolicy::OnDemand;
    spec.resizeHysteresis = 0.25;
    spec.queueCapacity = 4;
    spec.requests = 12;
    spec.rates.clear();
    spec.ratesAuto = true;
    spec.rateProbes = 12;
    spec.designs = {"baseuvm", "g10"};
    return spec;
}

/** examples/fleet.serve extended to a 240-request stream drawn from the
 *  benchmark's seed. */
FleetSpec
fleetSpec(std::uint64_t seed)
{
    FleetSpec spec = demoFleetSpec(64);
    spec.seed = seed;
    spec.requests = 240;
    return spec;
}

namespace {

void
add(Counts* counts, const char* name, double v)
{
    if (counts)
        (*counts)[name] += v;
}

/** Seed of input @p k of a round, split from the run's @p seed with a
 *  splitmix64 finalizer. */
std::uint64_t
inputSeed(std::uint64_t seed, std::size_t k)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Serialize @p result through the report layer (api.report span). */
template <typename R>
std::string
report(const R& result, void (*write)(std::ostream&, const R&),
       SpanRecorder* spans)
{
    Span s(spans, "api.report");
    std::ostringstream os;
    write(os, result);
    return os.str();
}

/** Replay-layer counts of one simulated run. */
void
addRunStats(const ExecStats& st, Counts* counts)
{
    add(counts, "sim.page_fault_batches",
        static_cast<double>(st.pageFaultBatches));
    add(counts, "sim.migrated_bytes",
        static_cast<double>(st.traffic.totalToGpu() +
                            st.traffic.totalFromGpu()));
    add(counts, "sim.ssd.gc_runs", static_cast<double>(st.ssd.gcRuns));
    add(counts, "sim.ssd.host_write_bytes",
        static_cast<double>(st.ssd.hostWriteBytes));
    add(counts, "sim.ssd.nand_write_bytes",
        static_cast<double>(st.ssd.nandWriteBytes));
    add(counts, "sim.stall_ns", static_cast<double>(st.totalStallNs));
    add(counts, "sim.measured_ns",
        static_cast<double>(st.measuredIterationNs));
}

/** Serve-layer counts of one serving cell. */
void
addCellCounts(const ServeCellResult& cell, Counts* counts)
{
    const ServeMetrics& m = cell.metrics;
    add(counts, "serve.warm_compiles", static_cast<double>(m.warmCompiles));
    add(counts, "serve.cold_compiles", static_cast<double>(m.coldCompiles));
    add(counts, "serve.resizes", static_cast<double>(m.resizes));
    add(counts, "serve.splits", static_cast<double>(m.splits));
    add(counts, "serve.replans", static_cast<double>(m.replans));
}

/** Serve-layer counts taken from a merged counter registry (a
 *  counting op's). */
void
addRegistryCounts(const CounterRegistry& reg, Counts* counts)
{
    add(counts, "serve.plan_cache.hits",
        static_cast<double>(reg.value("plan_cache.hit")));
    add(counts, "serve.plan_cache.misses",
        static_cast<double>(reg.value("plan_cache.miss")));
    add(counts, "serve.probes.decided",
        static_cast<double>(reg.value("sweep.probe.decided")));
    add(counts, "serve.kernels_simulated",
        static_cast<double>(reg.value("kernel.measured")));
}

// ---- zoo_paper -------------------------------------------------------

/** Paper scale: the platform and batches of the paper's Fig. 11. */
constexpr unsigned kZooScale = 1;

bool
isG10Family(int tag)
{
    return tag == static_cast<int>(DesignPoint::G10) ||
           tag == static_cast<int>(DesignPoint::G10Host) ||
           tag == static_cast<int>(DesignPoint::G10Gds);
}

/**
 * compileFamilyPlan() split into the public compile stages, called in
 * the order compileG10Plan() calls them, each in its own span.
 */
std::shared_ptr<const CompiledPlan>
compileInStages(int tag, const KernelTrace& trace, const SystemConfig& sys,
                SpanRecorder* spans, Counts* counts)
{
    G10CompilerOptions opt;
    opt.eviction.allowSsd = true;
    opt.eviction.allowHost = tag != static_cast<int>(DesignPoint::G10Gds);

    auto plan = std::make_shared<CompiledPlan>();
    {
        Span s(spans, "core.vitality");
        plan->vitality = std::make_unique<VitalityAnalysis>(
            trace, sys.kernelLaunchOverheadNs);
    }
    std::optional<EvictionScheduler> evictor;
    {
        Span s(spans, "core.sched.evict");
        evictor.emplace(*plan->vitality, sys, opt.eviction);
        plan->schedule = evictor->run();
    }
    {
        Span s(spans, "core.sched.prefetch");
        plan->prefetchStats = schedulePrefetches(
            plan->schedule, evictor->bandwidth(), sys, opt.prefetch);
    }
    {
        Span s(spans, "core.sched.plan");
        plan->plan = buildMigrationPlan(*plan->vitality, plan->schedule);
    }
    add(counts, "core.vitality.periods",
        static_cast<double>(plan->vitality->periods().size()));
    add(counts, "core.sched.evict.migrations",
        static_cast<double>(plan->schedule.migrations.size()));
    return plan;
}

/**
 * runExperimentResultOnTrace() split into design construction (with the
 * G10 compile in stages) and replay, each in its own span. The zoo's
 * digest check pins its document to the one-call path's.
 */
RunResult
runInStages(const KernelTrace& trace, const ExperimentConfig& cfg,
            SpanRecorder* spans, Counts* counts)
{
    const PolicyInfo& info = PolicyRegistry::instance().resolve(cfg.design);
    RunResult out;
    out.config = cfg;
    out.designName = info.name;

    DesignInstance design;
    if (isG10Family(info.builtinTag)) {
        auto plan = compileInStages(info.builtinTag, trace, cfg.sys, spans,
                                    counts);
        Span s(spans, "policies.make");
        design.policy = makeFamilyPolicy(info.builtinTag, std::move(plan));
        // As registered: only full G10 has the unified page table.
        design.uvmExtension =
            info.builtinTag == static_cast<int>(DesignPoint::G10);
    } else {
        Span s(spans, "policies.make");
        design = PolicyRegistry::instance().make(cfg.design, trace, cfg.sys);
    }

    RunConfig rc;
    rc.sys = cfg.sys;
    rc.iterations = cfg.iterations;
    rc.uvmExtension = cfg.uvmExtension < 0 ? design.uvmExtension
                                           : cfg.uvmExtension != 0;
    rc.timingErrorPct = cfg.timingErrorPct;
    rc.seed = cfg.seed;
    rc.weightWatermark = cfg.weightWatermark;
    {
        Span s(spans, "sim.replay");
        SimRuntime rt(trace, *design.policy, rc);
        out.stats = rt.run();
    }
    add(counts, "sim.kernels",
        static_cast<double>(rc.iterations) *
            static_cast<double>(trace.numKernels()));
    addRunStats(out.stats, counts);
    return out;
}

/**
 * One op = one model's row of Fig. 11 at paper scale: build the trace,
 * then make (compiling for the G10 family) and replay each of the five
 * designs on it, and serialize the row. A round is the five models;
 * the seed shuffles their order, anew each round because a row's time
 * depends on the row before it (through the allocator). The seed
 * drives nothing else, so the simulated results are the same for every
 * seed.
 *
 * The op is a whole row, not one (model, design) cell: cells differ in
 * cost by two orders of magnitude, and the median of such a mixture
 * jumps between neighbouring cells from run to run, while rows are far
 * enough apart for their median to stay put.
 */
class ZooPaper final : public Workload
{
  public:
    ZooPaper(const WorkloadOptions& options, SpanRecorder* setup)
        : models_(allModels()), rng_(options.seed)
    {
        // Every op's trace is checked against the kernel count its
        // model had when built here.
        for (ModelKind m : models_) {
            Span s(setup, "models.build");
            kernels_[m] =
                buildModelScaled(m, paperBatchSize(m), kZooScale)
                    .numKernels();
        }
    }

    std::size_t roundOps() const override { return models_.size(); }
    /** 60 rows: the tail (p83, rank 50) is the second of SENet154's
     *  twelve rows, the slowest model's, not on a cluster edge. */
    std::size_t measuredRounds() const override { return 12; }
    std::size_t warmupOps() const override { return models_.size(); }
    unsigned workers() const override { return 1; }

    OpResult
    runOp(std::size_t index, SpanRecorder* spans, Counts* counts,
          Counts*) override
    {
        const std::size_t round = index / models_.size();
        while (order_.size() <= round) {
            order_.push_back(models_);
            std::shuffle(order_.back().begin(), order_.back().end(), rng_);
        }
        const ModelKind model = order_[round][index % models_.size()];
        const int batch = paperBatchSize(model);
        KernelTrace trace;
        {
            Span s(spans, "models.build");
            trace = buildModelScaled(model, batch, kZooScale);
        }
        add(counts, "models.kernels",
            static_cast<double>(trace.numKernels()));

        OpResult out;
        out.input = modelName(model);
        std::vector<RunResult> row;
        for (const char* design : kDesigns) {
            ExperimentConfig cfg;
            cfg.model = model;
            cfg.batchSize = batch;
            cfg.scaleDown = kZooScale;
            cfg.sys = SystemConfig().scaledDown(kZooScale);
            cfg.design = design;
            row.push_back(spans ? runInStages(trace, cfg, spans, counts)
                                : runExperimentResultOnTrace(trace, cfg));
            const RunResult& r = row.back();
            Violations v = checkRunResult(r);
            out.violations.insert(out.violations.end(), v.begin(),
                                  v.end());
            results_.emplace(out.input + "/" + design,
                             Sim{r.stats.normalizedPerf(),
                                 r.stats.throughput()});
        }
        out.document = report(row, &writeGridJson, spans);
        if (trace.numKernels() != kernels_[model])
            out.violations.push_back(out.input +
                                     ": trace kernel count changed");
        return out;
    }

    Violations
    verifyTracedPath() override
    {
        Violations out;
        const SystemConfig sys = SystemConfig().scaledDown(kZooScale);
        for (ModelKind m : models_) {
            KernelTrace trace =
                buildModelScaled(m, paperBatchSize(m), kZooScale);
            std::vector<int> checked;
            for (const char* d : kDesigns) {
                int tag = PolicyRegistry::instance().resolve(d).builtinTag;
                int key = planCompileOptionsKey(tag);
                if (!isG10Family(tag) ||
                    std::count(checked.begin(), checked.end(), key) > 0)
                    continue;
                checked.push_back(key);
                auto staged = compileInStages(tag, trace, sys, nullptr,
                                              nullptr);
                auto whole = compileFamilyPlan(tag, trace, sys);
                if (fingerprintSchedule(staged->schedule) !=
                    fingerprintSchedule(whole->schedule))
                    out.push_back(std::string(modelName(m)) + "/" + d +
                                  ": staged compile schedule differs "
                                  "from compileG10Plan's");
            }
        }
        return out;
    }

    std::map<std::string, double>
    simMetrics() const override
    {
        if (results_.size() < models_.size() * std::size(kDesigns))
            return {};
        double logSum = 0.0;
        double speedupMax = 0.0;
        for (ModelKind m : models_) {
            auto at = [&](const char* d) {
                return results_.at(std::string(modelName(m)) + "/" + d);
            };
            logSum += std::log(at("g10").normPerf);
            double bestOther = std::max({at("baseuvm").throughput,
                                         at("deepum").throughput,
                                         at("flashneuron").throughput});
            if (bestOther > 0.0)
                speedupMax = std::max(speedupMax,
                                      at("g10").throughput / bestOther);
        }
        return {{"sim_g10_norm_perf",
                 std::exp(logSum / static_cast<double>(models_.size()))},
                {"sim_g10_speedup_max", speedupMax}};
    }

  private:
    static constexpr const char* kDesigns[] = {
        "baseuvm", "deepum", "flashneuron", "g10host", "g10"};

    struct Sim
    {
        double normPerf;
        double throughput;
    };

    std::vector<ModelKind> models_;
    std::mt19937_64 rng_;
    std::vector<std::vector<ModelKind>> order_;  ///< per round
    std::map<ModelKind, std::size_t> kernels_;
    std::map<std::string, Sim> results_;
};

// ---- knee_elastic ----------------------------------------------------

/**
 * One op = one full `rates = auto` knee search on a fresh ServeSweep,
 * as every g10serve run does (plan cache and speculation on). A round
 * is kRoundInputs arrival seeds split from the run's seed: one seed's
 * search can cost twice another's, and a run that times many distinct
 * inputs keeps its median steady from seed to seed.
 */
class KneeElastic final : public Workload
{
    static constexpr std::size_t kRoundInputs = 48;

  public:
    KneeElastic(const WorkloadOptions& options, SpanRecorder* setup)
    {
        {
            Span s(setup, "engine.start");
            engine_ = std::make_unique<ExperimentEngine>(options.workers);
        }
        // What g10serve does before its sweep, for every input: build
        // the sweep (class traces and capacity floors) from the spec.
        for (std::size_t k = 0; k < kRoundInputs; ++k) {
            specs_.push_back(kneeSpec(inputSeed(options.seed, k)));
            Span s(setup, "serve.construct");
            ServeSweep sweep(specs_.back());
        }
        knees_.resize(specs_.size());
    }

    std::size_t roundOps() const override { return specs_.size(); }
    /** 48 searches, one per input: the median and tail (p79) rest on
     *  48 inputs rather than on repeats of a few. */
    std::size_t measuredRounds() const override { return 1; }
    std::size_t warmupOps() const override { return 1; }
    bool collectsCounters() const override { return true; }
    unsigned workers() const override { return engine_->workers(); }

    OpResult
    runOp(std::size_t index, SpanRecorder* spans, Counts* counts,
          Counts* registry) override
    {
        const std::size_t k = index % specs_.size();
        const ServeSpec& spec = specs_[k];
        std::optional<ServeSweep> sweep;
        {
            Span s(spans, "serve.construct");
            sweep.emplace(spec);
        }
        ServeObsRequest obs;
        obs.collectCounters = registry != nullptr;
        ServeSweepResult r;
        {
            Span s(spans, "serve.sweep");
            r = sweep->run(*engine_, obs);
        }

        OpResult out;
        out.input = "arrival seed " + std::to_string(spec.seed);
        out.document = report(r, &writeServeResultJson, spans);
        out.violations = checkServeResult(r);
        if (registry)
            addRegistryCounts(r.counters, registry);
        if (counts) {
            for (const ServeCellResult& cell : r.cells)
                addCellCounts(cell, counts);
            add(counts, "serve.probes.issued",
                static_cast<double>(r.probesIssued));
            add(counts, "serve.probes.spec_wasted",
                static_cast<double>(r.probeSpecWasted));
        }
        for (std::size_t d = 0; d < spec.designs.size(); ++d)
            if (spec.designs[d] == "g10" && d < r.sustainedRate.size())
                knees_[k] = r.sustainedRate[d];
        return out;
    }

    /** sim_knee_rps: the median over the round's inputs. */
    std::map<std::string, double>
    simMetrics() const override
    {
        std::vector<double> knees;
        for (const std::optional<double>& knee : knees_)
            if (knee)
                knees.push_back(*knee);
        if (knees.size() < knees_.size())
            return {};
        return {{"sim_knee_rps", median(knees)}};
    }

  private:
    std::vector<ServeSpec> specs_;
    std::unique_ptr<ExperimentEngine> engine_;
    std::vector<std::optional<double>> knees_;
};

// ---- fleet_stream ----------------------------------------------------

/**
 * One op = one fixed-rate FleetSim::run over every placement. The
 * FleetSim is built in set-up and kept, so after the warm-up op its
 * plan cache is warm: the op is routing plus long serving cells.
 */
class FleetStream final : public Workload
{
  public:
    FleetStream(const WorkloadOptions& options, SpanRecorder* setup)
        : spec_(fleetSpec(options.seed))
    {
        {
            Span s(setup, "engine.start");
            engine_ = std::make_unique<ExperimentEngine>(options.workers);
        }
        Span s(setup, "fleet.construct");
        sim_ = std::make_unique<FleetSim>(spec_);
    }

    /** One input, so the rank cannot change cluster; the fixed count
     *  keeps the percentile itself (p86 of 75) the same. */
    std::size_t measuredRounds() const override { return 75; }
    std::size_t warmupOps() const override { return 1; }
    bool collectsCounters() const override { return true; }
    unsigned workers() const override { return engine_->workers(); }

    OpResult
    runOp(std::size_t, SpanRecorder* spans, Counts* counts,
          Counts* registry) override
    {
        // FleetSim::run routes internally; a traced op routes once more
        // through the public entry point to time the router alone.
        if (spans)
            for (PlacementKind kind : spec_.placements) {
                Span s(spans, "fleet.route");
                add(counts, "fleet.routed",
                    static_cast<double>(sim_->routed(kind).nodeOf.size()));
            }
        FleetObsRequest obs;
        obs.collectCounters = registry != nullptr;
        FleetResult r;
        {
            Span s(spans, "fleet.run");
            r = sim_->run(*engine_, obs);
        }

        OpResult out;
        out.input = "stream seed " + std::to_string(spec_.seed);
        out.document = report(r, &writeFleetResultJson, spans);
        out.violations = checkFleetResult(r);
        if (registry)
            addRegistryCounts(r.counters, registry);
        if (counts) {
            for (const FleetPlacementResult& p : r.placements) {
                for (const ServeCellResult& cell : p.nodeCells)
                    addCellCounts(cell, counts);
                add(counts, "fleet.warm",
                    static_cast<double>(p.fleet.warmCompiles));
                add(counts, "fleet.cold",
                    static_cast<double>(p.fleet.coldCompiles));
                add(counts, "fleet.rejected",
                    static_cast<double>(p.fleet.rejected));
            }
            add(counts, "serve.probes.issued",
                static_cast<double>(r.probesIssued));
            add(counts, "serve.probes.spec_wasted",
                static_cast<double>(r.probeSpecWasted));
        }
        if (!slo_) {
            double met = 0.0;
            double offered = 0.0;
            for (const FleetPlacementResult& p : r.placements) {
                met += p.fleet.sloAttainment *
                       static_cast<double>(p.fleet.offered);
                offered += static_cast<double>(p.fleet.offered);
            }
            slo_ = offered > 0.0 ? met / offered : 0.0;
        }
        return out;
    }

    std::map<std::string, double>
    simMetrics() const override
    {
        if (!slo_)
            return {};
        return {{"sim_fleet_slo", *slo_}};
    }

  private:
    FleetSpec spec_;
    std::unique_ptr<ExperimentEngine> engine_;
    std::unique_ptr<FleetSim> sim_;
    std::optional<double> slo_;
};

}  // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "zoo_paper", "knee_elastic", "fleet_stream"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, const WorkloadOptions& options,
             SpanRecorder* setupSpans)
{
    if (name == "zoo_paper")
        return std::make_unique<ZooPaper>(options, setupSpans);
    if (name == "knee_elastic")
        return std::make_unique<KneeElastic>(options, setupSpans);
    if (name == "fleet_stream")
        return std::make_unique<FleetStream>(options, setupSpans);
    return nullptr;
}

const std::vector<std::string>&
simMetricNames()
{
    static const std::vector<std::string> names = {
        "sim_g10_norm_perf", "sim_g10_speedup_max", "sim_knee_rps",
        "sim_fleet_slo"};
    return names;
}

const std::vector<std::string>&
opLayers()
{
    static const std::vector<std::string> names = {
        "models.build",        "core.vitality",
        "core.sched.evict",    "core.sched.prefetch",
        "core.sched.plan",     "policies.make",
        "sim.replay",          "serve.construct",
        "serve.sweep",         "fleet.route",
        "fleet.run",           "api.report"};
    return names;
}

const std::vector<std::string>&
setupLayers()
{
    static const std::vector<std::string> names = {
        "models.build", "engine.start", "serve.construct",
        "fleet.construct"};
    return names;
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

}  // namespace

std::map<std::string, double>
breakdown(const std::vector<std::string>& layers, const SpanRecorder& spans,
          std::size_t n, double wallNs, const std::string& prefix,
          const std::string& wallName)
{
    const double per = n > 0 ? 1e6 * static_cast<double>(n) : 1.0;
    std::map<std::string, double> out;
    double sumNs = 0.0;
    for (const std::string& layer : layers) {
        auto it = spans.selfNs().find(layer);
        double ns = it == spans.selfNs().end()
                        ? 0.0
                        : static_cast<double>(it->second);
        sumNs += ns;
        out[prefix + layer + "_ms"] = ns / per;
    }
    out[prefix + "other_ms"] = (wallNs - sumNs) / per;
    out[wallName] = wallNs / per;
    return out;
}

std::map<std::string, double>
layerCounts(const Counts& sums, const Counts& registry,
            std::size_t registryOps, const SpanRecorder& spans,
            std::size_t n)
{
    // Registry totals are scaled from the counting ops to the n traced
    // ops; both cover whole rounds, so each input weighs the same.
    const double scale = ratio(static_cast<double>(n),
                               static_cast<double>(registryOps));
    auto sum = [&](const char* name) {
        auto it = sums.find(name);
        if (it != sums.end())
            return it->second;
        it = registry.find(name);
        return it == registry.end() ? 0.0 : scale * it->second;
    };
    auto selfNs = [&](const char* layer) {
        auto it = spans.selfNs().find(layer);
        return it == spans.selfNs().end()
                   ? 0.0
                   : static_cast<double>(it->second);
    };
    const double ops = static_cast<double>(n);

    std::map<std::string, double> out;
    for (const char* name :
         {"models.kernels", "core.vitality.periods",
          "core.sched.evict.migrations", "sim.page_fault_batches",
          "sim.migrated_bytes", "sim.ssd.gc_runs", "serve.plan_cache.hits",
          "serve.plan_cache.misses", "serve.warm_compiles",
          "serve.cold_compiles", "serve.resizes", "serve.splits",
          "serve.replans", "serve.probes.decided", "serve.probes.issued",
          "serve.probes.spec_wasted", "serve.kernels_simulated",
          "fleet.rejected"})
        out[name] = ratio(sum(name), ops);

    out["sim.ssd.waf"] = ratio(sum("sim.ssd.nand_write_bytes"),
                               sum("sim.ssd.host_write_bytes"));
    out["sim.stall_share"] =
        ratio(sum("sim.stall_ns"), sum("sim.measured_ns"));
    out["sim.ns_per_kernel"] =
        ratio(selfNs("sim.replay"), sum("sim.kernels"));
    out["serve.plan_cache.hit_ratio"] =
        ratio(sum("serve.plan_cache.hits"),
              sum("serve.plan_cache.hits") + sum("serve.plan_cache.misses"));
    out["serve.probes.useful_ratio"] =
        ratio(sum("serve.probes.decided"), sum("serve.probes.issued"));
    out["serve.ns_per_kernel"] =
        ratio(selfNs("serve.sweep") + selfNs("fleet.run"),
              sum("serve.kernels_simulated"));
    out["fleet.warm_ratio"] =
        ratio(sum("fleet.warm"), sum("fleet.warm") + sum("fleet.cold"));
    return out;
}

}  // namespace perfbench
