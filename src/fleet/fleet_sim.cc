#include "fleet_sim.h"

#include <algorithm>

#include "common/logging.h"
#include "engine/partition.h"
#include "obs/tracer.h"
#include "policies/registry.h"
#include "serve/plan_cache.h"
#include "serve/probe_scheduler.h"

namespace g10 {

namespace {

/** The cell of a node that was offered nothing at @p rate: empty, so
 *  the spread metrics still see the idle machine. */
ServeCellResult
idleCell(const std::string& design, double rate)
{
    ServeCellResult cell;
    cell.design = design;
    cell.designName = PolicyRegistry::instance().resolve(design).name;
    cell.rate = rate;
    return cell;
}

}  // namespace

bool
FleetResult::allSucceeded() const
{
    for (const FleetPlacementResult& p : placements)
        for (const ServeCellResult& cell : p.nodeCells)
            if (cell.metrics.failed > 0)
                return false;
    return true;
}

namespace {

/** @p spec after the fleet-level checks (fatal on failure). */
const FleetSpec&
checkedFleetSpec(const FleetSpec& spec)
{
    if (spec.nodes.empty())
        fatal("fleet needs at least one node");
    if (spec.placements.empty())
        fatal("fleet needs at least one placement policy");
    if (spec.classes.empty())
        fatal("fleet needs at least one job class");
    if (spec.requests < 1)
        fatal("fleet needs requests >= 1");
    if (spec.rate <= 0.0)
        fatal("fleet needs rate > 0");
    if (spec.arrival.kind == ArrivalKind::Trace)
        fatal("fleet arrivals must be poisson or bursty");
    PolicyRegistry::instance().resolve(spec.design);  // fatal on unknown
    for (std::size_t n = 0; n < spec.nodes.size(); ++n) {
        const int slots = spec.nodes[n].slots > 0 ? spec.nodes[n].slots
                                                  : spec.slots;
        if (slots < 1)
            fatal("fleet node '%s' needs slots >= 1",
                  spec.nodes[n].name.c_str());
    }
    return spec;
}

}  // namespace

FleetSim::FleetSim(const FleetSpec& spec)
    : spec_(checkedFleetSpec(spec)), workload_(spec_),
      planCache_(std::make_unique<SweepPlanCache>())
{
    // Per-node ServeSpecs, in stable storage: ServeSim keeps a
    // reference to its spec for the lifetime of the cell.
    nodeSpecs_.reserve(spec_.nodes.size());
    for (std::size_t n = 0; n < spec_.nodes.size(); ++n)
        nodeSpecs_.push_back(spec_.nodeServeSpec(n));

    // The shared fleet stream, drawn once from the fleet seed exactly
    // as a serve sweep draws its cells' streams. It never looks at the
    // node list, so it is node-count independent by construction.
    // Auto-knee probes redraw it at each probed rate: the class
    // sequence stays identical — only arrival spacing changes.
    stream_ = requestStream(
        spec_, workload_,
        spec_.ratesAuto ? spec_.resolvedRateLo() : spec_.rate);

    router_ = std::make_unique<Router>(spec_, workload_);
}

FleetSim::~FleetSim() = default;

FleetMetrics
FleetSim::aggregate(const FleetPlacementResult& placement,
                    TimeNs firstArrival) const
{
    const std::size_t nn = placement.nodeCells.size();
    FleetMetrics m;
    TimeNs lastFinish = 0;
    std::uint64_t sloMet = 0;
    std::vector<double> busy(nn, 0.0);

    for (std::size_t n = 0; n < nn; ++n) {
        const ServeCellResult& cell = placement.nodeCells[n];
        const ServeMetrics& cm = cell.metrics;
        m.offered += cm.offered;
        m.admitted += cm.admitted;
        m.rejected += cm.rejected;
        m.completed += cm.completed;
        m.failed += cm.failed;
        m.warmCompiles += cm.warmCompiles;
        m.coldCompiles += cm.coldCompiles;
        m.ssd.hostReadBytes += cell.ssd.hostReadBytes;
        m.ssd.hostWriteBytes += cell.ssd.hostWriteBytes;
        m.ssd.nandWriteBytes += cell.ssd.nandWriteBytes;
        m.ssd.gcRuns += cell.ssd.gcRuns;
        m.ssd.blockErases += cell.ssd.blockErases;
        m.ssd.relocatedPages += cell.ssd.relocatedPages;
        for (const ServeJobOutcome& o : cell.jobs) {
            if (o.sloMet)
                ++sloMet;
            if (o.finishNs > lastFinish)
                lastFinish = o.finishNs;
        }
        busy[n] = cm.gpuUtilization *
                  static_cast<double>(cm.makespanNs);
    }

    m.sloAttainment =
        m.offered > 0 ? static_cast<double>(sloMet) /
                            static_cast<double>(m.offered)
                      : 0.0;
    if (lastFinish > firstArrival) {
        m.makespanNs = lastFinish - firstArrival;
        m.throughputRps = static_cast<double>(m.completed) /
                          (static_cast<double>(m.makespanNs) / SEC);
    }
    m.capacityPerNodeRps =
        m.throughputRps / static_cast<double>(nn);
    m.consolidatedWaf = m.ssd.waf();

    // Utilization spread over *fleet* time: an idle node drags the
    // min and the Jain index down — exactly the signal a consolidating
    // placement trades against its warm-hit wins.
    double sum = 0.0, sumSq = 0.0;
    m.utilMin = 0.0;
    m.utilMax = 0.0;
    for (std::size_t n = 0; n < nn; ++n) {
        const double u =
            m.makespanNs > 0
                ? busy[n] / static_cast<double>(m.makespanNs)
                : 0.0;
        if (n == 0) {
            m.utilMin = u;
            m.utilMax = u;
        } else {
            m.utilMin = std::min(m.utilMin, u);
            m.utilMax = std::max(m.utilMax, u);
        }
        sum += u;
        sumSq += u * u;
    }
    m.utilMean = nn > 0 ? sum / static_cast<double>(nn) : 0.0;
    m.utilJain = sumSq > 0.0
                     ? (sum * sum) /
                           (static_cast<double>(nn) * sumSq)
                     : 1.0;  // all idle: trivially even
    return m;
}

FleetResult
FleetSim::run(ExperimentEngine& engine)
{
    return run(engine, FleetObsRequest{});
}

FleetResult
FleetSim::run(ExperimentEngine& engine, const FleetObsRequest& obs)
{
    FleetResult out;
    out.spec = spec_;
    for (const ServeJobClass& cls : workload_.classes)
        out.classNames.push_back(cls.name);
    for (const FleetNodeSpec& node : spec_.nodes)
        out.nodeNames.push_back(node.name);

    // Each node's SLO reference: every class alone on one idle
    // partition slot *of that node*, with the node's seed —
    // heterogeneous nodes have heterogeneous unloaded latencies, and
    // a node's attainment is judged against what it could do unloaded.
    // They depend on the spec alone, so the first run() computes them
    // for every later one.
    if (baselines_.empty()) {
        const std::size_t nc = workload_.classes.size();
        baselines_.assign(spec_.nodes.size(),
                          std::vector<ServeClassBaseline>(nc));
        engine.parallelFor(spec_.nodes.size() * nc, [&](std::size_t i) {
            const ServeSpec& ns = nodeSpecs_[i / nc];
            baselines_[i / nc][i % nc] = unloadedBaseline(
                spec_.design, workload_, i % nc, ns.scaleDown,
                partitionShare(ns.sys.scaledDown(ns.scaleDown),
                               1.0 / static_cast<double>(ns.slots)),
                ns.seed, planCache_.get());
        });
    }
    out.baselines = baselines_;

    if (spec_.ratesAuto) {
        runKnee(engine, obs, &out);
        return out;
    }

    const std::size_t np = spec_.placements.size();
    const std::size_t nn = spec_.nodes.size();

    // Route once per placement (pure, no randomness), then simulate
    // the (placement × node) grid. Per-cell registries merged in grid
    // order keep the totals worker-count independent.
    std::vector<RoutedStream> routedStreams;
    routedStreams.reserve(np);
    for (PlacementKind kind : spec_.placements)
        routedStreams.push_back(router_->route(kind, stream_));

    out.placements.resize(np);
    for (std::size_t p = 0; p < np; ++p) {
        out.placements[p].kind = spec_.placements[p];
        out.placements[p].nodeCells.resize(nn);
        out.placements[p].nodeOffered.resize(nn);
        for (std::size_t n = 0; n < nn; ++n)
            out.placements[p].nodeOffered[n] =
                routedStreams[p].perNode[n].size();
    }

    std::vector<CounterRegistry> regs(np * nn);
    auto runCell = [&](std::size_t p, std::size_t n, TraceSink* sink) {
        ServeCellResult& cell = out.placements[p].nodeCells[n];
        const std::vector<ServeRequest>& reqs =
            routedStreams[p].perNode[n];
        if (reqs.empty()) {
            cell = idleCell(spec_.design, spec_.rate);
            return;
        }
        ServeSim sim(nodeSpecs_[n], spec_.design, spec_.rate, workload_,
                     reqs, out.baselines[n]);
        sim.setObservers(
            sink, obs.collectCounters ? &regs[p * nn + n] : nullptr);
        sim.setPlanCache(planCache_.get());
        cell = sim.run();
    };

    if (obs.sink != nullptr) {
        // Traced runs stream the first placement's nodes sequentially
        // (sinks are not thread-safe) with per-node pid offsets; the
        // remaining placements still fan out across the pool.
        for (std::size_t n = 0; n < nn; ++n) {
            PidOffsetSink offset(obs.sink,
                                 static_cast<int>(n) * kFleetPidStride);
            runCell(0, n, &offset);
        }
        engine.parallelFor((np - 1) * nn, [&](std::size_t i) {
            runCell(1 + i / nn, i % nn, nullptr);
        });
    } else {
        engine.parallelFor(np * nn, [&](std::size_t i) {
            runCell(i / nn, i % nn, nullptr);
        });
    }

    if (obs.collectCounters)
        for (CounterRegistry& reg : regs)
            out.counters.merge(reg);

    for (std::size_t p = 0; p < np; ++p)
        out.placements[p].fleet =
            aggregate(out.placements[p], stream_.front().arrivalNs);
    return out;
}

void
FleetSim::runKnee(ExperimentEngine& engine, const FleetObsRequest& obs,
                  FleetResult* out)
{
    const std::size_t np = spec_.placements.size();
    const std::size_t nn = spec_.nodes.size();
    const double rootRate = spec_.resolvedRateLo();

    // One probe = the whole fleet at one offered rate: re-time the
    // shared stream, route it, and run every node sequentially inside
    // the probe (node counters accumulate in node order into the
    // probe's registry — same order the fixed-rate grid merges). One
    // SweepPlanCache spans all nodes, placements, and probes; each
    // placement is one lane of the knee search, so the knees and every
    // node cell are byte-identical at any worker count, speculation on
    // or off. The event sink observes only placement 0's root probe
    // (nodes stream into it sequentially with the usual pid offsets).
    ArenaPool arenas;
    auto probeFn = [&](std::uint32_t p, double rate) -> ProbeResult {
        ProbeResult pr;
        std::vector<ServeRequest> stream =
            requestStream(spec_, workload_, rate);
        pr.firstArrivalNs = stream.front().arrivalNs;
        RoutedStream routed =
            router_->route(spec_.placements[p], stream);
        std::unique_ptr<Arena> arena = arenas.acquire();
        const bool traced =
            obs.sink != nullptr && p == 0 && rate == rootRate;
        pr.cells.resize(nn);
        pr.sustained = true;
        for (std::size_t n = 0; n < nn; ++n) {
            ServeCellResult& cell = pr.cells[n];
            const std::vector<ServeRequest>& reqs = routed.perNode[n];
            if (reqs.empty()) {
                cell = idleCell(spec_.design, rate);
                continue;
            }
            ServeSim sim(nodeSpecs_[n], spec_.design, rate, workload_,
                         reqs, out->baselines[n]);
            PidOffsetSink offset(obs.sink,
                                 static_cast<int>(n) * kFleetPidStride);
            sim.setObservers(
                traced ? &offset : nullptr,
                obs.collectCounters ? &pr.counters : nullptr);
            sim.setPlanCache(planCache_.get());
            sim.setArena(arena.get());
            cell = sim.run();
            arena->reset();
            if (!cell.sustained())
                pr.sustained = false;
        }
        arenas.release(std::move(arena));
        return pr;
    };

    // The most recent sustained probe is always the current knee (lo
    // only ever moves up to the probed rate), so the reported cells
    // are the knee probe's — or the lowest probe's when nothing
    // sustained.
    std::vector<std::shared_ptr<const ProbeResult>> first(np), knee(np);
    auto decided = [&](std::uint32_t p,
                       const std::shared_ptr<const ProbeResult>& res) {
        if (first[p] == nullptr)
            first[p] = res;
        if (res->sustained)
            knee[p] = res;
    };

    const std::vector<KneeCursor> cursors = runKneeSearch(
        engine, np, spec_, probeFn, decided, out,
        obs.collectCounters ? &out->counters : nullptr);

    out->placements.resize(np);
    for (std::size_t p = 0; p < np; ++p) {
        FleetPlacementResult& pr = out->placements[p];
        pr.kind = spec_.placements[p];
        pr.kneeRatePerS = cursors[p].knee();
        pr.rateProbes = static_cast<std::uint64_t>(cursors[p].used());
        const std::shared_ptr<const ProbeResult>& rep =
            knee[p] != nullptr ? knee[p] : first[p];
        TimeNs firstArrival = stream_.front().arrivalNs;
        if (rep != nullptr) {
            pr.nodeCells = rep->cells;
            firstArrival = rep->firstArrivalNs;
        } else {
            // Zero probe budget: report an idle fleet.
            pr.nodeCells.assign(nn, idleCell(spec_.design, rootRate));
        }
        pr.nodeOffered.resize(nn);
        for (std::size_t n = 0; n < nn; ++n)
            pr.nodeOffered[n] = pr.nodeCells[n].jobs.size();
        pr.fleet = aggregate(pr, firstArrival);
    }
}

}  // namespace g10
