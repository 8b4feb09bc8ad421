#include "serve_sim.h"

#include <algorithm>

#include "common/arena.h"
#include "common/logging.h"
#include "common/stats.h"
#include "engine/machine.h"
#include "engine/partition.h"
#include "policies/design_point.h"
#include "obs/tracer.h"
#include "policies/g10_policy.h"
#include "policies/registry.h"
#include "serve/plan_cache.h"
#include "serve/probe_scheduler.h"
#include "sim/runtime/sim_runtime.h"

namespace g10 {

TimeNs
planServiceEstimateNs(const KernelTrace& trace,
                      const SystemConfig& sys, int iterations)
{
    TimeNs iter = 0;
    for (std::size_t k = 0; k < trace.numKernels(); ++k)
        iter += trace.kernel(static_cast<KernelId>(k)).durationNs +
                sys.kernelLaunchOverheadNs;
    return iter * iterations;
}

Bytes
maxKernelWorkingSet(const KernelTrace& trace, Bytes page)
{
    Bytes best = 0;
    for (std::size_t k = 0; k < trace.numKernels(); ++k) {
        Bytes sum = 0;
        for (TensorId t :
             trace.kernel(static_cast<KernelId>(k)).allTensors()) {
            const Bytes b = trace.tensor(t).bytes;
            sum += (b + page - 1) / page * page;
        }
        best = std::max(best, sum);
    }
    return best;
}

Bytes
serveClassGpuFloor(const KernelTrace& trace, Bytes page)
{
    const Bytes ws = maxKernelWorkingSet(trace, page);
    return ws + ws / 8;
}

namespace {

/** Warm-start seed chain: per model, the last compiled plan of this
 *  cell (whatever batch size or partition capacity it was compiled at
 *  — the replay re-validates every pick against the new trace and
 *  capacity, so staleness is safe). Shared handles: a seed may live in
 *  the sweep-wide SweepPlanCache and in several cells at once. */
using PlanCache =
    std::map<int, std::shared_ptr<const CompiledPlan>>;

/** G10-family membership (the designs with a compile pipeline). */
bool
g10FamilyTag(const std::string& design, int* tag_out)
{
    const PolicyInfo& info = PolicyRegistry::instance().resolve(design);
    *tag_out = info.builtinTag;
    return *tag_out == static_cast<int>(DesignPoint::G10) ||
           *tag_out == static_cast<int>(DesignPoint::G10Gds) ||
           *tag_out == static_cast<int>(DesignPoint::G10Host);
}

/**
 * Compile one G10-family plan, optionally warm-started by @p seed and
 * memoized in @p sweepCache (null = compile directly). The cache key
 * captures every compile input — options, trace identity (model,
 * batch, scale), system fingerprint, seed fingerprint — so a hit is
 * bit-identical to the compile it replaces.
 */
std::shared_ptr<const CompiledPlan>
compilePlan(int tag, const KernelTrace& trace,
            const ServeJobClass& cls, unsigned scaleDown,
            const SystemConfig& sys,
            const std::shared_ptr<const CompiledPlan>& seed,
            SweepPlanCache* sweepCache)
{
    const EvictionSchedule* warm =
        seed != nullptr ? &seed->schedule : nullptr;
    if (sweepCache == nullptr)
        return compileFamilyPlan(tag, trace, sys, warm);
    PlanKey key;
    key.options = planCompileOptionsKey(tag);
    key.model = static_cast<int>(cls.model);
    key.batch = cls.batchSize;
    key.scaleDown = scaleDown;
    key.sysFp = fingerprintSystemConfig(sys);
    key.seedFp = warm != nullptr ? fingerprintSchedule(*warm) : 0;
    return sweepCache->getOrCompile(key, [&] {
        return compileFamilyPlan(tag, trace, sys, warm);
    });
}

/** What an admission-time compile did (feeds the cell metrics). */
struct CompileOutcome
{
    bool warm = false;             ///< seeded by a cached schedule
    bool capacityCrossed = false;  ///< seed compiled at a different cap
    std::uint64_t replayed = 0;    ///< prior picks recommitted
    std::uint64_t dropped = 0;     ///< prior picks invalidated
};

/**
 * Instantiate the cell's design for one admitted job. G10-family
 * designs go through the warm-start path: the previous compile of the
 * same model seeds the eviction scheduler (the serving win: churn
 * re-plans in O(migrations) instead of O(periods log periods) when
 * only the batch size or the partition capacity changed).
 */
DesignInstance
makeServeInstance(const std::string& design, const KernelTrace& trace,
                  const ServeJobClass& cls, unsigned scaleDown,
                  const SystemConfig& sys, PlanCache* cache,
                  SweepPlanCache* sweepCache, CompileOutcome* oc)
{
    int tag = 0;
    *oc = CompileOutcome{};
    if (!g10FamilyTag(design, &tag))
        return PolicyRegistry::instance().make(design, trace, sys);

    const int model_key = static_cast<int>(cls.model);
    std::shared_ptr<const CompiledPlan> seed;
    auto it = cache->find(model_key);
    if (it != cache->end()) {
        seed = it->second;
        oc->warm = true;
        oc->capacityCrossed =
            seed->schedule.scheduledForGpuBytes != sys.gpuMemBytes;
    }

    std::shared_ptr<const CompiledPlan> plan = compilePlan(
        tag, trace, cls, scaleDown, sys, seed, sweepCache);
    oc->replayed = plan->schedule.warmReplayed;
    oc->dropped = plan->schedule.warmDropped;
    DesignInstance out;
    out.uvmExtension = tag == static_cast<int>(DesignPoint::G10);
    (*cache)[model_key] = plan;
    out.policy = makeFamilyPolicy(tag, std::move(plan));
    return out;
}

/** Percentile of a Distribution as integer nanoseconds. */
TimeNs
pctNs(const Distribution& d, double p)
{
    return static_cast<TimeNs>(d.percentile(p));
}

}  // namespace

ServeWorkload::ServeWorkload(const ServeScenario& scenario)
{
    if (scenario.arrival.kind == ArrivalKind::Trace) {
        // Job classes are derived from the trace: one per distinct
        // (model, batch, iterations, priority) request shape.
        for (const TraceRequest& tr :
             parseArrivalTrace(scenario.arrival.tracePath)) {
            ServeJobClass shape;
            shape.model = tr.model;
            shape.batchSize = tr.batchSize;
            shape.iterations = tr.iterations;
            shape.priority = tr.priority;
            shape = resolvedClass(shape);
            std::size_t ci = 0;
            while (ci < classes.size() &&
                   !(classes[ci].model == shape.model &&
                     classes[ci].batchSize == shape.batchSize &&
                     classes[ci].iterations == shape.iterations &&
                     classes[ci].priority == shape.priority))
                ++ci;
            if (ci == classes.size())
                classes.push_back(shape);
            traced.push_back({tr.arrivalNs, ci});
        }
    } else {
        if (scenario.classes.empty())
            fatal("serve sweep needs at least one job class");
        for (const ServeJobClass& cls : scenario.classes)
            classes.push_back(resolvedClass(cls));
    }

    // Per-class elastic capacity floors: the largest kernel working
    // set (+12.5% headroom for in-flight transfers) — a lease below it
    // is guaranteed to hit the hard-OOM path, so the elastic policies
    // never shrink or grant under it. Alongside, the SJF key and the
    // router's backlog estimate.
    const SystemConfig scaled =
        scenario.sys.scaledDown(scenario.scaleDown);
    traces.reserve(classes.size());
    floors.reserve(classes.size());
    serviceEstNs.reserve(classes.size());
    for (const ServeJobClass& cls : classes) {
        traces.push_back(buildModelScaled(cls.model, cls.batchSize,
                                          scenario.scaleDown));
        floors.push_back(
            serveClassGpuFloor(traces.back(), scaled.pageBytes));
        serviceEstNs.push_back(planServiceEstimateNs(
            traces.back(), scaled, cls.iterations));
    }
}

std::vector<ServeRequest>
requestStream(const ServeScenario& scenario,
              const ServeWorkload& workload, double rate)
{
    std::vector<ServeRequest> out;
    if (scenario.arrival.kind == ArrivalKind::Trace) {
        out = workload.traced;
        for (ServeRequest& r : out)
            r.arrivalNs = static_cast<TimeNs>(
                static_cast<double>(r.arrivalNs) / rate);
        return out;
    }

    const std::vector<ServeJobClass>& classes = workload.classes;
    std::vector<TimeNs> times = generateArrivals(
        scenario.arrival, rate, scenario.requests, scenario.seed);
    std::mt19937_64 picks(scenario.seed + 1);
    double wsum = 0.0;
    for (const ServeJobClass& cls : classes)
        wsum += cls.weight;
    out.reserve(times.size());
    for (TimeNs t : times) {
        double u = unitInterval(picks) * wsum;
        double cum = 0.0;
        std::size_t ci = classes.size() - 1;
        for (std::size_t c = 0; c < classes.size(); ++c) {
            cum += classes[c].weight;
            if (u <= cum) {
                ci = c;
                break;
            }
        }
        out.push_back({t, ci});
    }
    return out;
}

ServeClassBaseline
unloadedBaseline(const std::string& design,
                 const ServeWorkload& workload, std::size_t cls,
                 unsigned scaleDown, const SystemConfig& slotSys,
                 std::uint64_t seed, SweepPlanCache* planCache)
{
    PlanCache noSeed;  // a cold compile: nothing to warm-start from
    CompileOutcome oc;
    DesignInstance di = makeServeInstance(
        design, workload.traces[cls], workload.classes[cls], scaleDown,
        slotSys, &noSeed, planCache, &oc);
    RunConfig rc;
    rc.sys = slotSys;
    rc.iterations = workload.classes[cls].iterations;
    rc.uvmExtension = di.uvmExtension;
    rc.seed = seed;
    SimRuntime rt(workload.traces[cls], *di.policy, rc);
    ExecStats st = rt.run();
    ServeClassBaseline out;
    out.unloadedNs = rt.now();
    out.failed = st.failed;
    return out;
}

// ---------------------------------------------------------------------
// ServeSim: one (design, rate) cell
// ---------------------------------------------------------------------

ServeSim::ServeSim(const ServeSpec& spec, std::string design,
                   double rate, const ServeWorkload& workload,
                   std::vector<ServeRequest> requests,
                   const std::vector<ServeClassBaseline>& baselines)
    : spec_(spec), design_(std::move(design)), rate_(rate),
      work_(workload), requests_(std::move(requests)),
      baselines_(baselines)
{
    if (baselines_.size() != work_.classes.size())
        panic("ServeSim: %zu baselines for %zu classes",
              baselines_.size(), work_.classes.size());
    if (requests_.empty())
        panic("ServeSim: no requests offered");
    for (std::size_t i = 1; i < requests_.size(); ++i)
        if (requests_[i].arrivalNs < requests_[i - 1].arrivalNs)
            panic("ServeSim: request %zu arrives before request %zu",
                  i, i - 1);
}

ServeCellResult
ServeSim::run()
{
    ServeCellResult out;
    out.design = design_;
    out.designName = PolicyRegistry::instance().resolve(design_).name;
    out.rate = rate_;
    out.jobs.resize(requests_.size());
    for (std::size_t i = 0; i < requests_.size(); ++i) {
        out.jobs[i].request = i;
        out.jobs[i].classIndex = requests_[i].classIndex;
        out.jobs[i].arrivalNs = requests_[i].arrivalNs;
    }
    ServeMetrics& m = out.metrics;

    const SystemConfig scaled = spec_.sys.scaledDown(spec_.scaleDown);
    const PartitionPolicy ppol = spec_.partitionPolicy;
    const int maxActive = spec_.resolvedMaxActive();
    const double hysteresis = spec_.resizeHysteresis;
    PartitionManager partitions(scaled, spec_.slots);
    const Bytes totalGpu = partitions.totalGpuBytes();
    const Bytes totalHost = partitions.totalHostBytes();
    const Bytes slotGpu = partitions.slotSystem().gpuMemBytes;
    const Bytes slotHost = partitions.slotSystem().hostMemBytes;

    // Host staging follows the GPU share so a lease is one fraction
    // of the machine, not two independent knobs.
    auto hostFor = [&](Bytes gpu) -> Bytes {
        if (totalGpu == 0)
            return 0;
        return static_cast<Bytes>(
            static_cast<double>(totalHost) *
            (static_cast<double>(gpu) / static_cast<double>(totalGpu)));
    };

    // Per-job runtime scratch comes from a bump arena: jobs churn, so
    // their vectors' free()s are wasted work — the arena drops them
    // all at once. An injected arena (knee probes draw one per
    // in-flight probe from an ArenaPool, so concurrent probes never
    // share) carries its high-water chunk from probe to probe; a cell
    // running on its own (grid / fleet) uses a local one. The arena
    // and the machine are declared before `active` below so every
    // SimRuntime dies before its memory and platform do.
    Arena localArena;
    Machine machine(scaled, MixSched::RoundRobin,
                    arena_ != nullptr ? arena_ : &localArena);

    AdmissionQueue queue(spec_.admit, spec_.queueCapacity,
                         spec_.starvationNs);

    const std::vector<ServeJobClass>& classes = work_.classes;
    const std::vector<KernelTrace>& traces = work_.traces;

    // Per-class capacity floors, clamped to the whole machine so a
    // class too big for the node is still admitted alone and fails
    // with the explicit hard OOM — exactly the static policy's
    // semantics — instead of waiting forever.
    std::vector<Bytes> minGpu(work_.floors.size(), 0);
    for (std::size_t c = 0; c < minGpu.size(); ++c)
        minGpu[c] = std::min(work_.floors[c], totalGpu);

    PlanCache planCache;

    // Observability: one Tracer shared by the serving events and every
    // admitted job's runtime (pid = request index). tp is null when
    // the cell runs unobserved; every emit site below is a guarded
    // read-only observation, so the cell result is bit-identical
    // either way.
    Tracer tracer(sink_, counters_);
    Tracer* const tp =
        (sink_ != nullptr || counters_ != nullptr) ? &tracer : nullptr;

    struct Active
    {
        std::size_t request = 0;
        std::size_t classIndex = 0;
        bool g10family = false;
        int familyTag = 0;
        DesignInstance design;
        std::unique_ptr<SimRuntime> rt;
        PartitionManager::Lease lease;
    };
    std::vector<Active> active;
    active.reserve(static_cast<std::size_t>(maxActive));

    // ---- Elastic capacity machinery ------------------------------

    // After any capacity change, G10-family jobs replan: recompile
    // the migration schedule at the new budget, warm-started from the
    // schedule the job is currently replaying, and swap it in. The
    // scheduler replays the picks the capacity delta left valid and
    // only re-runs its greedy search on the uncovered pressure.
    auto replanAfterResize = [&](Active& a) {
        if (!a.g10family)
            return;
        const auto* gp =
            static_cast<const G10Policy*>(a.design.policy.get());
        std::shared_ptr<const CompiledPlan> plan = compilePlan(
            a.familyTag, traces[a.classIndex],
            classes[a.classIndex], spec_.scaleDown, a.lease.sys,
            gp->compiledShared(), planCache_);
        const EvictionSchedule& ns = plan->schedule;
        ++m.replans;
        m.warmReplayedMigrations += ns.warmReplayed;
        m.warmDroppedMigrations += ns.warmDropped;
        if (ns.warmReplayed > 0)
            ++m.resizeWarmHits;
        if (tp)
            tp->warmReplan(static_cast<int>(a.request),
                           ns.warmReplayed, ns.warmDropped,
                           a.rt->now());
        planCache[static_cast<int>(classes[a.classIndex].model)] =
            plan;
        std::unique_ptr<G10Policy> np =
            makeFamilyPolicy(a.familyTag, std::move(plan));
        a.rt->setPolicy(*np);
        a.design.policy = std::move(np);
    };

    // Post-change bookkeeping shared by the resize and split paths:
    // push the lease's new budget into the runtime (eager eviction
    // down to the new watermark), count the work, warm-replan.
    auto applyBudget = [&](Active& a, bool shrink) {
        SimRuntime::ResizeOutcome ro = a.rt->resizeMemoryBudget(
            a.lease.sys.gpuMemBytes, a.lease.sys.hostMemBytes);
        ++m.resizes;
        if (shrink)
            ++m.resizeShrinks;
        else
            ++m.resizeGrows;
        m.resizeEvictedBytes += ro.evictedBytes;
        replanAfterResize(a);
    };

    // One live job's capacity change: manager accounting, then the
    // shared budget/replan bookkeeping.
    auto resizeActive = [&](Active& a, Bytes gpuBytes) {
        const Bytes cur = a.lease.sys.gpuMemBytes;
        if (gpuBytes == cur)
            return;
        partitions.resize(&a.lease, gpuBytes, hostFor(gpuBytes));
        if (tp)
            tp->partitionEvent("resize", static_cast<int>(a.request),
                               gpuBytes, a.rt->now());
        applyBudget(a, gpuBytes < cur);
    };

    // Floor of one live job's lease (never shrink below this).
    auto floorOf = [&](const Active& a) -> Bytes {
        return minGpu[a.classIndex];
    };

    // The proportional policy's post-admission size of incumbent
    // @p o when the active set grows to @p count jobs: the equal
    // share, raised to the job's floor, but never *grown* at
    // admission time (growth is departure-driven and hysteresis
    // gated).
    auto proportionalTarget = [&](const Active& o,
                                  std::size_t count) -> Bytes {
        const Bytes tgt =
            std::max(totalGpu / static_cast<Bytes>(count),
                     floorOf(o));
        return std::min(o.lease.sys.gpuMemBytes, tgt);
    };

    // The ondemand policy's split victim for a @p need-byte arrival:
    // the largest live lease that can donate half while both halves
    // stay viable (donor above its floor, grant at least half a slot
    // and above the arrival's floor). nullptr = no viable donor.
    auto splitVictim = [&](Bytes need) -> Active* {
        Active* best = nullptr;
        for (Active& o : active) {
            const Bytes cur = o.lease.sys.gpuMemBytes;
            const Bytes carve = static_cast<Bytes>(
                static_cast<double>(cur) * 0.5);
            if (carve < need || carve < slotGpu / 2 ||
                cur - carve < floorOf(o))
                continue;
            if (best == nullptr ||
                cur > best->lease.sys.gpuMemBytes)
                best = &o;
        }
        return best;
    };

    // Admission gate per policy, for a request of class @p cls.
    // Static gates on free slots; the elastic policies gate on the
    // concurrency cap and on whether a floor-respecting grant exists.
    // OnDemand's ordinary admissions take whole slots from the pool —
    // splitting live leases is an *overload* escape valve (see
    // splitAdmitHead below), because at moderate load a short wait
    // for a full slot beats running everyone at half capacity.
    auto canAdmit = [&](std::size_t cls) -> bool {
        if (ppol == PartitionPolicy::Static)
            return partitions.hasFree();
        if (static_cast<int>(active.size()) >= maxActive)
            return false;
        if (ppol == PartitionPolicy::Proportional) {
            // Capacity left after every incumbent shrinks to its
            // post-admission share must cover the arrival's floor.
            const std::size_t count = active.size() + 1;
            Bytes leased = 0;
            for (const Active& o : active)
                leased += proportionalTarget(o, count);
            const Bytes free =
                totalGpu > leased ? totalGpu - leased : 0;
            const Bytes grant = std::min(
                free, std::max(totalGpu / count, minGpu[cls]));
            return grant >= minGpu[cls] && grant > 0;
        }
        return partitions.freeGpuBytes() >= slotGpu &&
               partitions.freeHostBytes() >= slotHost;
    };

    // Lease capacity for a new admission under the cell's policy.
    auto leaseForAdmission = [&](Active& a) {
        switch (ppol) {
          case PartitionPolicy::Static:
            a.lease = partitions.acquire();
            return;
          case PartitionPolicy::Proportional: {
            // Equal share of the whole machine across the active set:
            // shrink every incumbent above its post-admission share
            // (mandatory — hysteresis only defers growth), then grant
            // the arrival its share.
            const std::size_t count = active.size() + 1;
            for (Active& o : active) {
                const Bytes tgt = proportionalTarget(o, count);
                if (o.lease.sys.gpuMemBytes > tgt)
                    resizeActive(o, tgt);
            }
            const Bytes grant = std::min(
                partitions.freeGpuBytes(),
                std::max(totalGpu / static_cast<Bytes>(count),
                         minGpu[a.classIndex]));
            const Bytes grantHost =
                std::min(hostFor(grant), partitions.freeHostBytes());
            a.lease = partitions.acquireBytes(grant, grantHost);
            return;
          }
          case PartitionPolicy::OnDemand: {
            // A full static-slot grant while the pool has one; then
            // split the largest viable live lease in half (canAdmit()
            // guarantees a donor exists).
            if (partitions.freeGpuBytes() >= slotGpu &&
                partitions.freeHostBytes() >= slotHost) {
                a.lease = partitions.acquireBytes(slotGpu, slotHost);
                return;
            }
            Active* big = splitVictim(
                std::max(minGpu[a.classIndex], slotGpu / 2));
            if (big == nullptr)
                panic("ondemand admission with no viable donor");
            a.lease = partitions.split(&big->lease, 0.5);
            ++m.splits;
            if (tp)
                tp->partitionEvent("split",
                                   static_cast<int>(big->request),
                                   big->lease.sys.gpuMemBytes,
                                   big->rt->now());
            applyBudget(*big, true);
            return;
          }
        }
    };

    // After a departure (and after the queue drained into the freed
    // capacity), grow the survivors back. Growth is hysteresis-gated
    // so lease geometry does not thrash under churn.
    auto redistributeAfterDeparture = [&]() {
        if (ppol == PartitionPolicy::Static || active.empty())
            return;
        if (ppol == PartitionPolicy::Proportional) {
            const Bytes tgt =
                totalGpu / static_cast<Bytes>(active.size());
            for (Active& o : active) {
                const Bytes cur = o.lease.sys.gpuMemBytes;
                if (cur >= tgt)
                    continue;
                const Bytes grow =
                    std::min(tgt - cur, partitions.freeGpuBytes());
                if (grow == 0 ||
                    static_cast<double>(grow) <
                        hysteresis * static_cast<double>(cur))
                    continue;
                resizeActive(o, cur + grow);
            }
            return;
        }
        // OnDemand: top the smallest leases back up toward a full
        // slot, smallest first (they gain the most per byte).
        while (true) {
            Active* small = nullptr;
            for (Active& o : active)
                if (o.lease.sys.gpuMemBytes < slotGpu &&
                    (small == nullptr ||
                     o.lease.sys.gpuMemBytes <
                         small->lease.sys.gpuMemBytes))
                    small = &o;
            if (small == nullptr)
                break;
            const Bytes cur = small->lease.sys.gpuMemBytes;
            const Bytes grow =
                std::min(slotGpu - cur, partitions.freeGpuBytes());
            if (grow == 0 ||
                static_cast<double>(grow) <
                    hysteresis * static_cast<double>(cur))
                break;
            resizeActive(*small, cur + grow);
        }
    };

    auto admit = [&](std::size_t req, TimeNs when) {
        const ServeRequest& r = requests_[req];
        const ServeJobClass& cls = classes[r.classIndex];
        Active a;
        a.request = req;
        a.classIndex = r.classIndex;
        a.g10family = g10FamilyTag(design_, &a.familyTag);
        leaseForAdmission(a);
        CompileOutcome oc;
        a.design = makeServeInstance(design_, traces[r.classIndex],
                                     cls, spec_.scaleDown,
                                     a.lease.sys, &planCache,
                                     planCache_, &oc);
        out.jobs[req].warmCompiled = oc.warm;
        if (tp && a.g10family)
            tp->planCacheLookup(oc.warm);
        if (oc.warm) {
            ++m.warmCompiles;
            if (oc.capacityCrossed && oc.replayed > 0)
                ++m.resizeWarmHits;
        } else {
            ++m.coldCompiles;
        }
        m.warmReplayedMigrations += oc.replayed;
        m.warmDroppedMigrations += oc.dropped;

        RunConfig rc;
        rc.sys = a.lease.sys;
        rc.iterations = cls.iterations;
        rc.uvmExtension = a.design.uvmExtension;
        rc.seed = spec_.seed + req;
        rc.startNs = when;
        a.rt = std::make_unique<SimRuntime>(traces[r.classIndex],
                                            *a.design.policy, rc,
                                            machine.shared());
        if (tp) {
            tp->admission(static_cast<int>(req), cls.name, r.arrivalNs,
                          when, a.lease.sys.gpuMemBytes, oc.warm);
            // Attach before start() so admission prefetches are traced.
            a.rt->setTracer(tp, static_cast<int>(req));
        }
        a.rt->start();
        machine.attach(*a.rt, req);
        out.jobs[req].admitNs = when;
        active.push_back(std::move(a));
    };

    auto drainQueue = [&](TimeNs now) {
        // Gate on the job the policy would pop next (no bypass: a
        // large head holds the line, as in the slot-mode behavior).
        while (!queue.empty()) {
            const QueuedJob& head = queue.peek(now);
            if (!canAdmit(requests_[head.request].classIndex))
                break;
            QueuedJob qj = queue.pop(now);
            admit(qj.request, std::max(now, qj.arrivalNs));
        }
    };

    // Open-loop arrival injection: the whole offered sequence is
    // known up front and time-ordered, so a cursor walks it in
    // request order and hands out each same-time batch in turn.
    std::size_t nextArrival = 0;

    // Main interleaving loop: either the next arrival is due before
    // any active job's clock (process arrivals/admissions), or the
    // machine replays one kernel of the active job furthest behind in
    // time — the interleave MultiTenantSim drives, with jobs attached
    // at admission and detached at departure.
    while (nextArrival < requests_.size() || !queue.empty() ||
           !active.empty()) {
        const TimeNs nextArr = nextArrival < requests_.size()
                                   ? requests_[nextArrival].arrivalNs
                                   : Machine::kIdle;
        if (nextArr <= machine.nextClock()) {
            if (nextArrival == requests_.size())
                panic("serve loop stalled: queued jobs but no "
                      "arrivals and no active jobs");
            for (; nextArrival < requests_.size() &&
                   requests_[nextArrival].arrivalNs == nextArr;
                 ++nextArrival) {
                const std::size_t req = nextArrival;
                const ServeRequest& r = requests_[req];
                // Free capacity admits immediately — simultaneous
                // arrivals must not be shed off a full queue while
                // partitions sit idle.
                if (queue.empty() && canAdmit(r.classIndex)) {
                    admit(req, r.arrivalNs);
                    continue;
                }
                QueuedJob qj;
                qj.request = req;
                qj.arrivalNs = r.arrivalNs;
                qj.serviceEstNs = work_.serviceEstNs[r.classIndex];
                qj.priority = classes[r.classIndex].priority;
                if (queue.offer(qj))
                    continue;
                // Queue full. OnDemand's overload escape valve: split
                // a live lease for the policy's next waiter instead
                // of shedding the newcomer — trading per-job speed
                // for not rejecting under pressure.
                bool rescued = false;
                if (ppol == PartitionPolicy::OnDemand &&
                    static_cast<int>(active.size()) < maxActive) {
                    if (!queue.empty()) {
                        const QueuedJob& head =
                            queue.peek(r.arrivalNs);
                        const std::size_t hcls =
                            requests_[head.request].classIndex;
                        if (splitVictim(std::max(minGpu[hcls],
                                                 slotGpu / 2)) !=
                            nullptr) {
                            QueuedJob hj = queue.pop(r.arrivalNs);
                            admit(hj.request,
                                  std::max(r.arrivalNs,
                                           hj.arrivalNs));
                            rescued = queue.offer(qj);
                        }
                    } else if (splitVictim(std::max(
                                   minGpu[r.classIndex],
                                   slotGpu / 2)) != nullptr) {
                        // Zero-capacity queue: split for the arrival.
                        admit(req, r.arrivalNs);
                        rescued = true;
                    }
                }
                if (!rescued) {
                    out.jobs[req].rejected = true;  // load shed
                    if (tp)
                        tp->rejection(static_cast<int>(req),
                                      classes[r.classIndex].name,
                                      r.arrivalNs);
                }
            }
            if (tp)
                tp->queueDepth(queue.size(), nextArr);
            drainQueue(nextArr);
            continue;
        }

        const std::optional<std::size_t> done = machine.stepNext();
        if (!done)
            continue;

        // Departure: finalize, record, release the partition lease
        // and trim the job's SSD log space for the next arrival.
        auto it = std::find_if(
            active.begin(), active.end(),
            [&](const Active& x) { return x.request == *done; });
        Active& a = *it;
        ExecStats st = a.rt->finalize();
        ServeJobOutcome& o = out.jobs[a.request];
        o.finishNs = a.rt->now();
        o.failed = st.failed;
        if (tp) {
            // SLO verdict at departure time — the same expression the
            // post-loop metrics evaluate — so a saved trace carries
            // every breach (see Tracer::departure).
            const ServeClassBaseline& base = baselines_[a.classIndex];
            TimeNs sloLimit = 0;
            bool sloMet = false;
            if (!st.failed && !base.failed && base.unloadedNs > 0) {
                const double limit =
                    spec_.sloFactor *
                    static_cast<double>(base.unloadedNs);
                sloLimit = static_cast<TimeNs>(limit);
                sloMet = static_cast<double>(o.latencyNs()) <= limit;
            }
            tp->departure(static_cast<int>(a.request),
                          classes[a.classIndex].name,
                          requests_[a.request].arrivalNs, a.rt->now(),
                          st.failed, sloLimit, sloMet);
        }
        a.rt->releaseSsdLog();
        partitions.release(&a.lease);
        const TimeNs freedAt = a.rt->now();
        active.erase(it);
        drainQueue(freedAt);
        redistributeAfterDeparture();
    }

    // ---- SLO-centric metrics. ----
    m.offered = out.jobs.size();
    Distribution queueDelay, latency, slowdown;
    TimeNs firstArrival = requests_.front().arrivalNs;
    TimeNs lastFinish = 0;
    std::uint64_t sloMet = 0;
    for (ServeJobOutcome& o : out.jobs) {
        if (o.rejected) {
            ++m.rejected;
            continue;
        }
        ++m.admitted;
        queueDelay.add(static_cast<double>(o.queueNs()));
        m.queueMaxNs = std::max(m.queueMaxNs, o.queueNs());
        if (o.failed) {
            ++m.failed;
            continue;
        }
        ++m.completed;
        lastFinish = std::max(lastFinish, o.finishNs);
        latency.add(static_cast<double>(o.latencyNs()));

        const ServeClassBaseline& base = baselines_[o.classIndex];
        if (!base.failed && base.unloadedNs > 0) {
            o.slowdown = static_cast<double>(o.latencyNs()) /
                         static_cast<double>(base.unloadedNs);
            slowdown.add(o.slowdown);
            o.sloMet = static_cast<double>(o.latencyNs()) <=
                       spec_.sloFactor *
                           static_cast<double>(base.unloadedNs);
            if (o.sloMet)
                ++sloMet;
        }
    }
    if (queueDelay.count() > 0) {
        m.queueP50Ns = pctNs(queueDelay, 0.50);
        m.queueP95Ns = pctNs(queueDelay, 0.95);
        m.queueP99Ns = pctNs(queueDelay, 0.99);
        m.queueMeanNs = queueDelay.mean();
    }
    if (latency.count() > 0) {
        m.latencyP50Ns = pctNs(latency, 0.50);
        m.latencyP95Ns = pctNs(latency, 0.95);
        m.latencyP99Ns = pctNs(latency, 0.99);
        m.latencyMeanNs = latency.mean();
    }
    if (slowdown.count() > 0) {
        m.slowdownMean = slowdown.mean();
        m.slowdownP95 = slowdown.percentile(0.95);
    }
    m.sloAttainment = m.offered > 0
        ? static_cast<double>(sloMet) / static_cast<double>(m.offered)
        : 0.0;
    if (lastFinish > firstArrival) {
        m.makespanNs = lastFinish - firstArrival;
        m.throughputRps = static_cast<double>(m.completed) /
                          (static_cast<double>(m.makespanNs) / SEC);
        m.gpuUtilization = static_cast<double>(machine.gpu().busyNs) /
                           static_cast<double>(m.makespanNs);
    }
    m.maxQueueDepth = queue.maxDepth();
    m.starvationPromotions = queue.starvationPromotions();
    out.ssd = machine.ssd().stats();
    return out;
}

// ---------------------------------------------------------------------
// ServeSweep: the designs × rates grid
// ---------------------------------------------------------------------

namespace {

/** @p spec after the sweep-level checks (fatal on failure). */
const ServeSpec&
checkedSweepSpec(const ServeSpec& spec)
{
    if (spec.designs.empty())
        fatal("serve sweep needs at least one design");
    if (spec.rates.empty() && !spec.ratesAuto)
        fatal("serve sweep needs at least one arrival rate (or "
              "rates = auto)");
    if (spec.slots < 1)
        fatal("serve sweep needs slots >= 1");
    if (spec.resolvedMaxActive() < spec.slots)
        fatal("serve sweep needs max_active >= slots");
    for (const std::string& d : spec.designs)
        PolicyRegistry::instance().resolve(d);  // fatal on unknown
    return spec;
}

}  // namespace

ServeSweep::ServeSweep(const ServeSpec& spec)
    : spec_(checkedSweepSpec(spec)), workload_(spec_)
{
    if (spec_.sweepPlanCache) {
        ownedPlanCache_ = std::make_unique<SweepPlanCache>();
        planCache_ = ownedPlanCache_.get();
    }
}

ServeSweep::~ServeSweep() = default;

void
ServeSweep::sharePlanCache(SweepPlanCache* cache)
{
    planCache_ = cache;
    ownedPlanCache_.reset();
}

bool
ServeSweepResult::allSucceeded() const
{
    for (const ServeCellResult& cell : cells)
        if (cell.metrics.failed > 0)
            return false;
    return true;
}

void
ServeSweep::runAutoRates(ExperimentEngine& engine,
                         const ServeObsRequest& obs,
                         ServeSweepResult* out)
{
    const std::size_t nd = spec_.designs.size();
    std::vector<std::vector<ServeCellResult>> cellsByDesign(nd);

    // Each design bisects on its own search lane (runKneeSearch): the
    // decided path reads memoized probes in sequential order, so
    // cells, knees, and counters are byte-identical to the sequential
    // search at any pool size. The event sink observes only the first
    // probe of the first design (always decided, never speculative: a
    // lane's root is issued before any speculation on that lane).
    // Probes draw arenas from a shared pool — one per in-flight probe
    // — so a warm high-water chunk still serves probe after probe.
    const double rootRate = spec_.resolvedRateLo();
    ArenaPool arenas;
    auto probeFn = [&](std::uint32_t d, double rate) -> ProbeResult {
        ProbeResult pr;
        std::unique_ptr<Arena> arena = arenas.acquire();
        {
            ServeSim sim(spec_, spec_.designs[d], rate, workload_,
                         requestStream(spec_, workload_, rate),
                         out->baselines[d]);
            sim.setObservers(
                d == 0 && rate == rootRate ? obs.sink : nullptr,
                obs.collectCounters ? &pr.counters : nullptr);
            sim.setPlanCache(planCache_);
            sim.setArena(arena.get());
            pr.cells.push_back(sim.run());
            pr.sustained = pr.cells.back().sustained();
        }
        arenas.release(std::move(arena));
        return pr;
    };
    auto decided = [&](std::uint32_t d,
                       const std::shared_ptr<const ProbeResult>& res) {
        cellsByDesign[d].push_back(res->cells.front());
    };

    const std::vector<KneeCursor> knees = runKneeSearch(
        engine, nd, spec_, probeFn, decided, out,
        obs.collectCounters ? &out->counters : nullptr);
    for (std::size_t d = 0; d < nd; ++d) {
        out->sustainedRate.push_back(knees[d].knee());
        out->rateProbes.push_back(
            static_cast<std::uint64_t>(knees[d].used()));
        for (ServeCellResult& cell : cellsByDesign[d])
            out->cells.push_back(std::move(cell));
    }
}

ServeSweepResult
ServeSweep::run(ExperimentEngine& engine)
{
    return run(engine, ServeObsRequest{});
}

ServeSweepResult
ServeSweep::run(ExperimentEngine& engine, const ServeObsRequest& obs)
{
    ServeSweepResult out;
    out.spec = spec_;
    for (const ServeJobClass& cls : workload_.classes)
        out.classNames.push_back(cls.name);

    // Unloaded baselines: every (design, class) pair alone on one idle
    // static partition slot. G10-family compiles go through the sweep
    // cache, so the cells' first slot-sized admissions start warm.
    const std::size_t nd = spec_.designs.size();
    const std::size_t nc = workload_.classes.size();
    const SystemConfig slotSys =
        partitionShare(spec_.sys.scaledDown(spec_.scaleDown),
                       1.0 / static_cast<double>(spec_.slots));
    out.baselines.assign(nd, std::vector<ServeClassBaseline>(nc));
    engine.parallelFor(nd * nc, [&](std::size_t i) {
        out.baselines[i / nc][i % nc] = unloadedBaseline(
            spec_.designs[i / nc], workload_, i % nc, spec_.scaleDown,
            slotSys, spec_.seed, planCache_);
    });

    auto recordCacheTotals = [&] {
        if (planCache_ == nullptr)
            return;
        out.planCacheHits = planCache_->hits();
        out.planCacheMisses = planCache_->misses();
        out.planCacheEntries = planCache_->entries();
    };

    if (spec_.ratesAuto) {
        runAutoRates(engine, obs, &out);
        recordCacheTotals();
        return out;
    }

    // The offered sequences, one per rate (shared by every design:
    // cells of one rate differ only in the design under test).
    const std::size_t nr = spec_.rates.size();
    std::vector<std::vector<ServeRequest>> requestsByRate(nr);
    for (std::size_t r = 0; r < nr; ++r)
        requestsByRate[r] =
            requestStream(spec_, workload_, spec_.rates[r]);

    // The grid: every design at every offered rate, design-major.
    // Per-cell registries (cells run on pool threads), merged in grid
    // order afterwards so the totals are worker-count independent;
    // the event sink observes only the first cell.
    out.cells.resize(nd * nr);
    std::vector<CounterRegistry> regs(nd * nr);
    engine.parallelFor(nd * nr, [&](std::size_t i) {
        const std::size_t d = i / nr;
        const std::size_t r = i % nr;
        ServeSim sim(spec_, spec_.designs[d], spec_.rates[r],
                     workload_, requestsByRate[r], out.baselines[d]);
        sim.setObservers(i == 0 ? obs.sink : nullptr,
                         obs.collectCounters ? &regs[i] : nullptr);
        sim.setPlanCache(planCache_);
        out.cells[i] = sim.run();
    });
    if (obs.collectCounters)
        for (CounterRegistry& reg : regs)
            out.counters.merge(reg);

    // Sustained-throughput capacity per design: the highest offered
    // rate whose cell stayed within the bounded queue (no rejections)
    // and had no failures.
    out.sustainedRate.assign(nd, 0.0);
    for (std::size_t d = 0; d < nd; ++d)
        for (std::size_t r = 0; r < nr; ++r)
            if (out.cells[d * nr + r].sustained())
                out.sustainedRate[d] = std::max(
                    out.sustainedRate[d], spec_.rates[r]);
    recordCacheTotals();
    return out;
}

}  // namespace g10
