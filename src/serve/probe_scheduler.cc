#include "probe_scheduler.h"

#include <cstring>
#include <deque>
#include <utility>

#include "serve/plan_cache.h"

namespace g10 {

std::uint64_t
rateBitsOf(double rate)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(rate), "double is 64-bit");
    std::memcpy(&bits, &rate, sizeof(bits));
    return bits;
}

// ---- ArenaPool -----------------------------------------------------

std::unique_ptr<Arena>
ArenaPool::acquire()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!free_.empty()) {
            std::unique_ptr<Arena> a = std::move(free_.back());
            free_.pop_back();
            return a;
        }
    }
    return std::make_unique<Arena>();
}

void
ArenaPool::release(std::unique_ptr<Arena> arena)
{
    arena->reset();  // keep the high-water chunk warm
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(arena));
}

// ---- ProbeScheduler ------------------------------------------------

ProbeScheduler::ProbeScheduler(ExperimentEngine& engine, ProbeFn fn,
                               bool speculate, int maxDepth)
    : engine_(engine),
      fn_(std::move(fn)),
      speculate_(speculate && engine.workers() >= 2),
      maxDepth_(maxDepth),
      maxInFlight_(engine.workers() + 1)
{
}

ProbeScheduler::~ProbeScheduler()
{
    // Wasted speculation may still be running; it borrows fn_ and the
    // caller's captures, so drain it before those go away.
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (inFlight_ == 0)
                return;
        }
        if (engine_.tryRunOne())
            continue;
        std::unique_lock<std::mutex> lk(mu_);
        if (inFlight_ == 0)
            return;
        const std::uint64_t seen = version_;
        cv_.wait(lk, [&] { return inFlight_ == 0 || version_ != seen; });
    }
}

void
ProbeScheduler::issueLocked(const ProbeKey& key, double rate,
                            bool speculative)
{
    slots_[key].speculative = speculative;
    ++inFlight_;
    ++stats_.issued;
    if (speculative)
        ++stats_.speculated;
    ++version_;

    // Submit while holding the lock (lock order is always scheduler ->
    // engine queue; the task body runs lock-free and only then re-takes
    // the scheduler lock, so there is no cycle).
    engine_.submit([this, key, rate] {
        ProbeResult r = fn_(key.lane, rate);
        std::lock_guard<std::mutex> lock(mu_);
        slots_[key].result =
            std::make_shared<const ProbeResult>(std::move(r));
        --inFlight_;
        ++version_;
        cv_.notify_all();
    });
    cv_.notify_all();
}

void
ProbeScheduler::speculateLocked(std::uint32_t lane,
                                const KneeCursor& cursor)
{
    if (!speculate_)
        return;

    // Breadth-first over the automaton's future: level 1 is the two
    // possible successors of the pending probe, level 2 their
    // children, … — nearer levels are likelier to be consumed, so
    // they get the in-flight slots first.
    std::deque<KneeCursor> frontier{cursor};
    for (int depth = 0; depth < maxDepth_ && !frontier.empty();
         ++depth) {
        std::deque<KneeCursor> next;
        for (const KneeCursor& c : frontier) {
            for (bool sustained : {true, false}) {
                if (inFlight_ >= maxInFlight_)
                    return;
                KneeCursor child = c;
                child.advance(sustained);
                if (child.done())
                    continue;
                const ProbeKey key{lane, rateBitsOf(child.next())};
                if (slots_.find(key) == slots_.end())
                    issueLocked(key, child.next(), true);
                next.push_back(child);
            }
        }
        frontier = std::move(next);
    }
}

std::shared_ptr<const ProbeResult>
ProbeScheduler::acquire(std::uint32_t lane, const KneeCursor& cursor)
{
    const ProbeKey key{lane, rateBitsOf(cursor.next())};
    std::unique_lock<std::mutex> lk(mu_);
    ++stats_.decided;
    auto it = slots_.find(key);
    if (it == slots_.end()) {
        issueLocked(key, cursor.next(), false);
        it = slots_.find(key);
    } else {
        if (it->second.speculative && !it->second.consumed)
            ++stats_.speculationUsed;
        if (it->second.result != nullptr)
            ++stats_.cacheHits;
    }
    it->second.consumed = true;
    speculateLocked(lane, cursor);

    // Wait for the probe, draining other queued probes meanwhile —
    // the "pitch-in" that lets N consumers and their speculation
    // share any pool size without deadlock: a consumer only sleeps
    // when the engine queue is empty, which means its awaited probe
    // is *running* on some thread and will complete and notify.
    // std::map never moves its nodes, so `it` stays valid throughout.
    const Slot& slot = it->second;
    while (slot.result == nullptr) {
        lk.unlock();
        const bool ran = engine_.tryRunOne();
        lk.lock();
        if (ran || slot.result != nullptr)
            continue;
        const std::uint64_t seen = version_;
        cv_.wait(lk, [&] {
            return slot.result != nullptr || version_ != seen;
        });
        // Otherwise a new probe was enqueued while we dozed — go
        // pitch in.
    }
    return slot.result;
}

ProbeStats
ProbeScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ProbeStats s = stats_;
    // Every speculative slot is consumed at most once, so the split
    // is exact once the searches are done.
    s.speculationWasted = s.speculated - s.speculationUsed;
    return s;
}

// ---- Knee-search driver --------------------------------------------

std::vector<KneeCursor>
runKneeSearch(ExperimentEngine& engine, std::size_t lanes,
              const ServeScenario& scenario, ProbeScheduler::ProbeFn probe,
              const KneeProbeSink& decided, ProbeTotals* totals,
              CounterRegistry* counters)
{
    std::vector<KneeCursor> cursors(
        lanes, KneeCursor(scenario.resolvedRateLo(), scenario.rateHi,
                          scenario.rateProbes));
    std::vector<CounterRegistry> regs(counters != nullptr ? lanes : 0);
    ProbeStats stats;
    {
        ProbeScheduler sched(engine, std::move(probe),
                             scenario.speculativeProbes);
        engine.parallelFor(lanes, [&](std::size_t l) {
            const auto lane = static_cast<std::uint32_t>(l);
            KneeCursor& cur = cursors[l];
            while (!cur.done()) {
                std::shared_ptr<const ProbeResult> res =
                    sched.acquire(lane, cur);
                decided(lane, res);
                if (counters != nullptr)
                    regs[l].merge(res->counters);
                cur.advance(res->sustained);
            }
        });
        // The searches are done; the dtor drains whatever speculation
        // is still in flight before the caller's captures go away.
        stats = sched.stats();
    }

    totals->probesIssued = stats.issued;
    totals->probesSpeculative = stats.speculated;
    totals->probeSpecUsed = stats.speculationUsed;
    totals->probeSpecWasted = stats.speculationWasted;
    totals->probeCacheHits = stats.cacheHits;
    if (counters != nullptr) {
        for (CounterRegistry& reg : regs)
            counters->merge(reg);
        // Scheduler accounting rides the same registry (visible via
        // --metrics, never serialized into a result document).
        counters->add("sweep.probe.issued", stats.issued);
        counters->add("sweep.probe.decided", stats.decided);
        counters->add("sweep.probe.speculated", stats.speculated);
        counters->add("sweep.probe.speculation_used",
                      stats.speculationUsed);
        counters->add("sweep.probe.speculation_wasted",
                      stats.speculationWasted);
        counters->add("sweep.probe.cache_hits", stats.cacheHits);
    }
    return cursors;
}

// ---- Spec fingerprint ----------------------------------------------

namespace {

/** FNV-1a accumulator of the spec fingerprint. */
class SpecHash
{
  public:
    void mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (i * 8)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void mixDouble(double v) { mix(rateBitsOf(v)); }

    void mixString(const std::string& s)
    {
        mix(s.size());
        for (char c : s) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ULL;
        }
    }

    /** Never 0, so a fingerprint is always distinguishable from an
     *  unset key. */
    std::uint64_t digest() const { return h_ == 0 ? 1 : h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::uint64_t
fingerprintServeSpec(const ServeSpec& spec)
{
    SpecHash h;
    h.mix(fingerprintSystemConfig(spec.sys));
    h.mix(spec.scaleDown);
    h.mix(spec.seed);
    h.mix(static_cast<std::uint64_t>(spec.slots));
    h.mix(static_cast<std::uint64_t>(spec.partitionPolicy));
    h.mixDouble(spec.resizeHysteresis);
    h.mix(static_cast<std::uint64_t>(spec.maxActive));
    h.mix(spec.queueCapacity);
    h.mix(static_cast<std::uint64_t>(spec.admit));
    h.mix(static_cast<std::uint64_t>(spec.starvationNs));
    h.mixDouble(spec.sloFactor);
    h.mix(static_cast<std::uint64_t>(spec.requests));
    h.mix(static_cast<std::uint64_t>(spec.arrival.kind));
    h.mixDouble(spec.arrival.burstOnSec);
    h.mixDouble(spec.arrival.burstOffSec);
    h.mixString(spec.arrival.tracePath);
    h.mix(spec.designs.size());
    for (const std::string& d : spec.designs)
        h.mixString(d);
    h.mix(spec.classes.size());
    for (const ServeJobClass& c : spec.classes) {
        h.mixString(c.name);
        h.mix(static_cast<std::uint64_t>(c.model));
        h.mix(static_cast<std::uint64_t>(c.batchSize));
        h.mix(static_cast<std::uint64_t>(c.iterations));
        h.mix(static_cast<std::uint64_t>(c.priority));
        h.mixDouble(c.weight);
    }
    return h.digest();
}

}  // namespace g10
