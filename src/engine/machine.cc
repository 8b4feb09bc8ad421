#include "machine.h"

#include <algorithm>

#include "common/logging.h"

namespace g10 {

Machine::Machine(const SystemConfig& sys, MixSched sched,
                 std::pmr::memory_resource* arena)
    : ssd_(sys), sched_(sched)
{
    shared_.ssd = &ssd_;
    shared_.channels = &channels_;
    shared_.gpu = &gpu_;
    shared_.arena = arena;
}

void
Machine::attach(SimRuntime& rt, std::size_t id, int priority)
{
    Slot s;
    s.rt = &rt;
    s.id = id;
    if (sched_ == MixSched::Priority)
        s.weight = std::clamp<std::int64_t>(priority, 1, 1000);
    slots_.push_back(s);
}

void
Machine::detach(std::size_t id)
{
    auto it = std::find_if(slots_.begin(), slots_.end(),
                           [id](const Slot& s) { return s.id == id; });
    if (it == slots_.end())
        panic("Machine::detach: runtime %zu is not attached", id);
    slots_.erase(it);
}

std::size_t
Machine::pick()
{
    if (slots_.empty())
        return kNone;

    // The slot attaining the minimum clock, earliest-attached on ties.
    // Under round-robin that is the pick: virtual time is the clock,
    // and a runtime never runs behind its own start time, so the
    // arrival gate below never excludes it.
    std::size_t first = 0;
    TimeNs minNow = slots_[0].rt->now();
    for (std::size_t i = 1; i < slots_.size(); ++i) {
        if (slots_[i].rt->now() < minNow) {
            minNow = slots_[i].rt->now();
            first = i;
        }
    }
    if (sched_ != MixSched::Priority)
        return first;

    // Stride scheduling: virtual time advances at 1/weight of the
    // runtime's clock, so a priority-p job receives ~p times the
    // interleaving share.
    //
    // A runtime has not arrived until every other clock reaches its
    // start time; stepping it earlier would let it reserve the shared
    // GPU/fabric timelines in the future and stall kernels that are
    // ready now (the GPU would sit modeled-idle over the arrival gap).
    // The runtime attaining the minimum clock always satisfies
    // arrival <= minNow, so the eligible set is never empty.
    auto arrived = [minNow](const Slot& s) {
        return s.rt->config().startNs <= minNow;
    };

    // Admit newly arrived runtimes into the stride queue. A joiner's
    // virtual time is seeded to the runnable set's current minimum
    // (CFS-style): it competes from here on at its weighted share but
    // gets no catch-up credit for the time before it arrived --
    // otherwise a late joiner would monopolize the GPU and starve
    // incumbents until it "caught up".
    for (Slot& s : slots_) {
        if (s.joined || !arrived(s))
            continue;
        TimeNs min_num = 0;
        std::int64_t min_w = 1;
        bool found = false;
        for (const Slot& o : slots_) {
            if (!o.joined)
                continue;
            const TimeNs num = o.rt->now() - o.vtBase;
            if (!found || num * min_w < min_num * o.weight) {
                min_num = num;
                min_w = o.weight;
                found = true;
            }
        }
        s.vtBase = found ? s.rt->now() - (min_num * s.weight) / min_w
                         : s.rt->now();
        s.joined = true;
    }

    std::size_t best = kNone;
    TimeNs best_num = 0;
    std::int64_t best_w = 1;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot& s = slots_[i];
        if (!arrived(s))
            continue;
        const TimeNs num = s.rt->now() - s.vtBase;
        // Compare num/w < best_num/best_w without division.
        if (best == kNone || num * best_w < best_num * s.weight) {
            best = i;
            best_num = num;
            best_w = s.weight;
        }
    }
    return best;
}

TimeNs
Machine::nextClock()
{
    const std::size_t i = pick();
    return i == kNone ? kIdle : slots_[i].rt->now();
}

std::optional<std::size_t>
Machine::stepNext()
{
    const std::size_t i = pick();
    if (i == kNone)
        panic("Machine::stepNext with no runtime attached");
    if (slots_[i].rt->stepKernel())
        return std::nullopt;
    const std::size_t id = slots_[i].id;
    slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
    return id;
}

}  // namespace g10
