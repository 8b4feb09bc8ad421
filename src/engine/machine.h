/**
 * @file
 * One simulated node: the GPU, PCIe fabric and SSD that co-located
 * jobs share, and the kernel interleave that steps them.
 *
 * A Machine owns the node's shared SsdDevice, FabricChannels and
 * GpuComputeTimeline (handed to every runtime through shared()) and
 * interleaves the attached SimRuntimes at kernel granularity: it
 * always steps the runtime furthest behind in virtual time, ties going
 * to the earliest-attached one. Under MixSched::Priority virtual time
 * advances at 1/priority of the runtime's clock (stride scheduling),
 * and a runtime whose start time lies ahead of every attached clock
 * waits until the others catch up. Runs are deterministic and
 * independent of host thread count.
 *
 * MultiTenantSim drives a Machine over a fixed set of jobs; ServeSim
 * attaches jobs as they are admitted and interleaves arrivals with
 * nextClock().
 */

#ifndef G10_ENGINE_MACHINE_H
#define G10_ENGINE_MACHINE_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory_resource>
#include <optional>
#include <vector>

#include "common/system_config.h"
#include "common/types.h"
#include "engine/workload_mix.h"
#include "sim/interconnect/fabric.h"
#include "sim/runtime/sim_runtime.h"
#include "sim/ssd/ssd_device.h"

namespace g10 {

class Machine
{
  public:
    /** nextClock() of a machine with nothing attached. */
    static constexpr TimeNs kIdle = std::numeric_limits<TimeNs>::max();

    /**
     * @param sys   the node's platform (sizes the shared SSD)
     * @param sched furthest-behind rule: plain clocks or priority stride
     * @param arena scratch memory for the runtimes built over shared();
     *              null = the default new/delete resource. Must outlive
     *              those runtimes.
     */
    explicit Machine(const SystemConfig& sys,
                     MixSched sched = MixSched::RoundRobin,
                     std::pmr::memory_resource* arena = nullptr);

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    /** What every runtime on this node is constructed with. */
    const SharedResources& shared() const { return shared_; }

    const SsdDevice& ssd() const { return ssd_; }
    const GpuComputeTimeline& gpu() const { return gpu_; }

    /**
     * Add a started runtime (built over shared()) to the interleave.
     * @p id names it in stepNext()'s result and to detach(); its start
     * time (RunConfig::startNs) is its arrival. @p priority is the
     * stride weight under MixSched::Priority (clamped to [1, 1000]).
     */
    void attach(SimRuntime& rt, std::size_t id, int priority = 1);

    /** Remove runtime @p id; the others keep their attach order. */
    void detach(std::size_t id);

    bool empty() const { return slots_.empty(); }

    /** Clock of the runtime stepNext() steps next; kIdle when empty. */
    TimeNs nextClock();

    /**
     * Replay one kernel of the runtime furthest behind. When that
     * runtime had nothing left to do it is detached and its id is
     * returned (the caller finalizes it); otherwise nullopt. Never
     * allocates.
     */
    std::optional<std::size_t> stepNext();

  private:
    struct Slot
    {
        SimRuntime* rt = nullptr;
        std::size_t id = 0;
        std::int64_t weight = 1;  ///< stride weight (1 = round-robin)
        TimeNs vtBase = 0;        ///< virtual time = (now - vtBase) / weight
        bool joined = false;      ///< admitted into the stride queue
    };

    static constexpr std::size_t kNone = SIZE_MAX;

    /** Index of the slot to step next (kNone when empty). */
    std::size_t pick();

    SsdDevice ssd_;
    FabricChannels channels_;
    GpuComputeTimeline gpu_;
    SharedResources shared_;
    MixSched sched_;
    std::vector<Slot> slots_;  ///< attach order = tie order
};

}  // namespace g10

#endif  // G10_ENGINE_MACHINE_H
