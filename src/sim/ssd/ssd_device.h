/**
 * @file
 * Flash SSD timing + endurance model (paper §5, SSDSim-style).
 *
 * Models a Z-NAND-class device as a log-structured FTL: host writes land
 * in an append-only flash log at flash-page granularity; rewriting a
 * logical page invalidates its old physical page; when free blocks run
 * low, greedy garbage collection relocates the valid pages of the
 * emptiest block and erases it, charging both time (device busy) and
 * endurance (NAND writes, erases). This is what makes the §7.7 lifetime /
 * write-amplification analysis measurable instead of assumed.
 *
 * The logical-to-physical map is paged: logical pages are grouped into
 * fixed chunks of kMapChunkPages block ids, and a chunk exists only
 * while at least one of its pages is mapped. Serving and fleet nodes
 * allocate fresh logical runs for every job and never reuse them, so
 * the logical space grows without bound while the live set stays
 * small; map memory is bounded by the live pages rounded up to whole
 * chunks, not by the highest logical page ever allocated. A released
 * chunk's buffer goes to a spare list of its thread (at most
 * kMaxSpareChunks), and the next chunk any device allocates on that
 * thread reuses it: the devices built one after another for the
 * designs of a zoo row, and a node's later jobs after earlier ones were
 * trimmed, map into memory that is already resident instead of
 * faulting in fresh pages.
 *
 * The per-block counters likewise cover only the blocks the log has
 * reached: the log opens erased blocks in index order, so every block
 * past the highest one opened is erased and needs no entry.
 */

#ifndef G10_SIM_SSD_SSD_DEVICE_H
#define G10_SIM_SSD_SSD_DEVICE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/system_config.h"
#include "common/types.h"

namespace g10 {

/** Endurance/traffic counters exposed for §7.7. */
struct SsdStats
{
    Bytes hostReadBytes = 0;    ///< bytes the host read from the device
    Bytes hostWriteBytes = 0;   ///< bytes the host wrote to the device
    Bytes nandWriteBytes = 0;   ///< physical NAND program traffic
    std::uint64_t gcRuns = 0;
    std::uint64_t blockErases = 0;
    std::uint64_t relocatedPages = 0;

    /** Write amplification factor (NAND writes / host writes). */
    double waf() const
    {
        if (hostWriteBytes == 0)
            return 1.0;
        return static_cast<double>(nandWriteBytes) /
               static_cast<double>(hostWriteBytes);
    }
};

/**
 * One simulated SSD. Time is managed by the caller: service calls return
 * the device-busy duration for a request and advance internal wear state.
 */
class SsdDevice
{
  public:
    /** Geometry knobs (defaults sized for the Table 2 device). */
    struct Geometry
    {
        Bytes flashPageBytes = 64 * KiB;   ///< mapping granularity
        std::uint32_t pagesPerBlock = 256;
        double overProvision = 0.07;       ///< spare capacity fraction
        double gcFreeThreshold = 0.05;     ///< GC when free < 5% of blocks
        TimeNs eraseLatencyNs = 2 * MSEC;
    };

    explicit SsdDevice(const SystemConfig& config)
        : SsdDevice(config, Geometry())
    {}

    SsdDevice(const SystemConfig& config, Geometry geometry);

    /** Returns the map's chunks to this thread's spare list. */
    ~SsdDevice();
    SsdDevice(const SsdDevice&) = default;
    SsdDevice& operator=(const SsdDevice&) = default;
    SsdDevice(SsdDevice&&) = default;
    SsdDevice& operator=(SsdDevice&&) = default;

    /**
     * Write @p bytes at logical address space of tensor @p tensor chunk
     * region starting at @p logical_page. Returns device busy time
     * (program latency + streaming + any GC this write triggered).
     */
    TimeNs serviceWrite(std::uint64_t logical_page, Bytes bytes);

    /** Read @p bytes; returns busy time. */
    TimeNs serviceRead(Bytes bytes);

    /** Allocate a run of logical pages for @p bytes; returns first page. */
    std::uint64_t allocLogical(Bytes bytes);

    /**
     * Trim: discard the logical pages [@p logical_page, +@p bytes).
     * Their physical copies (if any) become invalid immediately, so
     * garbage collection can erase the blocks holding them — this is
     * how a departing job's log space becomes reusable. Pages never
     * written are skipped; trimming is free (host-side metadata only).
     */
    void freeLogical(std::uint64_t logical_page, Bytes bytes);

    /** Logical pages currently holding valid (mapped) data. */
    std::uint64_t validPages() const { return validPages_; }

    const SsdStats& stats() const { return stats_; }
    const Geometry& geometry() const { return geom_; }

    /** Free physical pages remaining (for tests). */
    std::uint64_t freePages() const { return freePages_; }

    /** Total physical pages. */
    std::uint64_t totalPages() const { return totalPages_; }

    /**
     * Device lifetime estimate in years under continuous operation at
     * the observed read/write mix (§7.7's DWPD arithmetic).
     *
     * @param dwpd        rated drive-writes-per-day endurance
     * @param rated_years endurance rating period
     * @param elapsed_ns  simulated wall time generating stats()
     */
    double lifetimeYears(double dwpd, double rated_years,
                         TimeNs elapsed_ns) const;

    /** Logical pages per map chunk: one chunk holds this many block
     *  ids (16 KiB) and is allocated on the first write into its range. */
    static constexpr std::uint64_t kMapChunkPages = 4096;

    /** Released chunk buffers a thread keeps for reuse (16 MiB). */
    static constexpr std::size_t kMaxSpareChunks = 1024;

  private:
    /** Map entry of a logical page that holds no valid data. */
    static constexpr std::uint32_t kUnmapped = 0xffffffffu;

    /** kMapChunkPages block ids (kUnmapped where not mapped), or empty
     *  while none of the chunk's pages is mapped. */
    struct MapChunk
    {
        std::vector<std::uint32_t> block;
        std::uint32_t live = 0;  ///< mapped entries in block
    };

    /** Flash pages covering @p bytes. */
    std::uint64_t pagesFor(Bytes bytes) const;

    /** Map logical pages [@p first, +@p count) to @p block, invalidating
     *  their previous copies; allocates chunks on first write. */
    void remap(std::uint64_t first, std::uint64_t count,
               std::uint32_t block);

    /** Give @p chunk kMapChunkPages unmapped entries, reusing a spare
     *  buffer when this thread has one. */
    static void takeChunk(MapChunk* chunk);

    /** Hand @p chunk's buffer to this thread's spare list (or free it
     *  when the list is full); the chunk is left empty. */
    static void releaseChunk(MapChunk* chunk);

    /** The erased block the log appends to after the open one fills:
     *  the next in index order, wrapping; openBlock_ when none is. */
    std::uint32_t nextErasedBlock();

    /** Greedy GC; only called while freePages_ < gcThreshold_. */
    void garbageCollect(TimeNs* busy);

    SystemConfig config_;
    Geometry geom_;

    std::uint64_t totalPages_ = 0;
    std::uint64_t freePages_ = 0;
    std::uint64_t nextLogical_ = 0;
    /** GC runs once free pages drop below this many. */
    std::uint64_t gcThreshold_ = 0;

    // logical page -> block currently holding it (valid data), paged by
    // logical page / kMapChunkPages.
    std::vector<MapChunk> map_;
    std::uint64_t validPages_ = 0;  ///< mapped entries over all chunks
    /** Physical blocks. The per-block counters below cover blocks
     *  [0, blockValid_.size()), the prefix the log has opened; the rest
     *  are erased. */
    std::uint32_t blockCount_ = 0;
    // per-block count of valid pages.
    std::vector<std::uint32_t> blockValid_;
    // per-block count of programmed pages since the last erase.
    std::vector<std::uint32_t> blockFill_;
    std::uint32_t openBlock_ = 0;

    SsdStats stats_;
};

}  // namespace g10

#endif  // G10_SIM_SSD_SSD_DEVICE_H
