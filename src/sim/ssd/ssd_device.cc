#include "ssd_device.h"

#include <algorithm>

#include "common/logging.h"

namespace g10 {

namespace {

/** Chunk buffers released on this thread, for the next chunk any device
 *  allocates on it (see SsdDevice::kMaxSpareChunks). */
std::vector<std::vector<std::uint32_t>>&
spareChunks()
{
    thread_local std::vector<std::vector<std::uint32_t>> spare;
    return spare;
}

}  // namespace

SsdDevice::SsdDevice(const SystemConfig& config, Geometry geometry)
    : config_(config), geom_(geometry)
{
    if (geom_.flashPageBytes == 0 || geom_.pagesPerBlock == 0)
        fatal("bad SSD geometry");
    Bytes physical = static_cast<Bytes>(
        static_cast<double>(config.ssdCapacityBytes) *
        (1.0 + geom_.overProvision));
    totalPages_ = physical / geom_.flashPageBytes;
    freePages_ = totalPages_;
    gcThreshold_ = static_cast<std::uint64_t>(
        static_cast<double>(totalPages_) * geom_.gcFreeThreshold);
    std::uint64_t blocks =
        std::max<std::uint64_t>(1, totalPages_ / geom_.pagesPerBlock);
    if (blocks >= kUnmapped)
        fatal("bad SSD geometry: %llu blocks overflow the block map",
              static_cast<unsigned long long>(blocks));
    blockCount_ = static_cast<std::uint32_t>(blocks);
    blockValid_.assign(1, 0);
    blockFill_.assign(1, 0);
    openBlock_ = 0;
}

SsdDevice::~SsdDevice()
{
    for (MapChunk& chunk : map_)
        if (!chunk.block.empty())
            releaseChunk(&chunk);
}

void
SsdDevice::takeChunk(MapChunk* chunk)
{
    std::vector<std::vector<std::uint32_t>>& spare = spareChunks();
    if (!spare.empty()) {
        chunk->block.swap(spare.back());
        spare.pop_back();
    }
    chunk->block.assign(kMapChunkPages, kUnmapped);
}

void
SsdDevice::releaseChunk(MapChunk* chunk)
{
    std::vector<std::vector<std::uint32_t>>& spare = spareChunks();
    if (spare.size() < kMaxSpareChunks) {
        spare.emplace_back();
        spare.back().swap(chunk->block);
    } else {
        std::vector<std::uint32_t>().swap(chunk->block);
    }
    chunk->live = 0;
}

std::uint32_t
SsdDevice::nextErasedBlock()
{
    const std::uint32_t ppb = geom_.pagesPerBlock;
    const auto opened = static_cast<std::uint32_t>(blockFill_.size());
    for (std::uint32_t b = openBlock_ + 1; b < opened; ++b)
        if (blockFill_[b] < ppb)
            return b;
    if (opened < blockCount_) {
        // The first block the log has not reached yet: still erased.
        blockValid_.push_back(0);
        blockFill_.push_back(0);
        return opened;
    }
    for (std::uint32_t b = 0; b < openBlock_; ++b)
        if (blockFill_[b] < ppb)
            return b;
    return openBlock_;
}

std::uint64_t
SsdDevice::pagesFor(Bytes bytes) const
{
    return (bytes + geom_.flashPageBytes - 1) / geom_.flashPageBytes;
}

std::uint64_t
SsdDevice::allocLogical(Bytes bytes)
{
    std::uint64_t first = nextLogical_;
    nextLogical_ += pagesFor(bytes);
    return first;
}

void
SsdDevice::freeLogical(std::uint64_t logical_page, Bytes bytes)
{
    const std::uint64_t end =
        std::min<std::uint64_t>(logical_page + pagesFor(bytes),
                                map_.size() * kMapChunkPages);
    for (std::uint64_t lp = logical_page; lp < end;) {
        MapChunk& chunk = map_[lp / kMapChunkPages];
        const std::uint64_t stop = std::min(
            end, (lp / kMapChunkPages + 1) * kMapChunkPages);
        if (chunk.live == 0) {
            lp = stop;  // never written (or already trimmed)
            continue;
        }
        for (; lp < stop; ++lp) {
            std::uint32_t& entry = chunk.block[lp % kMapChunkPages];
            if (entry == kUnmapped)
                continue;
            if (blockValid_[entry] > 0)
                --blockValid_[entry];
            entry = kUnmapped;
            --chunk.live;
            --validPages_;
        }
        if (chunk.live == 0)
            releaseChunk(&chunk);
    }
}

void
SsdDevice::remap(std::uint64_t first, std::uint64_t count,
                 std::uint32_t block)
{
    const std::uint64_t end = first + count;
    if (map_.size() * kMapChunkPages < end)
        map_.resize((end + kMapChunkPages - 1) / kMapChunkPages);
    for (std::uint64_t lp = first; lp < end;) {
        MapChunk& chunk = map_[lp / kMapChunkPages];
        if (chunk.block.empty())
            takeChunk(&chunk);
        const std::uint64_t stop = std::min(
            end, (lp / kMapChunkPages + 1) * kMapChunkPages);
        for (; lp < stop; ++lp) {
            std::uint32_t& entry = chunk.block[lp % kMapChunkPages];
            if (entry == kUnmapped) {
                ++chunk.live;
                ++validPages_;
            } else if (blockValid_[entry] > 0) {
                // Invalidate the previous physical copy. The page stays
                // unusable until its block is garbage-collected and
                // erased.
                --blockValid_[entry];
            }
            entry = block;
        }
    }
}

TimeNs
SsdDevice::serviceWrite(std::uint64_t logical_page, Bytes bytes)
{
    std::uint64_t pages = pagesFor(bytes);
    stats_.hostWriteBytes += bytes;
    stats_.nandWriteBytes += pages * geom_.flashPageBytes;

    TimeNs busy = config_.ssdWriteLatencyNs +
                  transferTimeNs(bytes, config_.ssdWriteGBps);

    const std::uint32_t ppb = geom_.pagesPerBlock;
    while (pages > 0) {
        // Append to the open block, advancing to the next erased block
        // when it fills.
        if (blockFill_[openBlock_] == ppb)
            openBlock_ = nextErasedBlock();
        if (blockFill_[openBlock_] >= ppb)
            fatal("SSD is full: %llu valid pages exceed capacity",
                  static_cast<unsigned long long>(totalPages_));
        // Append a span of pages at once: up to the end of the open
        // block, and ending on the page that drops the free count below
        // the GC threshold, so GC runs before the next page's old copy
        // is invalidated, exactly as a page-at-a-time append would.
        std::uint64_t span =
            std::min<std::uint64_t>(pages, ppb - blockFill_[openBlock_]);
        if (freePages_ < gcThreshold_)
            span = 1;
        else if (gcThreshold_ > 0)
            span = std::min(span, freePages_ - gcThreshold_ + 1);
        remap(logical_page, span, openBlock_);
        blockValid_[openBlock_] += static_cast<std::uint32_t>(span);
        blockFill_[openBlock_] += static_cast<std::uint32_t>(span);
        freePages_ -= std::min(freePages_, span);
        if (freePages_ < gcThreshold_)
            garbageCollect(&busy);
        logical_page += span;
        pages -= span;
    }
    return busy;
}

TimeNs
SsdDevice::serviceRead(Bytes bytes)
{
    stats_.hostReadBytes += bytes;
    return config_.ssdReadLatencyNs +
           transferTimeNs(bytes, config_.ssdReadGBps);
}

void
SsdDevice::garbageCollect(TimeNs* busy)
{
    ++stats_.gcRuns;
    // Greedy: relocate the fullest-of-invalid (fewest valid pages)
    // *programmed* block until comfortably above the threshold.
    while (freePages_ < gcThreshold_ * 2) {
        std::uint32_t victim = 0;
        std::uint32_t best_valid = geom_.pagesPerBlock + 1;
        for (std::uint32_t b = 0;
             b < static_cast<std::uint32_t>(blockValid_.size()); ++b) {
            if (b == openBlock_)
                continue;
            if (blockFill_[b] < geom_.pagesPerBlock)
                continue;  // not fully programmed; nothing to reclaim
            if (blockValid_[b] < best_valid) {
                best_valid = blockValid_[b];
                victim = b;
            }
        }
        if (best_valid > geom_.pagesPerBlock)
            break;  // nothing to collect
        if (best_valid == geom_.pagesPerBlock)
            break;  // everything valid: GC cannot help

        // Relocate the surviving pages into the log and erase. (We
        // charge traffic and time; the per-page map is not re-walked,
        // a standard simulator approximation.)
        stats_.relocatedPages += best_valid;
        stats_.nandWriteBytes +=
            static_cast<Bytes>(best_valid) * geom_.flashPageBytes;
        *busy += geom_.eraseLatencyNs +
                 transferTimeNs(static_cast<Bytes>(best_valid) *
                                    geom_.flashPageBytes,
                                config_.ssdWriteGBps);
        ++stats_.blockErases;
        // The erase frees the whole block; the relocated survivors are
        // programmed back into it (log-append approximation).
        freePages_ += geom_.pagesPerBlock - best_valid;
        blockFill_[victim] = best_valid;
        blockValid_[victim] = best_valid;
    }
}

double
SsdDevice::lifetimeYears(double dwpd, double rated_years,
                         TimeNs elapsed_ns) const
{
    if (elapsed_ns <= 0 || stats_.nandWriteBytes == 0)
        return rated_years;
    // Rated total NAND write budget.
    double budget = dwpd * rated_years * 365.0 *
                    static_cast<double>(config_.ssdCapacityBytes);
    // Observed write rate (bytes/day).
    double per_day = static_cast<double>(stats_.nandWriteBytes) /
                     (static_cast<double>(elapsed_ns) / SEC) * 86400.0;
    if (per_day <= 0.0)
        return rated_years;
    return budget / per_day / 365.0;
}

}  // namespace g10
