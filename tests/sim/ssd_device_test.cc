/** @file Unit tests for the SSD FTL/GC/wear model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "sim/ssd/ssd_device.h"
#include "tests/test_util.h"

namespace g10 {
namespace {

SystemConfig
smallSsdSys()
{
    SystemConfig s = test::tinySystem();
    s.ssdCapacityBytes = 256 * MiB;  // tiny so GC is reachable
    return s;
}

TEST(SsdDevice, ReadTimingMatchesDatasheet)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    // 3.2 GB/s + 20 us latency.
    TimeNs t = ssd.serviceRead(3200000);  // 1 ms of streaming
    EXPECT_NEAR(static_cast<double>(t), 1.0 * MSEC + 20.0 * USEC,
                2.0 * USEC);
    EXPECT_EQ(ssd.stats().hostReadBytes, 3200000u);
}

TEST(SsdDevice, WriteTimingAndTraffic)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    auto lp = ssd.allocLogical(8 * MiB);
    TimeNs t = ssd.serviceWrite(lp, 8 * MiB);
    EXPECT_GT(t, transferTimeNs(8 * MiB, s.ssdWriteGBps));
    EXPECT_EQ(ssd.stats().hostWriteBytes, 8 * MiB);
    EXPECT_GE(ssd.stats().nandWriteBytes, 8 * MiB);
}

TEST(SsdDevice, FreshDeviceWafIsOne)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    auto lp = ssd.allocLogical(16 * MiB);
    ssd.serviceWrite(lp, 16 * MiB);
    EXPECT_DOUBLE_EQ(ssd.stats().waf(), 1.0);
    EXPECT_EQ(ssd.stats().gcRuns, 0u);
}

TEST(SsdDevice, OverwritesInvalidateOldPages)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    auto lp = ssd.allocLogical(4 * MiB);
    std::uint64_t before = ssd.freePages();
    ssd.serviceWrite(lp, 4 * MiB);
    std::uint64_t after_first = ssd.freePages();
    EXPECT_LT(after_first, before);
    // A rewrite appends to the log (consuming fresh pages) and only
    // *invalidates* the old copies -- they stay unusable until GC.
    ssd.serviceWrite(lp, 4 * MiB);
    EXPECT_EQ(ssd.freePages(), after_first - 4 * MiB / 64 / KiB);
}

TEST(SsdDevice, GarbageCollectionTriggersUnderChurn)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    // Hammer one logical region until the log wraps and GC must run.
    auto lp = ssd.allocLogical(32 * MiB);
    for (int i = 0; i < 40; ++i)
        ssd.serviceWrite(lp, 32 * MiB);
    EXPECT_GT(ssd.stats().gcRuns, 0u);
    EXPECT_GT(ssd.stats().blockErases, 0u);
    EXPECT_GE(ssd.stats().waf(), 1.0);
}

TEST(SsdDevice, LifetimeYearsScalesInverselyWithWriteRate)
{
    SystemConfig s = smallSsdSys();
    SsdDevice a(s);
    SsdDevice b(s);
    auto lp1 = a.allocLogical(64 * MiB);
    auto lp2 = b.allocLogical(64 * MiB);
    a.serviceWrite(lp1, 64 * MiB);
    b.serviceWrite(lp2, 64 * MiB);
    b.serviceWrite(lp2, 64 * MiB);  // double the writes, same window
    double la = a.lifetimeYears(30.0, 5.0, 1 * SEC);
    double lb = b.lifetimeYears(30.0, 5.0, 1 * SEC);
    EXPECT_NEAR(la / lb, 2.0, 0.05);
}

TEST(SsdDevice, LifetimeMatchesPaperArithmetic)
{
    // §7.7: a saturated 3 GB/s stream that is half writes (the paper's
    // 50/50 read/write mix) wears a 30-DWPD 3.2 TB device in ~3.7 years.
    SystemConfig s;  // full-size device
    SsdDevice ssd(s);
    auto lp = ssd.allocLogical(3ULL * 1000 * 1000 * 1000);
    ssd.serviceWrite(lp, 3ULL * 1000 * 1000 * 1000);  // 3 GB of writes
    double years = ssd.lifetimeYears(30.0, 5.0, 2 * SEC);  // in 2 s
    EXPECT_NEAR(years, 3.7, 0.2);
}

TEST(SsdDevice, FreeLogicalInvalidatesPages)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    auto lp = ssd.allocLogical(4 * MiB);
    ssd.serviceWrite(lp, 4 * MiB);
    std::uint64_t pages = 4 * MiB / (64 * KiB);
    EXPECT_EQ(ssd.validPages(), pages);
    ssd.freeLogical(lp, 4 * MiB);
    EXPECT_EQ(ssd.validPages(), 0u);
    // Trimming is host metadata only: no wear, no GC, no frees yet.
    EXPECT_EQ(ssd.stats().blockErases, 0u);
}

TEST(SsdDevice, FreeLogicalOfUnwrittenRegionIsANoop)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    auto lp = ssd.allocLogical(8 * MiB);
    ssd.freeLogical(lp, 8 * MiB);  // never written
    EXPECT_EQ(ssd.validPages(), 0u);
    EXPECT_EQ(ssd.freePages(), ssd.totalPages());
}

TEST(SsdDevice, TrimmedSpaceIsReclaimedUnderJobChurn)
{
    // Serving-style churn: each "job" allocates a region larger than
    // half the device, writes it, departs (trim). With trim, GC can
    // erase the departed jobs' blocks and the device survives many
    // generations; without it the accumulated valid pages would
    // exceed physical capacity and the write path would die.
    SystemConfig s = smallSsdSys();  // 256 MiB device
    SsdDevice ssd(s);
    for (int gen = 0; gen < 8; ++gen) {
        auto lp = ssd.allocLogical(160 * MiB);
        ssd.serviceWrite(lp, 160 * MiB);
        ssd.freeLogical(lp, 160 * MiB);
    }
    EXPECT_GT(ssd.stats().gcRuns, 0u);
    EXPECT_GT(ssd.stats().blockErases, 0u);
    EXPECT_EQ(ssd.validPages(), 0u);
    // Dead pages relocate for free, so write amplification stays
    // modest even though the log wrapped several times.
    EXPECT_LT(ssd.stats().waf(), 2.0);
}

TEST(SsdDeviceDeath, LeakedLogicalSpaceEventuallyFillsTheDevice)
{
    // The regression freeLogical() fixes: without trim, departed
    // jobs' pages stay valid forever and churn overruns capacity.
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    EXPECT_EXIT(
        {
            for (int gen = 0; gen < 8; ++gen) {
                auto lp = ssd.allocLogical(160 * MiB);
                ssd.serviceWrite(lp, 160 * MiB);
                // no freeLogical: space leaks
            }
        },
        ::testing::ExitedWithCode(1), "SSD is full");
}

TEST(SsdDevice, AllocLogicalAdvances)
{
    SystemConfig s = smallSsdSys();
    SsdDevice ssd(s);
    auto a = ssd.allocLogical(1 * MiB);
    auto b = ssd.allocLogical(1 * MiB);
    EXPECT_GT(b, a);
}

// ---- Differential test against a hash-map reference FTL ----------------

/**
 * Reference model: the FTL as first written, one hash-map node per
 * mapped logical page and a page-at-a-time append loop that checks for
 * GC after every page. SsdDevice must match it call for call.
 */
class ReferenceFtl
{
  public:
    ReferenceFtl(const SystemConfig& config, SsdDevice::Geometry geom)
        : config_(config), geom_(geom)
    {
        Bytes physical = static_cast<Bytes>(
            static_cast<double>(config.ssdCapacityBytes) *
            (1.0 + geom_.overProvision));
        totalPages_ = physical / geom_.flashPageBytes;
        freePages_ = totalPages_;
        std::uint64_t blocks =
            std::max<std::uint64_t>(1, totalPages_ / geom_.pagesPerBlock);
        blockValid_.assign(blocks, 0);
        blockFill_.assign(blocks, 0);
    }

    std::uint64_t allocLogical(Bytes bytes)
    {
        std::uint64_t first = nextLogical_;
        nextLogical_ += pagesFor(bytes);
        return first;
    }

    void freeLogical(std::uint64_t logical_page, Bytes bytes)
    {
        for (std::uint64_t i = 0; i < pagesFor(bytes); ++i) {
            auto it = map_.find(logical_page + i);
            if (it == map_.end())
                continue;
            if (blockValid_[it->second] > 0)
                --blockValid_[it->second];
            map_.erase(it);
        }
    }

    TimeNs serviceWrite(std::uint64_t logical_page, Bytes bytes)
    {
        std::uint64_t pages = pagesFor(bytes);
        stats_.hostWriteBytes += bytes;
        stats_.nandWriteBytes += pages * geom_.flashPageBytes;
        TimeNs busy = config_.ssdWriteLatencyNs +
                      transferTimeNs(bytes, config_.ssdWriteGBps);
        const auto nblocks = static_cast<std::uint32_t>(blockFill_.size());
        for (std::uint64_t i = 0; i < pages; ++i) {
            auto it = map_.find(logical_page + i);
            if (it != map_.end() && blockValid_[it->second] > 0)
                --blockValid_[it->second];
            if (blockFill_[open_] == geom_.pagesPerBlock) {
                std::uint32_t next = open_;
                for (std::uint32_t probe = 0; probe < nblocks; ++probe) {
                    next = (next + 1) % nblocks;
                    if (blockFill_[next] < geom_.pagesPerBlock)
                        break;
                }
                open_ = next;
            }
            if (blockFill_[open_] >= geom_.pagesPerBlock)
                fatal("reference FTL is full");
            ++blockValid_[open_];
            ++blockFill_[open_];
            map_[logical_page + i] = open_;
            if (freePages_ > 0)
                --freePages_;
            maybeGarbageCollect(&busy);
        }
        return busy;
    }

    const SsdStats& stats() const { return stats_; }
    std::uint64_t freePages() const { return freePages_; }
    std::uint64_t validPages() const { return map_.size(); }

  private:
    std::uint64_t pagesFor(Bytes bytes) const
    {
        return (bytes + geom_.flashPageBytes - 1) / geom_.flashPageBytes;
    }

    void maybeGarbageCollect(TimeNs* busy)
    {
        const auto threshold = static_cast<std::uint64_t>(
            static_cast<double>(totalPages_) * geom_.gcFreeThreshold);
        if (freePages_ >= threshold)
            return;
        ++stats_.gcRuns;
        while (freePages_ < threshold * 2) {
            std::uint32_t victim = 0;
            std::uint32_t best = geom_.pagesPerBlock + 1;
            for (std::uint32_t b = 0; b < blockValid_.size(); ++b) {
                if (b == open_ || blockFill_[b] < geom_.pagesPerBlock)
                    continue;
                if (blockValid_[b] < best) {
                    best = blockValid_[b];
                    victim = b;
                }
            }
            if (best >= geom_.pagesPerBlock)
                break;
            const Bytes moved =
                static_cast<Bytes>(best) * geom_.flashPageBytes;
            stats_.relocatedPages += best;
            stats_.nandWriteBytes += moved;
            *busy += geom_.eraseLatencyNs +
                     transferTimeNs(moved, config_.ssdWriteGBps);
            ++stats_.blockErases;
            freePages_ += geom_.pagesPerBlock - best;
            blockFill_[victim] = best;
            blockValid_[victim] = best;
        }
    }

    SystemConfig config_;
    SsdDevice::Geometry geom_;
    std::uint64_t totalPages_ = 0;
    std::uint64_t freePages_ = 0;
    std::uint64_t nextLogical_ = 0;
    std::unordered_map<std::uint64_t, std::uint32_t> map_;
    std::vector<std::uint32_t> blockValid_;
    std::vector<std::uint32_t> blockFill_;
    std::uint32_t open_ = 0;
    SsdStats stats_;
};

/** What a differential run exercised, so the test can insist on it. */
struct Coverage
{
    int ragged = 0;           ///< writes of a non-page-multiple size
    int rewrites = 0;         ///< writes over already-mapped pages
    int straddlingTrims = 0;  ///< trims crossing a map-chunk boundary
    int rewritesAfterTrim = 0;
    std::uint64_t gcRuns = 0;
};

/** A logical region the driver allocated and may write or trim. */
struct Region
{
    std::uint64_t first = 0;
    std::uint64_t pages = 0;
    bool written = false;
    bool trimmed = false;
};

void
expectSame(const SsdDevice& dev, const ReferenceFtl& ref, int op)
{
    SCOPED_TRACE(::testing::Message() << "after op " << op);
    ASSERT_EQ(dev.freePages(), ref.freePages());
    ASSERT_EQ(dev.validPages(), ref.validPages());
    const SsdStats& a = dev.stats();
    const SsdStats& b = ref.stats();
    ASSERT_EQ(a.hostReadBytes, b.hostReadBytes);
    ASSERT_EQ(a.hostWriteBytes, b.hostWriteBytes);
    ASSERT_EQ(a.nandWriteBytes, b.nandWriteBytes);
    ASSERT_EQ(a.gcRuns, b.gcRuns);
    ASSERT_EQ(a.blockErases, b.blockErases);
    ASSERT_EQ(a.relocatedPages, b.relocatedPages);
}

/**
 * Drive SsdDevice and the reference with one seeded sequence of
 * allocLogical / serviceWrite / freeLogical calls, comparing after
 * every call. Allocated space is capped well below the device so the
 * run churns through GC without filling it.
 */
Coverage
runDifferential(std::uint64_t seed, SsdDevice::Geometry geom, int ops)
{
    const SystemConfig sys = smallSsdSys();
    SsdDevice dev(sys, geom);
    ReferenceFtl ref(sys, geom);
    const Bytes page = geom.flashPageBytes;
    const std::uint64_t chunk = SsdDevice::kMapChunkPages;
    const std::uint64_t budgetPages = sys.ssdCapacityBytes * 2 / 5 / page;
    Rng rng(seed);
    Coverage cov;
    std::vector<Region> regions;
    std::uint64_t allocated = 0;  // pages in live regions
    std::uint64_t nextLogical = 0;

    auto alloc = [&](Bytes bytes, int op) {
        const std::uint64_t lp = dev.allocLogical(bytes);
        ASSERT_EQ(lp, ref.allocLogical(bytes));
        ASSERT_EQ(lp, nextLogical);
        nextLogical = lp + (bytes + page - 1) / page;
        expectSame(dev, ref, op);
        regions.push_back({lp, nextLogical - lp, false, false});
        allocated += nextLogical - lp;
    };
    auto trim = [&](std::uint64_t lp, std::uint64_t pages, int op) {
        if (lp / chunk != (lp + pages - 1) / chunk)
            ++cov.straddlingTrims;
        // A ragged byte count covers the same pages.
        const Bytes bytes =
            pages * page - static_cast<Bytes>(rng.uniformInt(0, 1)) *
                               (page / 2);
        dev.freeLogical(lp, bytes);
        ref.freeLogical(lp, bytes);
        expectSame(dev, ref, op);
    };

    for (int op = 0; op < ops; ++op) {
        const std::int64_t kind = rng.uniformInt(0, 9);
        if (regions.empty() || kind == 0) {
            // Now and then pad the logical space so the next region
            // starts a few pages short of a chunk boundary.
            if (rng.bernoulli(0.3)) {
                const std::uint64_t lead =
                    static_cast<std::uint64_t>(rng.uniformInt(1, 16));
                const std::uint64_t pad =
                    (chunk - nextLogical % chunk + chunk - lead) % chunk;
                if (pad > 0) {
                    const std::uint64_t lp = dev.allocLogical(pad * page);
                    EXPECT_EQ(lp, ref.allocLogical(pad * page));
                    nextLogical = lp + pad;
                }
            }
            const Bytes bytes = static_cast<Bytes>(rng.uniformInt(
                1, static_cast<std::int64_t>(std::min<std::uint64_t>(
                       budgetPages / 4, 2 * chunk) * page)));
            while (allocated + (bytes + page - 1) / page > budgetPages &&
                   !regions.empty()) {
                // Over budget: a departing job trims its whole region.
                const std::size_t victim = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          regions.size() - 1)));
                trim(regions[victim].first, regions[victim].pages, op);
                allocated -= regions[victim].pages;
                regions.erase(regions.begin() +
                              static_cast<std::ptrdiff_t>(victim));
            }
            alloc(bytes, op);
            continue;
        }
        Region& r = regions[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(regions.size() - 1)))];
        const std::uint64_t off = static_cast<std::uint64_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(r.pages - 1)));
        const std::uint64_t span = static_cast<std::uint64_t>(
            rng.uniformInt(1, static_cast<std::int64_t>(r.pages - off)));
        if (kind <= 7) {
            // Write [off, off + span) pages of the region, sometimes
            // with a byte count that ends mid-page.
            Bytes bytes = span * page;
            if (rng.bernoulli(0.4)) {
                bytes -= static_cast<Bytes>(
                    rng.uniformInt(1, static_cast<std::int64_t>(page - 1)));
                ++cov.ragged;
            }
            if (r.written)
                ++cov.rewrites;
            if (r.trimmed)
                ++cov.rewritesAfterTrim;
            r.written = true;
            const TimeNs busy = dev.serviceWrite(r.first + off, bytes);
            EXPECT_EQ(busy, ref.serviceWrite(r.first + off, bytes))
                << "op " << op;
            expectSame(dev, ref, op);
        } else {
            // Partial trim; the region stays allocated for rewrites.
            trim(r.first + off, span, op);
            r.trimmed = true;
        }
        if (::testing::Test::HasFailure())
            break;
    }
    cov.gcRuns = dev.stats().gcRuns;
    return cov;
}

TEST(SsdDevice, MatchesHashMapReferenceUnderRandomChurn)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        const Coverage cov = runDifferential(seed, SsdDevice::Geometry(),
                                             3000);
        ASSERT_FALSE(HasFailure());
        EXPECT_GT(cov.gcRuns, 0u);
        EXPECT_GT(cov.ragged, 0);
        EXPECT_GT(cov.rewrites, 0);
        EXPECT_GT(cov.straddlingTrims, 0);
        EXPECT_GT(cov.rewritesAfterTrim, 0);
    }
}

TEST(SsdDevice, MatchesHashMapReferenceWithSmallPagesAndBlocks)
{
    // 4 KiB pages put a map-chunk boundary every 16 MiB of logical
    // space; 64-page blocks give the GC victim scan ~1000 blocks.
    SsdDevice::Geometry geom;
    geom.flashPageBytes = 4 * KiB;
    geom.pagesPerBlock = 64;
    for (std::uint64_t seed : {7u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        const Coverage cov = runDifferential(seed, geom, 1500);
        ASSERT_FALSE(HasFailure());
        EXPECT_GT(cov.gcRuns, 0u);
        EXPECT_GT(cov.straddlingTrims, 0);
        EXPECT_GT(cov.rewritesAfterTrim, 0);
    }
}

TEST(SsdDevice, MatchesHashMapReferenceNearlyFull)
{
    // Live data above 1 - gcFreeThreshold of the device: every GC run
    // leaves free pages under the threshold, so GC fires after every
    // appended page and each rewrite relocates the emptiest block.
    const SystemConfig sys = smallSsdSys();
    SsdDevice dev(sys);
    ReferenceFtl ref(sys, SsdDevice::Geometry());
    const Bytes page = SsdDevice::Geometry().flashPageBytes;
    const std::uint64_t pages = dev.totalPages() * 24 / 25;
    const std::uint64_t lp = dev.allocLogical(pages * page);
    ASSERT_EQ(lp, ref.allocLogical(pages * page));
    Rng rng(11);
    for (std::uint64_t done = 0; done < pages;) {
        const std::uint64_t n = std::min<std::uint64_t>(
            pages - done, static_cast<std::uint64_t>(rng.uniformInt(1, 64)));
        ASSERT_EQ(dev.serviceWrite(lp + done, n * page),
                  ref.serviceWrite(lp + done, n * page));
        expectSame(dev, ref, static_cast<int>(done));
        ASSERT_FALSE(HasFatalFailure());
        done += n;
    }
    const std::uint64_t gcAfterFill = dev.stats().gcRuns;
    for (int op = 0; op < 400; ++op) {
        const std::uint64_t off = static_cast<std::uint64_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(pages - 32)));
        const Bytes bytes = static_cast<Bytes>(rng.uniformInt(
            1, static_cast<std::int64_t>(32 * page)));
        ASSERT_EQ(dev.serviceWrite(lp + off, bytes),
                  ref.serviceWrite(lp + off, bytes))
            << "op " << op;
        expectSame(dev, ref, op);
        ASSERT_FALSE(HasFatalFailure());
    }
    EXPECT_GT(dev.stats().gcRuns, gcAfterFill + 400);
    EXPECT_GT(dev.stats().relocatedPages, 0u);
}

TEST(SsdDevice, DeviceAfterAnotherMatchesReference)
{
    // The first device dies with pages mapped in two chunks, so their
    // buffers go to the thread's spare list still holding block ids;
    // the second maps into them and must behave as a fresh device.
    const SystemConfig sys = smallSsdSys();
    SsdDevice::Geometry geom;
    geom.flashPageBytes = 4 * KiB;
    const Bytes page = geom.flashPageBytes;
    const std::uint64_t chunk = SsdDevice::kMapChunkPages;
    {
        SsdDevice first(sys, geom);
        const std::uint64_t lp = first.allocLogical(2 * chunk * page);
        first.serviceWrite(lp + 10, 20 * page);
        first.serviceWrite(lp + chunk + 5, 30 * page);
        ASSERT_EQ(first.validPages(), 50u);
    }
    SsdDevice dev(sys, geom);
    ReferenceFtl ref(sys, geom);
    const std::uint64_t lp = dev.allocLogical(2 * chunk * page);
    ASSERT_EQ(lp, ref.allocLogical(2 * chunk * page));
    int op = 0;
    for (std::uint64_t at : {std::uint64_t{0}, std::uint64_t{15},
                             std::uint64_t{5}, chunk - 4, chunk + 20}) {
        ASSERT_EQ(dev.serviceWrite(lp + at, 12 * page),
                  ref.serviceWrite(lp + at, 12 * page));
        expectSame(dev, ref, op++);
    }
    dev.freeLogical(lp, 2 * chunk * page);
    ref.freeLogical(lp, 2 * chunk * page);
    expectSame(dev, ref, op);
    EXPECT_EQ(dev.validPages(), 0u);
}

}  // namespace
}  // namespace g10
