#include "calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace {

/** xorshift64*: fixed pseudo-random data, independent of the seed. */
struct XorShift
{
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    std::uint64_t next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dULL;
    }
};

}  // namespace

const std::uint64_t kCalibrationChecksum = 9242088336568033693ULL;

std::uint64_t
calibrationKernel(CalibrationScratch* scratch)
{
    XorShift rng;
    std::uint64_t sum = 0;

    std::vector<std::uint64_t>& keys = scratch->keys;
    keys.resize(1u << 16);
    for (std::uint64_t& k : keys)
        k = rng.next();
    std::vector<std::uint64_t>& sorted = scratch->sorted;
    sorted.assign(keys.begin(), keys.end());
    std::sort(sorted.begin(), sorted.end());
    sum += sorted[sorted.size() / 2];

    std::unordered_map<std::uint64_t, std::uint32_t>& counts =
        scratch->counts;
    counts.clear();
    for (std::size_t i = 0; i < keys.size(); ++i)
        ++counts[keys[i] % 12289];
    for (std::size_t i = 0; i < keys.size(); i += 3) {
        auto it = counts.find(keys[i] % 24593);
        sum += it == counts.end() ? 1 : it->second;
    }

    std::map<std::uint64_t, double> tree;
    for (std::size_t i = 0; i < (1u << 14); ++i)
        tree.emplace(keys[i] >> 20, static_cast<double>(i));
    for (std::size_t i = 0; i < (1u << 14); ++i) {
        auto it = tree.lower_bound(keys[i + (1u << 14)] >> 20);
        if (it != tree.end())
            sum += static_cast<std::uint64_t>(it->second);
    }

    // The floating-point result is kept but left out of the checksum:
    // its last bits may differ where a compiler fuses multiply-adds.
    double acc = 0.0;
    for (std::size_t i = 0; i < (1u << 17); ++i) {
        const double x = static_cast<double>(keys[i % keys.size()] >> 11) *
                         0x1p-53;
        acc += std::sqrt(x) / (1.0 + x * acc * 1e-6);
    }
    volatile double sink = acc;
    (void)sink;
    return sum;
}

double
calibrationBlockNs()
{
    static CalibrationScratch scratch;
    const auto start = Clock::now();
    const std::uint64_t sum = calibrationKernel(&scratch);
    const double ns = static_cast<double>(nsBetween(start, Clock::now()));
    if (sum != kCalibrationChecksum) {
        std::fprintf(stderr, "[perfbench] calibration checksum %llu, "
                     "expected %llu\n", static_cast<unsigned long long>(sum),
                     static_cast<unsigned long long>(kCalibrationChecksum));
        std::exit(4);
    }
    return ns;
}

std::vector<double>
toReference(const std::vector<double>& host, const std::vector<double>& cal,
            std::size_t radius)
{
    std::vector<double> ref;
    for (std::size_t i = 0; i < host.size() && i < cal.size(); ++i) {
        // Block i - 1 ran just before item i and block i just after.
        const std::size_t lo = i >= radius + 1 ? i - radius - 1 : 0;
        const std::size_t hi = std::min(cal.size() - 1, i + radius);
        std::vector<double> window(cal.begin() + lo, cal.begin() + hi + 1);
        ref.push_back(host[i] * kReferenceNs / median(window));
    }
    return ref;
}

}  // namespace perfbench
