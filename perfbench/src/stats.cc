#include "stats.h"

#include <algorithm>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles
quartiles(std::vector<double> v)
{
    if (v.empty())
        return {};
    if (v.size() == 1)
        return {v[0], v[0]};
    std::sort(v.begin(), v.end());
    // statistics.quantiles(method="exclusive") step for step: the i-th
    // cut sits at 1-based position i * (n + 1) / 4, with the bracketing
    // pair clamped to [1, n - 1] (small samples extrapolate, as there).
    const long long ld = static_cast<long long>(v.size());
    const long long m = ld + 1;
    auto cut = [&](long long i) {
        long long j = std::clamp(i * m / 4, 1LL, ld - 1);
        long long delta = i * m - j * 4;
        return (v[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] *
                    static_cast<double>(delta)) /
               4.0;
    };
    return {cut(1), cut(3)};
}

namespace {

/** 1-based nearest rank of percentile @p pct among @p n samples. */
std::size_t
rankOf(std::size_t n, int pct)
{
    // ceil(pct * n / 100) in integer arithmetic.
    std::size_t r = (static_cast<std::size_t>(pct) * n + 99) / 100;
    return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double
nearestRank(std::vector<double> v, int pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[rankOf(v.size(), pct) - 1];
}

std::size_t
samplesBeyond(std::size_t n, int pct)
{
    return n == 0 ? 0 : n - rankOf(n, pct);
}

int
tailPercentile(std::size_t n)
{
    for (int p = 99; p >= 1; --p)
        if (samplesBeyond(n, p) >= kTailBeyond)
            return p;
    return 0;
}

std::vector<double>
firstRounds(const std::vector<double>& v, std::size_t roundOps,
            std::size_t rounds)
{
    const std::size_t n = std::min(v.size(), roundOps * rounds);
    return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n)};
}

}  // namespace perfbench
