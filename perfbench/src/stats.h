/**
 * @file
 * Order statistics the benchmark reports: medians, quartiles, and the
 * tail percentile rule (the highest whole percentile that still has at
 * least ten samples beyond it, so a tail figure never rests on one or
 * two outliers).
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle values for even counts); 0 when
 *  @p v is empty. */
double median(std::vector<double> v);

/** First and third quartile, computed like Python's
 *  `statistics.quantiles(v, n=4)` (the "exclusive" method). Fewer
 *  than two samples give {v[0], v[0]} (or {0, 0} when empty). */
struct Quartiles
{
    double q1 = 0.0;
    double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/** Nearest-rank percentile: the smallest sample with at least
 *  @p pct percent of the samples at or below it. */
double nearestRank(std::vector<double> v, int pct);

/** Minimum number of samples a tail percentile must leave beyond it. */
inline constexpr std::size_t kTailBeyond = 10;

/**
 * The highest whole percentile p whose nearest-rank sample leaves at
 * least kTailBeyond samples above it, for @p n samples; 0 when n is
 * too small for any percentile to qualify (n <= kTailBeyond).
 */
int tailPercentile(std::size_t n);

/** Samples strictly beyond the nearest-rank sample of @p pct. */
std::size_t samplesBeyond(std::size_t n, int pct);

/**
 * The samples of the first @p rounds rounds of @p roundOps ops each
 * (all of @p v when it holds fewer). Percentiles are taken over this
 * fixed count rather than over however many rounds a host fits into
 * the measured time: op costs cluster by input, and a count that moved
 * with host speed would move the tail rank from one cluster to another.
 */
std::vector<double> firstRounds(const std::vector<double>& v,
                                std::size_t roundOps, std::size_t rounds);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
