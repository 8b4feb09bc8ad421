/**
 * @file
 * Host-speed calibration. The benchmark runs on shared hosts whose
 * speed drifts by tens of percent over minutes, which buries the
 * changes the benchmark exists to detect. A fixed reference
 * computation -- the benchmark's own code, so a change to the library
 * never changes it -- runs between ops, and every op time is scaled by
 * how fast the reference ran around it:
 *
 *   ref time = host time * kReferenceNs / (calibration ns near the op)
 *
 * A reference time reads as host time on a host that runs one
 * calibration block in exactly kReferenceNs; a host running everything
 * uniformly faster or slower reports the same reference times.
 */

#ifndef PERFBENCH_CALIBRATION_H
#define PERFBENCH_CALIBRATION_H

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

/** Nominal time of one calibration block: the reference host speed. */
inline constexpr double kReferenceNs = 11.5e6;

/**
 * Buffers the reference computation reuses from call to call, so that
 * its time does not depend on whether the heap hands it fresh pages.
 */
struct CalibrationScratch
{
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> sorted;
    std::unordered_map<std::uint64_t, std::uint32_t> counts;
};

/**
 * The reference computation: sorting, hashing, an ordered map and a
 * floating-point loop over fixed pseudo-random data, the kinds of work
 * the simulator's replay and compile loops do. Returns a checksum of
 * its integer results, the same on every call and every host
 * (kCalibrationChecksum).
 */
std::uint64_t calibrationKernel(CalibrationScratch* scratch);

/** calibrationKernel()'s result; a different value is a bug. */
extern const std::uint64_t kCalibrationChecksum;

/**
 * One calibration block: calibrationKernel() once on the calling
 * thread; its host wall-clock in ns. A wrong checksum is a bug in the
 * benchmark: the process exits 4.
 */
double calibrationBlockNs();

/**
 * @p host times scaled to reference times. @p cal holds the
 * calibration block run right after each timed item (one per item).
 * Item i is scaled by kReferenceNs over the median of the blocks just
 * before and after it, widened by @p radius blocks on each side, so
 * that one interrupted block does not skew an item.
 */
std::vector<double> toReference(const std::vector<double>& host,
                                const std::vector<double>& cal,
                                std::size_t radius = 2);

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H
