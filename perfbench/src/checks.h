/**
 * @file
 * Output checks the benchmark applies to every op. Each returns the
 * list of violated invariants (empty = the output is consistent); an
 * op with any violation counts as failed and makes the run exit
 * non-zero.
 *
 *  - runs:   the measured iteration is no faster than the ideal one;
 *  - serve:  offered == admitted + rejected and
 *            admitted == completed + failed, per cell;
 *  - fleet:  the same per placement and per node, and the nodes'
 *            offered requests sum to the fleet's;
 *  - every op: its serialized result document has the same digest as
 *            the first op on the same input in the run (DigestBook).
 */

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "fleet/fleet_sim.h"
#include "serve/serve_sim.h"

namespace perfbench {

using Violations = std::vector<std::string>;

Violations checkRunResult(const g10::RunResult& result);
Violations checkServeResult(const g10::ServeSweepResult& result);
Violations checkFleetResult(const g10::FleetResult& result);

/** 64-bit FNV-1a of @p bytes. */
std::uint64_t fnv1a64(const std::string& bytes);

/** Fixed-width lower-case hex of @p v. */
std::string hex64(std::uint64_t v);

/**
 * The first document digest seen per input, against which every later
 * op on the same input is checked.
 */
class DigestBook
{
  public:
    /** Record or compare the digest of @p document for @p input;
     *  returns the violations (empty when it matches or is new). */
    Violations check(const std::string& input,
                     const std::string& document);

    /** First digest per input, ordered by input. */
    const std::map<std::string, std::uint64_t>& digests() const
    {
        return first_;
    }

  private:
    std::map<std::string, std::uint64_t> first_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H
