#include "checks.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

namespace {

std::string
format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
format(const char* fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

void
checkStats(const g10::ExecStats& st, const std::string& what,
           Violations* out)
{
    if (st.failed) {
        out->push_back(what + ": run failed: " + st.failReason);
        return;
    }
    if (st.measuredIterationNs < st.idealIterationNs)
        out->push_back(format(
            "%s: measured iteration %" PRId64
            " ns is faster than the ideal %" PRId64 " ns",
            what.c_str(), static_cast<std::int64_t>(st.measuredIterationNs),
            static_cast<std::int64_t>(st.idealIterationNs)));
}

/** offered == admitted + rejected and admitted == completed + failed. */
template <typename M>
void
checkConservation(const M& m, const std::string& what, Violations* out)
{
    if (m.offered != m.admitted + m.rejected)
        out->push_back(format("%s: offered %" PRIu64
                              " != admitted %" PRIu64
                              " + rejected %" PRIu64,
                              what.c_str(), m.offered, m.admitted,
                              m.rejected));
    if (m.admitted != m.completed + m.failed)
        out->push_back(format("%s: admitted %" PRIu64
                              " != completed %" PRIu64
                              " + failed %" PRIu64,
                              what.c_str(), m.admitted, m.completed,
                              m.failed));
}

std::string
cellName(const g10::ServeCellResult& cell)
{
    return format("cell %s @ %.4g", cell.design.c_str(), cell.rate);
}

}  // namespace

Violations
checkRunResult(const g10::RunResult& result)
{
    Violations out;
    checkStats(result.stats,
               result.stats.modelName + "/" + result.designName, &out);
    return out;
}

Violations
checkServeResult(const g10::ServeSweepResult& result)
{
    Violations out;
    if (result.cells.empty())
        out.push_back("serve sweep produced no cells");
    for (const g10::ServeCellResult& cell : result.cells)
        checkConservation(cell.metrics, cellName(cell), &out);
    return out;
}

Violations
checkFleetResult(const g10::FleetResult& result)
{
    Violations out;
    if (result.placements.empty())
        out.push_back("fleet run produced no placements");
    for (const g10::FleetPlacementResult& p : result.placements) {
        const std::string name = g10::placementKindName(p.kind);
        checkConservation(p.fleet, "placement " + name, &out);
        std::uint64_t routed = 0;
        std::uint64_t cells = 0;
        for (std::size_t n = 0; n < p.nodeCells.size(); ++n) {
            const g10::ServeCellResult& cell = p.nodeCells[n];
            checkConservation(cell.metrics,
                              name + " node " + std::to_string(n), &out);
            cells += cell.metrics.offered;
        }
        for (std::uint64_t offered : p.nodeOffered)
            routed += offered;
        if (routed != p.fleet.offered || cells != p.fleet.offered)
            out.push_back(format(
                "placement %s: nodes offered %" PRIu64 " (routed %" PRIu64
                ") != fleet offered %" PRIu64,
                name.c_str(), cells, routed, p.fleet.offered));
    }
    return out;
}

std::uint64_t
fnv1a64(const std::string& bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

Violations
DigestBook::check(const std::string& input, const std::string& document)
{
    const std::uint64_t digest = fnv1a64(document);
    auto [it, inserted] = first_.emplace(input, digest);
    if (inserted || it->second == digest)
        return {};
    return {format("%s: document digest %s differs from the run's first "
                   "%s",
                   input.c_str(), hex64(digest).c_str(),
                   hex64(it->second).c_str())};
}

}  // namespace perfbench
