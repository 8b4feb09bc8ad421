/**
 * @file
 * g10trace -- offline analysis of saved Chrome trace-event files (the
 * --trace output of g10sim/g10multi/g10serve/g10fleet).
 *
 * Usage:
 *   g10trace critical <trace.json>  [--pid N] [--top N] [--format ...]
 *   g10trace diff <base.json> <test.json> [--pid N] [--top N]
 *   g10trace flame <trace.json>     [--pid N]        (collapsed stacks)
 *   g10trace forensics <trace.json> [--stride N] [--top N]
 *   g10trace --help
 *
 * Every analyzer is a pure function over the re-ingested event stream
 * (obs/analysis/trace_reader.h), so the same code paths run on a live
 * MemoryTraceSink inside the other CLIs and on any saved trace here.
 * `--format json` emits one `g10.trace_analysis.v1` document.
 */

#include <iostream>
#include <string>
#include <vector>

#include "obs/analysis/critical_path.h"
#include "obs/analysis/diff_attribution.h"
#include "obs/analysis/flame.h"
#include "obs/analysis/forensics.h"
#include "obs/analysis/trace_reader.h"
#include "obs/attribution.h"
#include "tools/cli_util.h"

namespace {

using namespace g10;

int
usage(std::ostream& os, int code)
{
    os << "usage: g10trace critical <trace.json> [--pid N] [--top N]\n"
          "                [--format table|json]\n"
          "       g10trace diff <base.json> <test.json> [--pid N]\n"
          "                [--top N] [--format table|json]\n"
          "       g10trace flame <trace.json> [--pid N]\n"
          "                [--format table|json]\n"
          "       g10trace forensics <trace.json> [--stride N]\n"
          "                [--top N] [--format table|json]\n"
          "       g10trace --help\n"
          "\n"
          "Analyses over saved --trace files:\n"
          "  critical   per-iteration critical path: compute vs. stall\n"
          "             by cause, and the longest chain of\n"
          "             consecutively stalled kernels\n"
          "  diff       align two runs kernel-by-kernel and decompose\n"
          "             the end-to-end delta into per-cause savings\n"
          "             (the reconciliation line is exact by\n"
          "             construction)\n"
          "  flame      stall time rolled up the kernel-name\n"
          "             hierarchy, in collapsed-stack format\n"
          "  forensics  per-node queue/occupancy series and an\n"
          "             SLO-breach table (fleet pid convention;\n"
          "             --stride defaults to the fleet stride)\n"
          "\n"
          "  --pid N     analyze job/request N (default 0)\n"
          "  --top N     rows in ranked tables (default 20)\n"
          "  --stride N  fleet pid stride (default 100000)\n";
    return code;
}

/** Parse one optional integer value flag with a range check. */
long long
intValueOf(const tools::CliArgs& args, const std::string& flag,
           long long def, long long lo)
{
    return args.has(flag) ? args.entry(flag).integer(lo) : def;
}

TraceDocument
readTraceOrDie(const std::string& path)
{
    TraceDocument doc;
    std::string err;
    if (!readChromeTraceFile(path, &doc, &err))
        fatal("cannot read trace: %s", err.c_str());
    return doc;
}

int
runCritical(const std::string& path, const tools::CliArgs& args)
{
    const TraceDocument doc = readTraceOrDie(path);
    const CriticalPathReport report = extractCriticalPath(
        doc.events, static_cast<int>(intValueOf(args, "--pid", 0, 0)));
    if (args.format == ReportFormat::Json)
        writeCriticalPathJson(std::cout, report);
    else
        printCriticalPath(
            std::cout, report,
            static_cast<std::size_t>(intValueOf(args, "--top", 20, 1)));
    return report.iterations.empty() ? 2 : 0;
}

int
runDiff(const std::string& base_path, const std::string& test_path,
        const tools::CliArgs& args)
{
    const int pid = static_cast<int>(intValueOf(args, "--pid", 0, 0));
    const TraceDocument base = readTraceOrDie(base_path);
    const TraceDocument test = readTraceOrDie(test_path);
    const DiffAttribution diff = diffStallAttribution(
        buildStallAttributionFromEvents(base.events, pid),
        buildStallAttributionFromEvents(test.events, pid), base_path,
        test_path);
    if (args.format == ReportFormat::Json)
        writeDiffAttributionJson(std::cout, diff);
    else
        printDiffAttribution(
            std::cout, diff,
            static_cast<std::size_t>(intValueOf(args, "--top", 20, 1)));
    return diff.exact() ? 0 : 2;
}

int
runFlame(const std::string& path, const tools::CliArgs& args)
{
    const TraceDocument doc = readTraceOrDie(path);
    const FlameAggregation flame = aggregateFlame(
        doc.events, static_cast<int>(intValueOf(args, "--pid", 0, 0)));
    if (args.format == ReportFormat::Json)
        writeFlameJson(std::cout, flame);
    else
        writeCollapsedStacks(std::cout, flame);
    return 0;
}

int
runForensics(const std::string& path, const tools::CliArgs& args)
{
    const TraceDocument doc = readTraceOrDie(path);
    const FleetForensics forensics = analyzeFleetForensics(
        doc.events,
        static_cast<int>(intValueOf(args, "--stride", 100000, 1)));
    if (args.format == ReportFormat::Json)
        writeFleetForensicsJson(std::cout, forensics);
    else
        printFleetForensics(
            std::cout, forensics,
            static_cast<std::size_t>(intValueOf(args, "--top", 20, 1)));
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace g10;

    tools::CliArgs args = tools::parseCliArgs(
        argc, argv, {}, {"--pid", "--top", "--stride"});
    if (args.help)
        return usage(std::cout, 0);
    if (!args.error.empty()) {
        std::cerr << args.error << "\n";
        return usage(std::cerr, 1);
    }
    if (args.positional.empty())
        return usage(std::cerr, 1);

    const std::string& cmd = args.positional[0];
    if (cmd == "critical" && args.positional.size() == 2)
        return runCritical(args.positional[1], args);
    if (cmd == "diff" && args.positional.size() == 3)
        return runDiff(args.positional[1], args.positional[2], args);
    if (cmd == "flame" && args.positional.size() == 2)
        return runFlame(args.positional[1], args);
    if (cmd == "forensics" && args.positional.size() == 2)
        return runForensics(args.positional[1], args);
    std::cerr << "unknown or malformed command\n";
    return usage(std::cerr, 1);
}
