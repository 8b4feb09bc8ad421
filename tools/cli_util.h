/**
 * @file
 * Shared argv handling for the g10 CLIs: the common flags
 * (--help, --format <f>, --list-designs, and the observability
 * surface --trace/--metrics/--log-level), tool-specific boolean and
 * value flags, and positional collection — so the tools cannot drift
 * apart. Flag values go through the spec files' strict parsers.
 */

#ifndef G10_TOOLS_CLI_UTIL_H
#define G10_TOOLS_CLI_UTIL_H

#include <climits>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/report.h"
#include "common/logging.h"
#include "common/spec_reader.h"
#include "obs/chrome_trace.h"
#include "obs/tracer.h"

namespace g10::tools {

/** A command-line value as a SpecEntry, so it shares the spec files'
 *  strict parsers; diagnostics name @p flag. */
inline SpecEntry
cliEntry(const std::string& flag, const std::string& value)
{
    SpecEntry e;
    e.key = flag;
    e.value = value;
    return e;
}

/** Parsed command line. */
struct CliArgs
{
    ReportFormat format = ReportFormat::Table;
    bool help = false;
    bool listDesigns = false;

    /** `--trace <path>`: Chrome trace-event output; empty = off. */
    std::string tracePath;

    /** `--metrics`: print a g10.metrics.v1 document after the report. */
    bool metrics = false;

    /** `--workers N` (tools that run an engine pool): pool size in
     *  [1, kMaxWorkers]; 0 = one per hardware thread. */
    unsigned workers = 0;

    /** Tool-specific boolean flags seen (e.g. "--mix", "--demo"). */
    std::set<std::string> flags;

    /** Tool-specific value flags seen (e.g. "--attribution-diff"). */
    std::map<std::string, std::string> values;

    std::vector<std::string> positional;

    /** Non-empty when an unknown option was seen (caller prints usage). */
    std::string error;

    /** Whether the boolean or value flag @p flag was given. */
    bool
    has(const std::string& flag) const
    {
        return flags.count(flag) || values.count(flag);
    }

    /** Value of a value flag; @p def when the flag was not given. */
    std::string
    valueOf(const std::string& flag, const std::string& def = "") const
    {
        auto it = values.find(flag);
        return it != values.end() ? it->second : def;
    }

    /** The value flag @p flag, for the strict parsers. */
    SpecEntry entry(const std::string& flag) const
    {
        return cliEntry(flag, valueOf(flag));
    }

    /** `--demo [scale]`: the optional positional scale, @p def when
     *  absent. */
    unsigned
    demoScale(unsigned def) const
    {
        if (positional.empty())
            return def;
        return static_cast<unsigned>(
            cliEntry("--demo scale", positional[0]).integer(1, UINT_MAX));
    }
};

/** Largest `--workers` value: more threads than any host has cores,
 *  and few enough to start. */
constexpr unsigned kMaxWorkers = 1024;

/**
 * Parse argv. Flags may appear in any position; `--format`, `--trace`,
 * and `--log-level` consume the next argument (fatal when missing or
 * invalid; `--log-level` takes effect immediately), as do `--workers`
 * when @p workersFlag is set and every flag in @p valueFlags. Options
 * outside the common set, @p boolFlags, and @p valueFlags set `error`
 * instead of aborting so the tool can print its own usage text.
 */
inline CliArgs
parseCliArgs(int argc, char** argv,
             const std::set<std::string>& boolFlags = {},
             const std::set<std::string>& valueFlags = {},
             bool workersFlag = false)
{
    CliArgs out;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            out.help = true;
        } else if (arg == "--format") {
            if (i + 1 >= argc)
                fatal("--format needs a value (table|json|csv)");
            out.format = reportFormatFromName(argv[++i]);
        } else if (arg == "--list-designs") {
            out.listDesigns = true;
        } else if (arg == "--trace") {
            if (i + 1 >= argc)
                fatal("--trace needs an output path");
            out.tracePath = argv[++i];
        } else if (arg == "--metrics") {
            out.metrics = true;
        } else if (arg == "--workers" && workersFlag) {
            if (i + 1 >= argc)
                fatal("--workers needs a value");
            out.workers = static_cast<unsigned>(
                cliEntry(arg, argv[++i]).integer(1, kMaxWorkers));
        } else if (arg == "--log-level") {
            if (i + 1 >= argc)
                fatal("--log-level needs a value "
                      "(silent|warn|info|debug)");
            LogLevel lvl = LogLevel::Warn;
            if (!logLevelFromName(argv[++i], &lvl))
                fatal("unknown --log-level '%s' "
                      "(silent|warn|info|debug)",
                      argv[i]);
            setLogLevel(lvl);
        } else if (boolFlags.count(arg)) {
            out.flags.insert(arg);
        } else if (valueFlags.count(arg)) {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            out.values[arg] = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            out.error = "unknown option '" + arg + "'";
            return out;
        } else {
            out.positional.push_back(arg);
        }
    }
    return out;
}

/** The observability boilerplate shared by the CLIs: a buffering sink
 *  + registry, handed to producers as one Tracer when any of
 *  --trace/--metrics (or g10sim's --attribution) is active. */
struct CliObservers
{
    MemoryTraceSink sink;
    CounterRegistry counters;
    Tracer tracer{&sink, &counters};

    bool wantEvents = false;    ///< collect the event stream
    bool wantCounters = false;  ///< print metrics afterwards

    /** nullptr when observability is off — producers stay on the
     *  zero-overhead path. */
    Tracer* tracerOrNull()
    {
        return wantEvents || wantCounters ? &tracer : nullptr;
    }
};

/** Write the collected events as Chrome trace-event JSON to @p path
 *  (fatal when the file cannot be opened). */
inline void
writeTraceFile(const std::string& path, const MemoryTraceSink& sink,
               const std::map<int, std::string>& processNames = {})
{
    std::ofstream f(path);
    if (!f)
        fatal("cannot open trace output '%s'", path.c_str());
    writeChromeTrace(f, sink.events(), processNames);
    if (!f)
        fatal("error writing trace output '%s'", path.c_str());
    inform("wrote %zu trace events to %s", sink.events().size(),
           path.c_str());
}

}  // namespace g10::tools

#endif  // G10_TOOLS_CLI_UTIL_H
