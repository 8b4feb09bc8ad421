/**
 * @file
 * g10sim -- config-driven single-experiment runner, the equivalent of
 * the paper artifact's `gpg <config>` workflow.
 *
 * Usage:
 *   g10sim [--format table|json|csv] <config-file>
 *   g10sim --mix <mix-file> [--format table|json|csv]
 *   g10sim --list-designs [--format table|json|csv]
 *   g10sim --dump-trace <model> <batch> <scale> <out.trace>
 *   g10sim --help
 *
 * Observability (see README "Observability"):
 *   --trace <out.json>   Chrome trace-event timeline of the run
 *   --metrics            print a g10.metrics.v1 counter document
 *   --attribution        per-kernel stall attribution table
 *   --log-level <l>      silent|warn|info|debug
 *
 * Config files are `key = value` lines ('#' comments). Unknown keys
 * and malformed values are rejected with a diagnostic and non-zero
 * exit. Keys:
 *   model        BERT|ViT|Inceptionv3|ResNet152|SENet154
 *   trace        path to a saved .trace file (overrides model/batch)
 *   batch        paper-scale batch size       (default: model's Fig.11)
 *   scale        1/N platform scale           (default 16)
 *   design       any registered design name (see --list-designs)
 *   iterations   replay count, last measured  (default 2)
 *   timing_error fraction, e.g. 0.2 = +-20%   (default 0)
 *   seed         RNG seed                     (default 42)
 *   weight_watermark  fraction of GPU memory weights may fill (0.85)
 *   uvm_extension     0|1 force the unified page table off/on
 *                     (default: the design's own setting)
 *   gpu_mem_gb / host_mem_gb / ssd_gbps / pcie_gbps   platform knobs
 *   listing      N  -> print the first N kernels of the instrumented
 *                      program (G10 designs only)
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/g10.h"
#include "common/spec_reader.h"
#include "graph/trace_io.h"
#include "obs/analysis/diff_attribution.h"
#include "obs/attribution.h"
#include "tools/cli_util.h"

namespace {

using namespace g10;

int
usage(std::ostream& os, int code)
{
    os << "usage: g10sim [--format table|json|csv] <config-file>\n"
          "       g10sim --mix <mix-file> [--format ...]\n"
          "       g10sim --list-designs [--format ...]\n"
          "       g10sim --dump-trace <model> <batch> <scale> <out>\n"
          "       g10sim --help\n"
          "\n"
          "Observability (config runs and --mix):\n"
          "  --trace <out.json>  write a Chrome trace-event timeline\n"
          "                      (load at chrome://tracing / Perfetto)\n"
          "  --metrics           print a g10.metrics.v1 JSON document\n"
          "  --attribution       per-kernel stall attribution table\n"
          "                      (config runs only)\n"
          "  --attribution-diff <design>\n"
          "                      also run <design> as a baseline on\n"
          "                      the same trace and print per-kernel\n"
          "                      per-cause savings (config runs only;\n"
          "                      see also g10trace diff)\n"
          "  --log-level <l>     silent|warn|info|debug (default warn)\n"
          "\n"
          "Config file: '#' comments; 'key = value' lines. Keys:\n"
          "  model        BERT|ViT|Inceptionv3|ResNet152|SENet154\n"
          "  trace        path to a saved .trace file\n"
          "  batch        paper-scale batch size\n"
          "  scale        1/N platform scale (default 16)\n"
          "  design       registered design name (default g10);\n"
          "               run 'g10sim --list-designs' for the list\n"
          "  iterations   replay count, last measured (default 2)\n"
          "  timing_error kernel-time noise fraction (default 0)\n"
          "  seed         RNG seed (default 42)\n"
          "  weight_watermark  weight-placement cap (default 0.85)\n"
          "  uvm_extension     0|1 override the design's default\n"
          "  gpu_mem_gb / host_mem_gb / ssd_gbps / pcie_gbps\n"
          "  listing      N -> print first N instrumented kernels\n"
          "\n"
          "Unknown keys and malformed values are errors.\n"
          "For multi-tenant mix files, see g10multi --help.\n";
    return code;
}

/** A config file as read; the model, batch and platform resolve once
 *  every key is known (a trace overrides model and batch). */
struct ConfigFile
{
    ExperimentConfig cfg;
    unsigned scale = 16;
    std::string tracePath;
    std::optional<SpecEntry> model;  ///< unset: ResNet152
    std::optional<SpecEntry> batch;  ///< unset: the model's paper batch
    SystemConfig platform;           ///< unscaled, with the file's keys
    int listing = 0;
};

const SpecKey<ConfigFile> kConfigKeys[] = {
    {"model", [](const SpecEntry& e, ConfigFile* c) { c->model = e; }},
    {"trace",
     [](const SpecEntry& e, ConfigFile* c) { c->tracePath = e.value; }},
    {"batch", [](const SpecEntry& e, ConfigFile* c) { c->batch = e; }},
    {"scale",
     [](const SpecEntry& e, ConfigFile* c) {
         c->scale = static_cast<unsigned>(e.integer(1, 1 << 20));
     }},
    {"design",
     [](const SpecEntry& e, ConfigFile* c) { c->cfg.design = e.value; }},
    {"iterations",
     [](const SpecEntry& e, ConfigFile* c) {
         c->cfg.iterations = static_cast<int>(e.integer(1, 1000));
     }},
    {"timing_error",
     [](const SpecEntry& e, ConfigFile* c) {
         c->cfg.timingErrorPct = e.number(0.0, 1.0);
     }},
    {"seed",
     [](const SpecEntry& e, ConfigFile* c) {
         c->cfg.seed = static_cast<std::uint64_t>(e.integer(0, INT64_MAX));
     }},
    {"weight_watermark",
     [](const SpecEntry& e, ConfigFile* c) {
         c->cfg.weightWatermark = e.number(0.01, 1.0);
     }},
    {"uvm_extension",
     [](const SpecEntry& e, ConfigFile* c) {
         c->cfg.uvmExtension = static_cast<int>(e.integer(0, 1));
     }},
    {"listing",
     [](const SpecEntry& e, ConfigFile* c) {
         c->listing = static_cast<int>(e.integer(0, 1 << 20));
     }},
};

/** Read a config file; fatal with path:line on any malformed entry. */
ConfigFile
readConfig(const std::string& path)
{
    std::vector<std::string> keys;
    appendKeyNames(kConfigKeys, &keys);
    for (const std::string& k : platformKeyNames())
        keys.push_back(k);
    SpecReader in(path, "config", keys);
    ConfigFile file;
    while (in.next())
        if (!applySpecKey(kConfigKeys, in.entry(), &file))
            applyPlatformKey(in.entry(), &file.platform);

    // Platform capacities are given at the scale the file runs at:
    // they replace the scaled-down defaults rather than being scaled.
    SystemConfig sys = file.platform.scaledDown(file.scale);
    if (in.seen("gpu_mem_gb"))
        sys.gpuMemBytes = file.platform.gpuMemBytes;
    if (in.seen("host_mem_gb"))
        sys.hostMemBytes = file.platform.hostMemBytes;
    file.cfg.sys = sys;
    return file;
}

int
dumpTrace(const std::vector<std::string>& args)
{
    if (args.size() != 4)
        fatal("usage: g10sim --dump-trace <model> <batch> <scale> "
              "<out.trace>");
    ModelKind m = modelKindFromName(args[0]);
    auto batch = tools::cliEntry("--dump-trace batch", args[1])
                     .integer(1, 1 << 24);
    auto scale = tools::cliEntry("--dump-trace scale", args[2])
                     .integer(1, 1 << 20);
    KernelTrace trace = buildModelScaled(m, static_cast<int>(batch),
                                         static_cast<unsigned>(scale));
    saveTraceFile(args[3], trace);
    std::cout << "wrote " << trace.numKernels() << " kernels / "
              << trace.numTensors() << " tensors to " << args[3]
              << "\n";
    return 0;
}

int
runMix(const std::string& path, const tools::CliArgs& args)
{
    const ReportFormat format = args.format;
    WorkloadMix mix = parseMixFile(path);
    if (format == ReportFormat::Table)
        std::cout << "# g10sim --mix: " << mix.jobs.size()
                  << " jobs on one GPU+SSD, scale 1/" << mix.scaleDown
                  << ", sched " << mixSchedName(mix.sched) << "\n\n";
    MultiTenantSim sim(mix);

    tools::CliObservers obs;
    obs.wantEvents = !args.tracePath.empty();
    obs.wantCounters = args.metrics;
    sim.setTracer(obs.tracerOrNull());

    MixResult res = sim.run();
    int code = printMixResult(std::cout, res, format);
    if (!args.tracePath.empty()) {
        std::map<int, std::string> names;
        for (std::size_t i = 0; i < res.jobs.size(); ++i)
            names[static_cast<int>(i)] = res.jobs[i].name;
        tools::writeTraceFile(args.tracePath, obs.sink, names);
    }
    if (args.metrics)
        writeMetricsJson(std::cout, obs.counters);
    return code;
}

int
runConfig(const std::string& path, const tools::CliArgs& args)
{
    const ReportFormat format = args.format;
    ConfigFile file = readConfig(path);
    ExperimentConfig& cfg = file.cfg;

    KernelTrace trace;
    if (!file.tracePath.empty()) {
        trace = loadTraceFile(file.tracePath);
        cfg.batchSize = trace.batchSize();
        // Keep the config echo honest: map the trace's model back to
        // the zoo when possible (synthetic traces stay unmapped).
        if (!tryModelKindFromName(trace.modelName(), &cfg.model))
            warn("trace model '%s' is not a zoo model; the config echo "
                 "reports %s",
                 trace.modelName().c_str(), modelName(cfg.model));
    } else {
        cfg.model = file.model ? modelKindAt(*file.model, file.model->value)
                               : ModelKind::ResNet152;
        cfg.batchSize =
            file.batch ? static_cast<int>(file.batch->integer(1, 1 << 24))
                       : paperBatchSize(cfg.model);
        trace = buildModelScaled(cfg.model, cfg.batchSize, file.scale);
    }
    cfg.scaleDown = 1;
    // Resolve now: unknown names fail with the registered list.
    const PolicyInfo& design =
        PolicyRegistry::instance().resolve(cfg.design);

    bool g10Design =
        design.builtinTag == static_cast<int>(DesignPoint::G10) ||
        design.builtinTag == static_cast<int>(DesignPoint::G10Host) ||
        design.builtinTag == static_cast<int>(DesignPoint::G10Gds);
    if (file.listing > 0 && g10Design) {
        CompiledPlan plan = compileG10Plan(trace, cfg.sys);
        printInstrumentedProgram(std::cout, *plan.vitality, plan.plan,
                                 0, file.listing);
        std::cout << "\n";
    }

    // Observability: --attribution and --attribution-diff need the
    // event stream even when no --trace path was given, so they force
    // event collection.
    const std::string diffBase = args.valueOf("--attribution-diff");
    tools::CliObservers obs;
    obs.wantEvents = !args.tracePath.empty() ||
                     args.has("--attribution") || !diffBase.empty();
    obs.wantCounters = args.metrics;

    RunResult result =
        runExperimentResultOnTrace(trace, cfg, obs.tracerOrNull());
    int code = printRunResult(std::cout, result, format);
    if (args.has("--attribution")) {
        StallAttribution attr =
            buildStallAttribution(obs.sink.events(), trace);
        std::cout << "\n";
        printStallAttribution(std::cout, attr);
    }
    if (!diffBase.empty()) {
        // Baseline leg: same trace, same platform, only the design
        // swapped — so every delta is attributable to the design.
        ExperimentConfig baseCfg = cfg;
        baseCfg.design =
            PolicyRegistry::instance().resolve(diffBase).name;
        tools::CliObservers baseObs;
        baseObs.wantEvents = true;
        runExperimentResultOnTrace(trace, baseCfg,
                                   baseObs.tracerOrNull());
        DiffAttribution diff = diffStallAttribution(
            buildStallAttribution(baseObs.sink.events(), trace),
            buildStallAttribution(obs.sink.events(), trace),
            baseCfg.design, cfg.design);
        if (format == ReportFormat::Json) {
            writeDiffAttributionJson(std::cout, diff);
        } else {
            std::cout << "\n";
            printDiffAttribution(std::cout, diff);
        }
    }
    if (!args.tracePath.empty()) {
        std::map<int, std::string> names;
        names[0] = trace.modelName() + "-" +
                   std::to_string(trace.batchSize());
        tools::writeTraceFile(args.tracePath, obs.sink, names);
    }
    if (args.metrics)
        writeMetricsJson(std::cout, obs.counters);
    return code;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace g10;

    tools::CliArgs args = tools::parseCliArgs(
        argc, argv, {"--mix", "--dump-trace", "--attribution"},
        {"--attribution-diff"});
    if (args.help)
        return usage(std::cout, 0);
    if (!args.error.empty()) {
        std::cerr << args.error << "\n";
        return usage(std::cerr, 1);
    }

    if (args.listDesigns) {
        if (!args.flags.empty() || !args.positional.empty())
            return usage(std::cerr, 1);
        printDesignList(std::cout, args.format);
        return 0;
    }
    if (args.has("--dump-trace"))
        return dumpTrace(args.positional);
    if (args.has("--mix")) {
        if (args.positional.size() != 1 ||
            args.has("--attribution") ||
            !args.valueOf("--attribution-diff").empty())
            return usage(std::cerr, 1);
        return runMix(args.positional[0], args);
    }
    if (args.positional.size() != 1)
        return usage(std::cerr, 1);
    return runConfig(args.positional[0], args);
}
