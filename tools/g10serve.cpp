/**
 * @file
 * g10serve -- open-loop serving simulator: a G10-managed GPU+SSD node
 * absorbing sustained request traffic with dynamic job churn.
 *
 * Usage:
 *   g10serve <serve-file> [--format table|json|csv] [--workers N]
 *   g10serve --demo [scale]    built-in 3-design x 3-rate scenario
 *   g10serve --list-designs [--format table|json|csv]
 *   g10serve --help
 *
 * Sweeps every design over every offered arrival rate and reports
 * SLO-centric metrics per cell: queueing delay and completion-latency
 * percentiles (p50/p95/p99), SLO attainment, sustained-throughput
 * capacity, and consolidated SSD write amplification under churn.
 * Results are deterministic for a given seed regardless of --workers.
 * `--format json` emits one `g10.serve_result.v1` document.
 *
 * Observability: --trace <out.json> (Chrome trace-event timeline of
 * the sweep's first cell), --metrics (g10.metrics.v1 counters merged
 * across every cell, worker-count independent), and
 * --log-level silent|warn|info|debug.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/g10.h"
#include "tools/cli_util.h"

namespace {

using namespace g10;

int
usage(std::ostream& os, int code)
{
    os << "usage: g10serve <serve-file> [--format table|json|csv] "
          "[--workers N]\n"
          "                [--partition static|proportional|ondemand]\n"
          "                [--sweep-cache on|off] [--speculate on|off]\n"
          "       g10serve --demo [scale] [--partition ...]\n"
          "       g10serve --list-designs [--format ...]\n"
          "       g10serve --help\n"
          "\n"
          "--partition overrides the scenario's partition_policy\n"
          "(elastic capacity: proportional equal-share of the active\n"
          "jobs, or ondemand split/merge with hysteresis).\n"
          "\n"
          "--sweep-cache on|off overrides the scenario's sweep_cache:\n"
          "the cross-probe plan-compile cache (on by default). Pure\n"
          "wall-clock; results are bit-identical either way.\n"
          "\n"
          "--speculate on|off overrides the scenario's speculate:\n"
          "speculative parallel knee probes on idle pool workers\n"
          "(rates = auto; on by default). Pure wall-clock; the\n"
          "decided search path is byte-identical either way.\n"
          "\n"
          "Observability:\n"
          "  --trace <out.json>  Chrome trace-event timeline of the\n"
          "                      sweep's first (design, rate) cell\n"
          "  --metrics           print a g10.metrics.v1 document with\n"
          "                      counters merged across every cell\n"
          "  --log-level <l>     silent|warn|info|debug (default warn)\n"
          "\n"
          "Serve file: '#' comments; 'key = value' lines.\n"
          "  scenario : scale, seed, slots, queue,\n"
          "             partition_policy (static|proportional|\n"
          "             ondemand), resize_hysteresis, max_active,\n"
          "             admission (fifo|sjf|priority), starvation_ms,\n"
          "             slo_factor, requests,\n"
          "             arrival (poisson|bursty|trace),\n"
          "             burst_on_ms, burst_off_ms, trace (.arr file),\n"
          "             gpu_mem_gb, host_mem_gb, ssd_gbps, pcie_gbps\n"
          "  sweep    : rates = 5,10,20 (req/s; trace: multipliers)\n"
          "             rates = auto (bisect for the capacity knee;\n"
          "             rate_lo, rate_hi, rate_probes tune the search)\n"
          "             designs = baseuvm,deepum,g10\n"
          "  classes  : class = <Model> [batch=N] [iterations=N]\n"
          "             [priority=N] [weight=X] [name=STR]\n"
          "  models   : BERT ViT Inceptionv3 ResNet152 SENet154\n"
          "\n"
          "Arrival trace (.arr): one request per line,\n"
          "  req = <arrival_ms> <Model> [batch=N] [iterations=N]\n"
          "        [priority=N]\n"
          "\n"
          "Example:\n"
          "  scale = 32\n"
          "  slots = 2\n"
          "  admission = sjf\n"
          "  rates = 5,15,45\n"
          "  designs = baseuvm,deepum,g10\n"
          "  class = ResNet152 batch=256 weight=2\n"
          "  class = BERT\n";
    return code;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace g10;

    tools::CliArgs args = tools::parseCliArgs(
        argc, argv, {"--demo"},
        {"--partition", "--sweep-cache", "--speculate"},
        /*workersFlag=*/true);
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

    ServeSpec spec;
    if (args.has("--demo")) {
        if (args.positional.size() > 1)
            return usage(std::cerr, 1);
        spec = demoServeSpec(args.demoScale(32));
    } else {
        if (args.positional.size() != 1)
            return usage(std::cerr, 1);
        spec = parseServeFile(args.positional[0]);
    }

    if (args.has("--partition"))
        spec.partitionPolicy = args.entry("--partition").named(
            partitionPolicyFromName, "static | proportional | ondemand");
    if (args.has("--sweep-cache"))
        spec.sweepPlanCache = args.entry("--sweep-cache").onOff();
    if (args.has("--speculate"))
        spec.speculativeProbes = args.entry("--speculate").onOff();

    if (args.format == ReportFormat::Table) {
        std::cout << "# g10serve: " << spec.designs.size()
                  << " designs x ";
        if (spec.ratesAuto)
            std::cout << "auto-bisected rates";
        else
            std::cout << spec.rates.size() << " rates";
        std::cout << ", arrival "
                  << arrivalKindName(spec.arrival.kind) << ", "
                  << spec.slots << " slots ("
                  << partitionPolicyName(spec.partitionPolicy)
                  << "), admission " << admitPolicyName(spec.admit)
                  << ", scale 1/" << spec.scaleDown << "\n\n";
    }

    ServeSweep sweep(spec);
    ExperimentEngine engine(args.workers);

    MemoryTraceSink sink;
    ServeObsRequest obs;
    obs.collectCounters = args.metrics;
    obs.sink = args.tracePath.empty() ? nullptr : &sink;

    ServeSweepResult res = sweep.run(engine, obs);
    int code = printServeResult(std::cout, res, args.format);
    if (!args.tracePath.empty())
        tools::writeTraceFile(args.tracePath, sink);
    if (args.metrics)
        writeMetricsJson(std::cout, res.counters);
    return code;
}
