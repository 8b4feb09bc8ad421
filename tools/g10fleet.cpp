/**
 * @file
 * g10fleet -- fleet-scale serving: a router over N heterogeneous
 * GPU+SSD nodes, comparing placement policies on one arrival stream.
 *
 * Usage:
 *   g10fleet <fleet-file> [--format table|json|csv] [--workers N]
 *   g10fleet --demo [scale]    built-in heterogeneous 4-node fleet
 *   g10fleet --list-designs [--format table|json|csv]
 *   g10fleet --help
 *
 * Every node is a complete serving scenario (its own GPU/DRAM/SSD
 * platform, partition slots, and admission queue); the fleet spec
 * adds one shared seeded request stream and a sweep over placement
 * policies: join-shortest-queue, plan-aware placement by compiled
 * working-set footprint, and class-affinity routing that pins model
 * families to nodes for warm plan-cache hits. Reports fleet SLO
 * attainment, per-node utilization spread (min/max/Jain), capacity
 * per node, and consolidated write amplification. Results are
 * deterministic for a given seed regardless of --workers.
 * `--format json` emits one `g10.fleet_result.v1` document.
 *
 * Observability: --trace <out.json> (a streaming Chrome trace-event
 * timeline of the first placement policy, one process group per node),
 * --metrics (g10.metrics.v1 counters merged across every cell), and
 * --log-level silent|warn|info|debug.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/g10.h"
#include "obs/file_trace_sink.h"
#include "tools/cli_util.h"

namespace {

using namespace g10;

int
usage(std::ostream& os, int code)
{
    os << "usage: g10fleet <fleet-file> [--format table|json|csv] "
          "[--workers N]\n"
          "                [--placement jsq|planaware|affinity]\n"
          "                [--speculate on|off]\n"
          "       g10fleet --demo [scale] [--placement ...]\n"
          "       g10fleet --list-designs [--format ...]\n"
          "       g10fleet --help\n"
          "\n"
          "--placement restricts the sweep to one placement policy\n"
          "(the fleet file's `placements` list is the default sweep).\n"
          "\n"
          "--speculate on|off overrides the scenario's speculate:\n"
          "speculative parallel knee probes (rate = auto; on by\n"
          "default). Pure wall-clock; byte-identical either way.\n"
          "\n"
          "Observability:\n"
          "  --trace <out.json>  streaming Chrome trace-event timeline\n"
          "                      of the first placement policy, one\n"
          "                      process group per node\n"
          "  --metrics           print a g10.metrics.v1 document with\n"
          "                      counters merged across every cell\n"
          "  --forensics         per-node queue/occupancy series and\n"
          "                      an SLO-breach table attributing each\n"
          "                      miss to queue vs. stall vs. resize\n"
          "                      (first placement policy; see g10trace\n"
          "                      forensics for saved traces)\n"
          "  --log-level <l>     silent|warn|info|debug (default warn)\n"
          "\n"
          "Fleet file: '#' comments; 'key = value' lines.\n"
          "  fleet    : scale, seed, slots, queue,\n"
          "             partition_policy (static|proportional|\n"
          "             ondemand), resize_hysteresis,\n"
          "             admission (fifo|sjf|priority), starvation_ms,\n"
          "             slo_factor, requests,\n"
          "             arrival (poisson|bursty),\n"
          "             burst_on_ms, burst_off_ms,\n"
          "             rate (fleet req/s), design,\n"
          "             placements = jsq,planaware,affinity,\n"
          "             gpu_mem_gb, host_mem_gb, ssd_gbps, pcie_gbps\n"
          "  classes  : class = <Model> [batch=N] [iterations=N]\n"
          "             [priority=N] [weight=X] [name=STR]\n"
          "  nodes    : node = <name> [gpu_gb=X] [host_gb=X]\n"
          "             [ssd_gbps=X] [pcie_gbps=X] [slots=N] [queue=N]\n"
          "             [families=ModelA,ModelB]\n"
          "  models   : BERT ViT Inceptionv3 ResNet152 SENet154\n"
          "\n"
          "Example:\n"
          "  scale = 64\n"
          "  rate = 1.0\n"
          "  design = g10\n"
          "  placements = jsq,affinity\n"
          "  class = ResNet152 batch=512 weight=2\n"
          "  class = BERT\n"
          "  node = big0 gpu_gb=40 slots=2\n"
          "  node = small0 gpu_gb=20 slots=1 families=BERT\n";
    return code;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace g10;

    tools::CliArgs args = tools::parseCliArgs(
        argc, argv, {"--demo", "--forensics"},
        {"--placement", "--speculate"}, /*workersFlag=*/true);
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

    FleetSpec spec;
    if (args.has("--demo")) {
        if (args.positional.size() > 1)
            return usage(std::cerr, 1);
        spec = demoFleetSpec(args.demoScale(64));
    } else {
        if (args.positional.size() != 1)
            return usage(std::cerr, 1);
        spec = parseFleetFile(args.positional[0]);
    }

    if (args.has("--placement"))
        spec.placements = {args.entry("--placement").named(
            placementKindFromName, "jsq | planaware | affinity")};
    if (args.has("--speculate"))
        spec.speculativeProbes = args.entry("--speculate").onOff();

    if (args.format == ReportFormat::Table) {
        std::cout << "# g10fleet: " << spec.nodes.size() << " nodes x "
                  << spec.placements.size() << " placements, "
                  << spec.requests << " requests at ";
        if (spec.ratesAuto)
            std::cout << "auto-bisected rate";
        else
            std::cout << spec.rate << " req/s";
        std::cout << " (" << arrivalKindName(spec.arrival.kind)
                  << "), design " << spec.design << ", scale 1/"
                  << spec.scaleDown << "\n\n";
    }

    FleetSim fleet(spec);
    ExperimentEngine engine(args.workers);

    // --trace streams straight to disk (FileTraceSink): a fleet sweep
    // can emit far more events than one serving cell.
    std::unique_ptr<FileTraceSink> traceSink;
    if (!args.tracePath.empty()) {
        traceSink = std::make_unique<FileTraceSink>(args.tracePath);
        // Request pids are node * stride + node-local index; label
        // each process row "<node>/req<global stream index>".
        RoutedStream routedFirst = fleet.routed(spec.placements[0]);
        for (std::size_t n = 0; n < spec.nodes.size(); ++n) {
            const auto& globals = routedFirst.perNodeGlobal[n];
            for (std::size_t j = 0; j < globals.size(); ++j)
                traceSink->setProcessName(
                    static_cast<int>(n) * kFleetPidStride +
                        static_cast<int>(j),
                    spec.nodes[n].name + "/req" +
                        std::to_string(globals[j]));
        }
    }

    // --forensics needs the event stream in memory; with --trace too,
    // a tee feeds both the file and the analyzer from one pass.
    MemoryTraceSink memSink;
    TeeTraceSink teeSink(traceSink.get(),
                         args.has("--forensics") ? &memSink : nullptr);

    FleetObsRequest obs;
    obs.collectCounters = args.metrics;
    obs.sink = (traceSink || args.has("--forensics")) ? &teeSink
                                                      : nullptr;

    FleetResult res = fleet.run(engine, obs);
    int code = printFleetResult(std::cout, res, args.format);
    if (traceSink) {
        traceSink->finish();
        inform("wrote %llu trace events to %s",
               static_cast<unsigned long long>(
                   traceSink->eventsWritten()),
               traceSink->path().c_str());
    }
    if (args.has("--forensics")) {
        FleetForensics forensics = analyzeFleetForensics(
            memSink.events(), kFleetPidStride);
        if (args.format == ReportFormat::Json) {
            writeFleetForensicsJson(std::cout, forensics);
        } else {
            std::cout << "\n";
            printFleetForensics(std::cout, forensics);
        }
    }
    if (args.metrics) {
        if (traceSink)
            res.counters.add("trace.dropped_events",
                             traceSink->droppedEvents());
        writeMetricsJson(std::cout, res.counters);
    }
    return code;
}
