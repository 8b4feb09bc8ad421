#include "fleet_spec.h"

#include <climits>
#include <set>

#include "common/logging.h"
#include "common/spec_reader.h"
#include "policies/registry.h"

namespace g10 {

namespace {

const SpecKey<FleetNodeSpec> kNodeAttributes[] = {
    {"gpu_gb",
     [](const SpecEntry& e, FleetNodeSpec* n) {
         n->gpuGb = e.number(kMinPlatformValue, kMaxPlatformValue);
     }},
    {"host_gb",
     [](const SpecEntry& e, FleetNodeSpec* n) {
         n->hostGb = e.positive(kMaxPlatformValue);
     }},
    {"ssd_gbps",
     [](const SpecEntry& e, FleetNodeSpec* n) {
         n->ssdGbps = e.number(kMinPlatformValue, kMaxPlatformValue);
     }},
    {"pcie_gbps",
     [](const SpecEntry& e, FleetNodeSpec* n) {
         n->pcieGbps = e.number(kMinPlatformValue, kMaxPlatformValue);
     }},
    {"slots",
     [](const SpecEntry& e, FleetNodeSpec* n) {
         n->slots = static_cast<int>(e.integer(1, INT_MAX));
     }},
    {"queue",
     [](const SpecEntry& e, FleetNodeSpec* n) { n->queue = e.integer(0); }},
    {"families",
     [](const SpecEntry& e, FleetNodeSpec* n) {
         for (const SpecEntry& item : e.list())
             n->families.push_back(modelKindAt(item, item.value));
     }},
};

/** The keys only fleet files accept. */
const SpecKey<FleetSpec> kFleetKeys[] = {
    {"node",
     [](const SpecEntry& e, FleetSpec* f) {
         std::vector<std::string> words;
         auto attrs =
             e.attributes(1, &words, "at least a node name", "node");
         FleetNodeSpec node;
         node.name = words[0];
         applyAttributes(attrs, kNodeAttributes, &node);
         f->nodes.push_back(node);
     }},
    {"rate",
     [](const SpecEntry& e, FleetSpec* f) {
         if (e.value == "auto")
             f->ratesAuto = true;
         else
             f->rate = e.positive();
     }},
    {"design",
     [](const SpecEntry& e, FleetSpec* f) {
         if (!PolicyRegistry::instance().contains(e.value))
             e.fail("unknown design '%s' (registered: %s)",
                    e.value.c_str(),
                    PolicyRegistry::instance().knownNames().c_str());
         f->design = e.value;
     }},
    {"placements",
     [](const SpecEntry& e, FleetSpec* f) {
         for (const SpecEntry& item : e.list()) {
             PlacementKind kind;
             if (!placementKindFromName(item.value, &kind))
                 item.fail("unknown placement '%s' (jsq | planaware | "
                           "affinity)",
                           item.value.c_str());
             f->placements.push_back(kind);
         }
     }},
};

}  // namespace

const std::vector<std::string>&
fleetFileKeys()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out = scenarioKeyNames();
        appendKeyNames(kFleetKeys, &out);
        return out;
    }();
    return names;
}

const char*
placementKindName(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::JoinShortestQueue:
        return "jsq";
      case PlacementKind::PlanAware:
        return "planaware";
      case PlacementKind::ClassAffinity:
        return "affinity";
    }
    return "?";
}

bool
placementKindFromName(const std::string& name, PlacementKind* out)
{
    if (name == "jsq")
        *out = PlacementKind::JoinShortestQueue;
    else if (name == "planaware")
        *out = PlacementKind::PlanAware;
    else if (name == "affinity")
        *out = PlacementKind::ClassAffinity;
    else
        return false;
    return true;
}

std::uint64_t
fleetNodeSeed(std::uint64_t fleetSeed, std::size_t node)
{
    // splitmix64 finalizer over the node's slice of the golden-ratio
    // sequence: well-mixed, portable, and a pure function of
    // (fleetSeed, node) — adding nodes never moves an existing seed.
    std::uint64_t z = fleetSeed + 0x9e3779b97f4a7c15ULL *
                                      (static_cast<std::uint64_t>(node) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

SystemConfig
FleetSpec::nodeSystem(std::size_t i) const
{
    const FleetNodeSpec& node = nodes.at(i);
    SystemConfig out = sys;
    if (node.gpuGb > 0.0)
        out.gpuMemBytes = static_cast<Bytes>(node.gpuGb * 1e9);
    if (node.hostGb > 0.0)
        out.hostMemBytes = static_cast<Bytes>(node.hostGb * 1e9);
    if (node.ssdGbps > 0.0)
        out.setSsdBandwidthGBps(node.ssdGbps);
    if (node.pcieGbps > 0.0)
        out.pcieGBps = node.pcieGbps;
    return out;
}

ServeSpec
FleetSpec::nodeServeSpec(std::size_t i) const
{
    const FleetNodeSpec& node = nodes.at(i);
    ServeSpec out;
    static_cast<ServeScenario&>(out) = *this;
    out.sys = nodeSystem(i);
    out.seed = fleetNodeSeed(seed, i);
    if (node.slots > 0)
        out.slots = node.slots;
    if (node.queue >= 0)
        out.queueCapacity = static_cast<std::size_t>(node.queue);
    out.rates = {rate};
    out.designs = {design};
    return out;
}

FleetSpec
parseFleetFile(const std::string& path)
{
    SpecReader in(path, "fleet file", fleetFileKeys(), {"class", "node"});
    FleetSpec spec;
    while (in.next()) {
        const SpecEntry& e = in.entry();
        if (!applySpecKey(kFleetKeys, e, &spec))
            applyScenarioKey(e, &spec);
        if (e.key == "arrival" && spec.arrival.kind == ArrivalKind::Trace)
            e.fail("fleet arrivals must be poisson or bursty (trace "
                   "arrivals are per-node)");
    }

    // Cross-key consistency.
    if (!in.seen("rate"))
        fatal("%s: fleet file needs 'rate = ...'", path.c_str());
    if (spec.rateLo > 0.0 && spec.rateHi > 0.0 &&
        spec.rateHi < spec.rateLo)
        fatal("%s: rate_hi must be >= rate_lo", path.c_str());
    if (spec.classes.empty())
        fatal("%s: fleet file defines no job classes", path.c_str());
    if (spec.nodes.empty())
        fatal("%s: fleet file defines no nodes", path.c_str());
    if (spec.placements.empty())
        fatal("%s: fleet file needs 'placements = ...'", path.c_str());
    std::set<std::string> node_names;
    for (const FleetNodeSpec& node : spec.nodes)
        if (!node_names.insert(node.name).second)
            fatal("%s: duplicate node name '%s'", path.c_str(),
                  node.name.c_str());
    std::set<int> pinned;
    for (const FleetNodeSpec& node : spec.nodes)
        for (ModelKind fam : node.families)
            if (!pinned.insert(static_cast<int>(fam)).second)
                fatal("%s: family '%s' is pinned to two nodes",
                      path.c_str(), modelName(fam));
    return spec;
}

FleetSpec
demoFleetSpec(unsigned scale)
{
    FleetSpec spec;
    spec.scaleDown = scale;
    spec.requests = 24;
    // Loaded enough that queues build and JSQ actually balances (at
    // low rates every arrival finds an idle fleet and ties break to
    // node 0), yet safely inside every node's capacity: no
    // rejections, no failures at the CI smoke scales.
    spec.rate = 3.0;
    spec.design = "g10";
    spec.placements = {PlacementKind::JoinShortestQueue,
                       PlacementKind::PlanAware,
                       PlacementKind::ClassAffinity};

    spec.classes = demoServeClasses();

    // Heterogeneous 4-node fleet: two big 40 GB nodes, a mid-size
    // 28 GB node, and a small single-slot 20 GB node that affinity
    // routing keeps warm with the BERT family.
    FleetNodeSpec big0;
    big0.name = "big0";
    big0.gpuGb = 40.0;
    big0.slots = 2;
    FleetNodeSpec big1;
    big1.name = "big1";
    big1.gpuGb = 40.0;
    big1.slots = 2;
    FleetNodeSpec mid0;
    mid0.name = "mid0";
    mid0.gpuGb = 28.0;
    mid0.hostGb = 96.0;
    mid0.slots = 2;
    FleetNodeSpec small0;
    small0.name = "small0";
    small0.gpuGb = 20.0;
    small0.hostGb = 64.0;
    small0.slots = 1;
    small0.families = {ModelKind::BertBase};
    spec.nodes = {big0, big1, mid0, small0};
    return spec;
}

}  // namespace g10
