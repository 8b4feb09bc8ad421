#include "router.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "engine/partition.h"

namespace g10 {

namespace {

/** Drop in-flight entries that departed at or before @p now. */
template <typename T, typename DepOf>
void
prune(std::vector<T>* inflight, TimeNs now, DepOf dep)
{
    inflight->erase(
        std::remove_if(inflight->begin(), inflight->end(),
                       [&](const T& e) { return dep(e) <= now; }),
        inflight->end());
}

}  // namespace

Router::Router(const FleetSpec& spec, const ServeWorkload& workload)
    : spec_(spec), work_(workload)
{
    if (spec_.nodes.empty())
        panic("Router: fleet has no nodes");

    slots_.reserve(spec_.nodes.size());
    totalGpu_.reserve(spec_.nodes.size());
    slotGpu_.reserve(spec_.nodes.size());
    for (std::size_t n = 0; n < spec_.nodes.size(); ++n) {
        const int slots = spec_.nodes[n].slots > 0 ? spec_.nodes[n].slots
                                                   : spec_.slots;
        const SystemConfig scaled =
            spec_.nodeSystem(n).scaledDown(spec_.scaleDown);
        const SystemConfig slot =
            partitionShare(scaled, 1.0 / static_cast<double>(slots));
        slots_.push_back(slots);
        totalGpu_.push_back(scaled.gpuMemBytes);
        slotGpu_.push_back(slot.gpuMemBytes);
    }
}

RoutedStream
Router::route(PlacementKind kind,
              const std::vector<ServeRequest>& stream) const
{
    switch (kind) {
      case PlacementKind::JoinShortestQueue:
        return routeJsq(stream);
      case PlacementKind::PlanAware:
        return routePlanAware(stream);
      case PlacementKind::ClassAffinity:
        return routeAffinity(stream);
    }
    panic("Router: unknown placement kind");
}

namespace {

/** Start an empty routed stream for @p nodes nodes. */
RoutedStream
emptyRouted(std::size_t nodes, std::size_t requests)
{
    RoutedStream out;
    out.nodeOf.reserve(requests);
    out.perNode.resize(nodes);
    out.perNodeGlobal.resize(nodes);
    return out;
}

/** Append fleet request @p i to node @p n's substream. */
void
assign(RoutedStream* out, std::size_t n, std::size_t i,
       const ServeRequest& r)
{
    out->nodeOf.push_back(n);
    out->perNode[n].push_back(r);
    out->perNodeGlobal[n].push_back(i);
}

}  // namespace

RoutedStream
Router::routeJsq(const std::vector<ServeRequest>& stream) const
{
    const std::size_t nn = spec_.nodes.size();
    RoutedStream out = emptyRouted(nn, stream.size());

    // Estimated departure times of the requests each node currently
    // holds. Backlog is normalized per slot so a 1-slot node and a
    // 2-slot node at the same depth do not look equally loaded.
    std::vector<std::vector<TimeNs>> inflight(nn);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const ServeRequest& r = stream[i];
        std::size_t best = 0;
        double bestScore = 0.0;
        for (std::size_t n = 0; n < nn; ++n) {
            prune(&inflight[n], r.arrivalNs,
                  [](TimeNs dep) { return dep; });
            const double score =
                static_cast<double>(inflight[n].size()) /
                static_cast<double>(slots_[n]);
            if (n == 0 || score < bestScore) {
                best = n;
                bestScore = score;
            }
        }
        const double depth =
            static_cast<double>(inflight[best].size()) /
            static_cast<double>(slots_[best]);
        const TimeNs est = work_.serviceEstNs[r.classIndex];
        inflight[best].push_back(
            r.arrivalNs +
            static_cast<TimeNs>(static_cast<double>(est) *
                                (1.0 + depth)));
        assign(&out, best, i, r);
    }
    return out;
}

RoutedStream
Router::routePlanAware(const std::vector<ServeRequest>& stream) const
{
    const std::size_t nn = spec_.nodes.size();
    RoutedStream out = emptyRouted(nn, stream.size());

    struct InFlight
    {
        TimeNs dep = 0;
        Bytes fp = 0;
    };
    std::vector<std::vector<InFlight>> inflight(nn);
    std::vector<Bytes> inflightBytes(nn, 0);

    for (std::size_t i = 0; i < stream.size(); ++i) {
        const ServeRequest& r = stream[i];
        const Bytes fp = work_.floors[r.classIndex];
        for (std::size_t n = 0; n < nn; ++n) {
            std::vector<InFlight>& fl = inflight[n];
            fl.erase(std::remove_if(fl.begin(), fl.end(),
                                    [&](const InFlight& e) {
                                        if (e.dep > r.arrivalNs)
                                            return false;
                                        inflightBytes[n] -= e.fp;
                                        return true;
                                    }),
                     fl.end());
        }

        // Eligibility: the class's compiled working-set footprint must
        // fit one partition slot. A class too big for every node falls
        // back to the roomiest slot (it will fail there explicitly,
        // exactly as a single overloaded node would report it).
        std::size_t best = SIZE_MAX;
        double bestScore = 0.0;
        for (std::size_t n = 0; n < nn; ++n) {
            if (slotGpu_[n] < fp)
                continue;
            const double score =
                static_cast<double>(inflightBytes[n] + fp) /
                static_cast<double>(totalGpu_[n]);
            if (best == SIZE_MAX || score < bestScore) {
                best = n;
                bestScore = score;
            }
        }
        if (best == SIZE_MAX) {
            best = 0;
            for (std::size_t n = 1; n < nn; ++n)
                if (slotGpu_[n] > slotGpu_[best])
                    best = n;
        }

        const double depth =
            static_cast<double>(inflight[best].size()) /
            static_cast<double>(slots_[best]);
        const TimeNs est = work_.serviceEstNs[r.classIndex];
        InFlight e;
        e.dep = r.arrivalNs +
                static_cast<TimeNs>(static_cast<double>(est) *
                                    (1.0 + depth));
        e.fp = fp;
        inflight[best].push_back(e);
        inflightBytes[best] += fp;
        assign(&out, best, i, r);
    }
    return out;
}

RoutedStream
Router::routeAffinity(const std::vector<ServeRequest>& stream) const
{
    const std::size_t nn = spec_.nodes.size();
    RoutedStream out = emptyRouted(nn, stream.size());

    // Home node per model family: explicit pins first, then unpinned
    // families in stream first-appearance order onto the node homing
    // the fewest families (tie: lowest index). The assignment depends
    // only on the pins and the stream, so appending a node never moves
    // an existing family's home unless that node is strictly emptier.
    std::map<int, std::size_t> home;
    std::vector<std::size_t> homed(nn, 0);
    for (std::size_t n = 0; n < nn; ++n) {
        for (ModelKind fam : spec_.nodes[n].families) {
            const int key = static_cast<int>(fam);
            if (home.count(key))
                panic("Router: family '%s' pinned to two nodes",
                      modelName(fam));
            home[key] = n;
            ++homed[n];
        }
    }

    for (std::size_t i = 0; i < stream.size(); ++i) {
        const ServeRequest& r = stream[i];
        const int key =
            static_cast<int>(work_.classes[r.classIndex].model);
        auto it = home.find(key);
        if (it == home.end()) {
            std::size_t best = 0;
            for (std::size_t n = 1; n < nn; ++n)
                if (homed[n] < homed[best])
                    best = n;
            it = home.emplace(key, best).first;
            ++homed[best];
        }
        assign(&out, it->second, i, r);
    }
    return out;
}

}  // namespace g10
