/**
 * @file
 * Fleet request router: maps one shared arrival stream onto N
 * heterogeneous serving nodes under a pluggable placement policy.
 *
 * Routing is a pure function of the spec and the stream — it draws no
 * randomness and simulates nothing. Policies rank nodes with cheap
 * compile-time knowledge only (plan service estimates and working-set
 * footprints, both known before any job runs), mirroring what a real
 * front-end load balancer could compute per request. The routed
 * substreams keep fleet arrival times, so every node sees the exact
 * open-loop process the fleet was offered.
 */

#ifndef G10_FLEET_ROUTER_H
#define G10_FLEET_ROUTER_H

#include <cstdint>
#include <vector>

#include "fleet/fleet_spec.h"
#include "serve/serve_sim.h"

namespace g10 {

/** The shared stream split into per-node substreams. */
struct RoutedStream
{
    /** Node index of each fleet request (stream order). */
    std::vector<std::size_t> nodeOf;

    /** Per node: its substream, fleet arrival times preserved. */
    std::vector<std::vector<ServeRequest>> perNode;

    /** Per node: the fleet index of each substream request (for
     *  mapping node-local outcomes back to the fleet stream). */
    std::vector<std::vector<std::size_t>> perNodeGlobal;
};

/** Routes one fleet stream; construct once, route per placement. */
class Router
{
  public:
    /**
     * @param spec     the fleet (node shapes and defaults)
     * @param workload the stream's resolved classes with their plan
     *                 service estimates and compiled working-set
     *                 footprints (the capacity floors)
     */
    Router(const FleetSpec& spec, const ServeWorkload& workload);

    /** Split @p stream across the nodes under @p kind. */
    RoutedStream route(PlacementKind kind,
                       const std::vector<ServeRequest>& stream) const;

  private:
    RoutedStream
    routeJsq(const std::vector<ServeRequest>& stream) const;
    RoutedStream
    routePlanAware(const std::vector<ServeRequest>& stream) const;
    RoutedStream
    routeAffinity(const std::vector<ServeRequest>& stream) const;

    const FleetSpec& spec_;
    const ServeWorkload& work_;

    std::vector<int> slots_;       ///< per node, after inheritance
    std::vector<Bytes> totalGpu_;  ///< per node, scaled machine bytes
    std::vector<Bytes> slotGpu_;   ///< per node, scaled slot bytes
};

}  // namespace g10

#endif  // G10_FLEET_ROUTER_H
