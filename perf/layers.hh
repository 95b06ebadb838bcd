/**
 * @file
 * The per-layer metric set every workload reports in a traced run.
 *
 * Each workload hands over points drawn from its own inputs: the twin
 * replays single-core points to split a simulated cycle into its layers,
 * and one probe point times the cache and wire codecs the sweep and serve
 * stacks run on every request.
 */

#ifndef THERMCTL_PERF_LAYERS_HH
#define THERMCTL_PERF_LAYERS_HH

#include <string>
#include <vector>

#include "perf_util.hh"
#include "serve/protocol.hh"

namespace thermctl::perf
{

/** One point replayed through the twin. */
struct TwinCase
{
    SimConfig config;
    RunProtocol proto;
    /** Untraced runOne bytes; empty = the layer pass runs runOne itself. */
    std::string expected;
    /** Untraced runOne wall time, ms (with `expected`). */
    double untraced_ms = 0.0;
};

/** What a workload hands to the layer pass. */
struct LayerInputs
{
    std::vector<TwinCase> twins;

    /** The point the codec and cache probes run on. */
    SimConfig probe_config;
    RunProtocol probe_proto;
    serve::PointSpec probe_spec;
};

/** Fill `rep.layers` with the common per-layer set. */
void measureLayers(const RunContext &ctx, Tracer *tracer,
                   const LayerInputs &in, Report &rep);

} // namespace thermctl::perf

#endif // THERMCTL_PERF_LAYERS_HH
