#include "layers.hh"

#include <filesystem>

#include "serve/scheduler.hh"
#include "sim/sweep.hh"
#include "twin.hh"

namespace thermctl::perf
{

namespace
{

/** Mean microseconds per call of `fn` over `n` calls. */
template <typename Fn>
double
usPerCall(std::size_t n, Fn &&fn)
{
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i)
        fn();
    return secondsSince(t0) * 1e6 / static_cast<double>(n);
}

void
twinLayers(Tracer *tracer, const std::vector<TwinCase> &cases, Report &rep)
{
    TwinOutcome sum;
    double mean_duty = 0.0;
    double twin_ms = 0.0;
    double untraced_ms = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const TwinCase &c = cases[i];
        if (!twinSupports(c.config)) {
            rep.check(false, c.config.workload.name
                                 + ": twin cannot reproduce this point");
            continue;
        }
        std::string expected = c.expected;
        double base_ms = c.untraced_ms;
        if (expected.empty()) {
            const Clock::time_point t0 = Clock::now();
            const RunResult r = ExperimentRunner(c.proto).runOne(
                c.config.workload, c.config.policy, c.config);
            base_ms = secondsSince(t0) * 1e3;
            expected = serializeRunResult(r);
        }
        const std::int64_t s0 = nowNs();
        const Clock::time_point t0 = Clock::now();
        const TwinOutcome o = runTwin(c.config, c.proto);
        twin_ms += secondsSince(t0) * 1e3;
        untraced_ms += base_ms;
        const std::string key = c.config.workload.name + "/"
            + dtmPolicyKindName(c.config.policy.kind);
        rep.check(o.clock_fixed, "twin " + key + ": the clock was scaled");
        rep.check(serializeRunResult(o.result) == expected,
                  "twin " + key + ": RunResult bytes differ from runOne");
        if (tracer) {
            tracer->record("twin.point", i, Tracer::kNoParent, s0, nowNs());
            tracer->counters(
                "twin.layers." + key, i,
                {{"cycles", static_cast<double>(o.cycles), "count"},
                 {"cpu", o.cpu_ns, "ns"},
                 {"workload", o.workload_ns, "ns"},
                 {"workload.calls", static_cast<double>(o.workload_calls),
                  "count"},
                 {"power", o.power_ns, "ns"},
                 {"thermal", o.thermal_ns, "ns"},
                 {"dtm", o.dtm_ns, "ns"},
                 {"glue", o.glue_ns, "ns"},
                 {"wall", o.wall_ns, "ns"}});
        }
        sum.cycles += o.cycles;
        sum.cpu_ns += o.cpu_ns;
        sum.workload_ns += o.workload_ns;
        sum.power_ns += o.power_ns;
        sum.thermal_ns += o.thermal_ns;
        sum.dtm_ns += o.dtm_ns;
        sum.glue_ns += o.glue_ns;
        sum.wall_ns += o.wall_ns;
        sum.cold_ns += o.cold_ns;
        sum.workload_calls += o.workload_calls;
        // Exact counts: means over the cases (each is deterministic).
        const double w = 1.0 / static_cast<double>(cases.size());
        sum.ipc += o.ipc * w;
        sum.wrong_path_frac += o.wrong_path_frac * w;
        sum.squashes_per_kcycle += o.squashes_per_kcycle * w;
        sum.dir_wrong_per_kinst += o.dir_wrong_per_kinst * w;
        sum.l1i_miss_rate += o.l1i_miss_rate * w;
        sum.l1d_miss_rate += o.l1d_miss_rate * w;
        sum.l2_miss_rate += o.l2_miss_rate * w;
        mean_duty += o.result.mean_duty * w;
    }

    const double cyc = static_cast<double>(sum.cycles);
    // The layer spans must account for the loop they bracket.
    const double covered = sum.layersNs() / sum.wall_ns;
    rep.check(covered > 0.95 && covered < 1.05,
              "twin layer times cover " + std::to_string(covered * 100.0)
                  + "% of the cycle loop (need 95-105%)");

    auto &L = rep.layers;
    rep.add(L, "cpu.tick_ns", sum.cpu_ns / cyc, "ns");
    rep.add(L, "workload.next_ns",
            sum.workload_ns / static_cast<double>(sum.workload_calls), "ns");
    rep.add(L, "workload.calls_per_cycle",
            static_cast<double>(sum.workload_calls) / cyc, "count");
    rep.add(L, "power.cycle_ns", sum.power_ns / cyc, "ns");
    rep.add(L, "thermal.step_ns", sum.thermal_ns / cyc, "ns");
    rep.add(L, "dtm.tick_ns", sum.dtm_ns / cyc, "ns");
    rep.add(L, "sim.glue_ns", sum.glue_ns / cyc, "ns");
    rep.add(L, "trace.overhead_pct", 100.0 * (twin_ms / untraced_ms - 1.0),
            "%");
    rep.add(L, "sim.cold_start_pct", 100.0 * sum.cold_ns / sum.wall_ns, "%");
    rep.add(L, "cpu.ipc", sum.ipc, "count");
    rep.add(L, "cpu.wrong_path_frac", sum.wrong_path_frac, "count");
    rep.add(L, "cpu.squashes_per_kcycle", sum.squashes_per_kcycle, "count");
    rep.add(L, "branch.dir_wrong_per_kinst", sum.dir_wrong_per_kinst,
            "count");
    rep.add(L, "cache.l1i_miss_rate", sum.l1i_miss_rate, "count");
    rep.add(L, "cache.l1d_miss_rate", sum.l1d_miss_rate, "count");
    rep.add(L, "cache.l2_miss_rate", sum.l2_miss_rate, "count");
    rep.add(L, "dtm.mean_duty", mean_duty, "count");
    rep.add(rep.extra, "twin.layer_cover_pct", covered * 100.0, "%");
}

void
codecLayers(const RunContext &ctx, const LayerInputs &in, Report &rep)
{
    namespace fs = std::filesystem;
    const std::size_t n = ctx.smoke ? 200 : 2000;

    // Publish the probe point into a private cache directory so the
    // lookup below times the hit path of the real cache.
    const fs::path dir =
        fs::path(ctx.out_dir) / ("probe-cache-" + ctx.workload);
    fs::remove_all(dir);
    SweepOptions so;
    so.jobs = 1;
    so.use_cache = true;
    so.cache_dir = dir.string();
    SweepSpec spec;
    spec.protocol(in.probe_proto)
        .base(in.probe_config)
        .workload(in.probe_config.workload)
        .policy(in.probe_config.policy);
    const RunResult result = SweepEngine(so).run(spec).results().at(0);

    std::uint64_t digest = 0;
    rep.add(rep.layers, "sweep.digest_us", usPerCall(n, [&] {
                digest = sweepConfigDigest(in.probe_config, in.probe_proto);
            }),
            "us");
    std::string bytes;
    rep.add(rep.layers, "sweep.serialize_us",
            usPerCall(n, [&] { bytes = serializeRunResult(result); }), "us");
    RunResult back;
    bool decoded = true;
    rep.add(rep.layers, "sweep.deserialize_us", usPerCall(n, [&] {
                decoded &= deserializeRunResult(bytes, back)
                    == RunResultDecodeStatus::Ok;
            }),
            "us");
    bool hit = true;
    rep.add(rep.layers, "sweep.lookup_hit_us", usPerCall(n, [&] {
                hit &= sweepCacheLookup(so.cache_dir, digest, back);
            }),
            "us");
    rep.check(decoded && hit && serializeRunResult(back) == bytes,
              "cache probe: lookup did not return the published bytes");
    fs::remove_all(dir);

    serve::RunRequest req;
    req.point = in.probe_spec;
    const std::string req_bytes = req.encode();
    serve::RunRequest req_back;
    bool req_ok = true;
    rep.add(rep.layers, "serve.protocol.run_request_decode_us",
            usPerCall(n, [&] {
                req_ok &= serve::RunRequest::decode(req_bytes, req_back);
            }),
            "us");
    serve::RunReply reply;
    reply.point.result = result;
    std::string reply_bytes;
    rep.add(rep.layers, "serve.protocol.run_reply_encode_us",
            usPerCall(n, [&] { reply_bytes = reply.encode(); }), "us");
    serve::RunReply reply_back;
    bool reply_ok = true;
    rep.add(rep.layers, "serve.protocol.run_reply_decode_us",
            usPerCall(n, [&] {
                reply_ok &= serve::RunReply::decode(reply_bytes, reply_back);
            }),
            "us");
    rep.check(req_ok && reply_ok, "codec probe: a frame did not decode");
    std::uint64_t resolved = 0;
    rep.add(rep.layers, "serve.scheduler.resolve_us", usPerCall(n, [&] {
                resolved = serve::resolvePoint(in.probe_spec, SimConfig{})
                               .digest;
            }),
            "us");
    rep.check(resolved != 0, "resolve probe: empty digest");
}

} // namespace

void
measureLayers(const RunContext &ctx, Tracer *tracer, const LayerInputs &in,
              Report &rep)
{
    ScopedSpan span(tracer, "layers", 0);
    twinLayers(tracer, in.twins, rep);
    codecLayers(ctx, in, rep);
}

} // namespace thermctl::perf
