#include "workloads.hh"

#include <algorithm>

#include "common/random.hh"
#include "serve/client.hh"
#include "workload/spec_profiles.hh"

namespace thermctl::perf
{

const std::vector<WorkloadEntry> &
allWorkloads()
{
    static const std::vector<WorkloadEntry> kAll = {
        {"sim_single", &runSimSingle},   {"sim_chip16", &runSimChip16},
        {"sweep_cache", &runSweepCache}, {"serve_mixed", &runServeMixed},
        {"cluster_grid", &runClusterGrid},
    };
    return kAll;
}

WorkloadProfile
seededProfile(const std::string &name, std::uint64_t seed)
{
    WorkloadProfile p = specProfile(name);
    p.seed ^= seed * 0x9E3779B97F4A7C15ULL;
    return p;
}

double
seededSetpoint(std::uint64_t seed, std::uint64_t index)
{
    // 111.6 C plus an offset below 0.05 C on a 1e-7 C grid: distinct
    // per index (up to 500k indices) and per seed, far from emergency.
    Rng rng(seed);
    const std::uint64_t base = rng.below(250000);
    return 111.6 - 0.025 + static_cast<double>((base + index) % 500000)
        * 1e-7;
}

unsigned
runRounds(double seconds, const std::function<void(unsigned)> &round)
{
    const Clock::time_point t0 = Clock::now();
    unsigned r = 0;
    double last = 0.0;
    for (;;) {
        const double before = secondsSince(t0);
        round(r++);
        const double now = secondsSince(t0);
        last = now - before;
        if (now + last / 2.0 >= seconds)
            return r;
    }
}

void
stopServer(std::unique_ptr<serve::Server> &server,
           const std::string &endpoint)
{
    if (!server)
        return;
    std::string err;
    serve::ServeClient c = serve::ServeClient::tryConnect(endpoint, 1000, err);
    if (c.connected())
        (void)c.drain();
    server.reset();
}

void
addOpMetrics(Report &rep, const std::vector<double> &ops_ms)
{
    rep.add(rep.e2e, "op_ms_p50", quantile(ops_ms, 0.5), "ms");
    rep.add(rep.extra, "ops", static_cast<double>(ops_ms.size()), "count");
    const double n = static_cast<double>(ops_ms.size());
    if (n * 0.01 >= 10.0)
        rep.add(rep.extra, "op_ms_p99", quantile(ops_ms, 0.99), "ms");
    else if (n * 0.1 >= 10.0)
        rep.add(rep.extra, "op_ms_p90", quantile(ops_ms, 0.9), "ms");
}

void
addColdStartShare(const RunProtocol &proto, Report &rep)
{
    const auto cycles = proto.warmup_cycles + proto.measure_cycles;
    rep.add(rep.extra, "sim.cold_start_cycle_pct",
            100.0 * static_cast<double>(std::min(cycles, kColdStartCycles))
                / static_cast<double>(cycles),
            "%");
}

} // namespace thermctl::perf
