/**
 * @file
 * serve_mixed: an in-process serve::Server on a Unix socket, driven by
 * one open-loop generator thread over a small connection pool.
 *
 * Arrivals are Poisson on a schedule fixed by the seed; a request that
 * finds every connection busy waits in the generator's queue, and its
 * latency runs from when it was due, not from when it was sent. Hits ask
 * for points primed into the server's cache during set-up; misses ask
 * for fresh points whose setpoint is unique per arrival, so their digest
 * never repeats and they always simulate.
 */

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <set>

#include "common/random.hh"
#include "serve/client.hh"
#include "serve/scheduler.hh"
#include "serve/server.hh"
#include "sim/sweep.hh"
#include "workload/spec_profiles.hh"
#include "workloads.hh"

namespace thermctl::perf
{

namespace fs = std::filesystem;
using namespace thermctl::serve;

namespace
{

enum class Path : std::uint8_t
{
    Hit,
    Miss,
    Query,
};

/**
 * Traffic: Poisson arrivals at kRate per second, split between run
 * requests for primed points (hits), run requests for fresh points
 * (misses) and cache queries for primed points. A miss costs about 12 ms
 * of a dispatcher, so the two dispatchers run at about a quarter of
 * capacity: queueing shows before saturation, and hits wait behind
 * simulations in the same queue.
 */
constexpr double kRate = 90.0;
constexpr double kHitShare = 0.45;
constexpr double kMissShare = 0.45;
constexpr double kQueryShare = 0.10;

struct Arrival
{
    double due_s = 0.0;
    Path path = Path::Hit;
    PointSpec spec;
    MsgType type = MsgType::RunRequest;
    std::string payload;
};

const char *const kPolicies[] = {"none", "PID", "PI", "toggle1"};
constexpr std::size_t kPrimed = 32;
constexpr std::size_t kVerified = 16;

RunProtocol
pointProtocol(const RunContext &ctx)
{
    return {4000 / ctx.cycleDiv(), 16000 / ctx.cycleDiv()};
}

PointSpec
makeSpec(const RunContext &ctx, const std::string &bench,
         const char *policy, double setpoint)
{
    PointSpec s;
    s.benchmark = bench;
    s.policy = policy;
    s.warmup_cycles = pointProtocol(ctx).warmup_cycles;
    s.measure_cycles = pointProtocol(ctx).measure_cycles;
    s.ct_setpoint = setpoint;
    return s;
}

/** 8 seed-chosen profiles x the 4 policies, at one shared setpoint. */
std::vector<PointSpec>
primedSpecs(const RunContext &ctx)
{
    std::vector<std::string> names = specProfileNames();
    Rng rng = Rng(ctx.seed).fork(7);
    for (std::size_t i = names.size(); i > 1; --i)
        std::swap(names[i - 1], names[rng.below(i)]);
    std::vector<PointSpec> out;
    for (std::size_t p = 0; p < kPrimed / 4; ++p) {
        for (const char *pol : kPolicies) {
            out.push_back(
                makeSpec(ctx, names[p], pol, seededSetpoint(ctx.seed, 0)));
        }
    }
    return out;
}

/**
 * Publish the primed points into `dir` under the keys the server looks
 * them up by. They form a profiles x policies grid sharing one protocol
 * and setpoint, so one SweepSpec over the server's own resolution of
 * each PointSpec (resolvePoint) reproduces every configuration; set-up
 * checks that the server then finds each of them.
 */
void
primeCache(const RunContext &ctx, const std::vector<PointSpec> &primed,
           const fs::path &dir)
{
    const ResolvedPoint first = resolvePoint(primed.front(), {});
    SweepSpec spec;
    spec.protocol(first.proto).base(first.config);
    std::set<std::string> workloads, policies;
    for (const PointSpec &s : primed) {
        const ResolvedPoint rp = resolvePoint(s, {});
        if (workloads.insert(s.benchmark).second)
            spec.workload(rp.config.workload);
        if (policies.insert(s.policy).second)
            spec.policy(rp.config.policy);
    }
    SweepOptions so;
    so.jobs = std::min(ctx.nproc, 4u);
    so.use_cache = true;
    so.cache_dir = dir.string();
    (void)SweepEngine(so).run(spec);
}

std::vector<Arrival>
makeSchedule(const RunContext &ctx, const std::vector<PointSpec> &primed)
{
    const std::vector<std::string> names = specProfileNames();
    Rng arrivals = Rng(ctx.seed).fork(1);
    Rng pick = Rng(ctx.seed).fork(2);
    const double total = kHitShare + kMissShare + kQueryShare;
    std::vector<Arrival> out;
    std::uint64_t fresh = 0;
    for (double t = 0.0;;) {
        t += -std::log(1.0 - arrivals.uniform()) / kRate;
        if (t >= ctx.seconds)
            break;
        Arrival a;
        a.due_s = t;
        const double u = pick.uniform() * total;
        a.path = u < kHitShare                ? Path::Hit
                 : u < kHitShare + kMissShare ? Path::Miss
                                              : Path::Query;
        if (a.path == Path::Miss) {
            a.spec = makeSpec(ctx, names[pick.below(names.size())],
                              kPolicies[pick.below(4)],
                              seededSetpoint(ctx.seed, ++fresh));
        } else {
            a.spec = primed[pick.below(primed.size())];
        }
        if (a.path == Path::Query) {
            a.type = MsgType::CacheQueryRequest;
            a.payload = CacheQueryRequest{a.spec}.encode();
        } else {
            a.type = MsgType::RunRequest;
            a.payload = RunRequest{a.spec, 0}.encode();
        }
        out.push_back(std::move(a));
    }
    return out;
}

int
dialUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0
        && ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
            != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Per-request measurements the generator collects. */
struct Samples
{
    std::vector<double> lat_ms[3];    ///< by Path
    std::vector<double> server_ms[3]; ///< PointReply::server_ms, run paths
    std::vector<double> outside_ms[3];
    std::vector<double> lag_ms;       ///< generator lateness at admission
    std::vector<std::string> verified; ///< result bytes of sampled runs
    std::vector<PointSpec> verified_specs;
};

struct GenConn
{
    int fd = -1;
    FrameAssembler assembler;
    bool busy = false;
    std::size_t cur = 0;
};

/**
 * The open-loop generator. @return seconds from the first due time to
 * the last reply.
 */
double
generate(const RunContext &ctx, const std::string &sock,
         const std::vector<Arrival> &schedule, Tracer *tracer, Samples &out,
         Report &rep)
{
    std::vector<GenConn> conns(kGenConns);
    for (auto &c : conns)
        c.fd = dialUnix(sock);

    // The first kVerified run requests are the verification sample.
    std::vector<int> sample_slot(schedule.size(), -1);
    for (std::size_t i = 0; i < schedule.size()
                            && out.verified.size() < kVerified;
         ++i) {
        if (schedule[i].type == MsgType::RunRequest) {
            sample_slot[i] = static_cast<int>(out.verified.size());
            out.verified.emplace_back();
            out.verified_specs.push_back(schedule[i].spec);
        }
    }

    const Clock::time_point start = Clock::now();
    const std::int64_t start_ns = nowNs();
    std::deque<std::size_t> pending;
    std::size_t next = 0, done = 0;
    double last_reply_s = 0.0;
    const double give_up_s = ctx.seconds + 30.0;

    auto finish = [&](GenConn &c, bool ok, const std::string &why) {
        rep.check(ok, why);
        c.busy = false;
        ++done;
    };
    auto fail_conn = [&](GenConn &c, const std::string &why) {
        if (c.busy)
            finish(c, false, why);
        ::close(c.fd);
        c.fd = dialUnix(sock);
        c.assembler = FrameAssembler();
    };

    while (done < schedule.size()) {
        const double now_s = secondsSince(start);
        if (now_s > give_up_s) {
            for (; done < schedule.size(); ++done)
                rep.check(false, "request never answered");
            break;
        }
        while (next < schedule.size() && schedule[next].due_s <= now_s) {
            out.lag_ms.push_back((now_s - schedule[next].due_s) * 1e3);
            pending.push_back(next++);
        }
        for (auto &c : conns) {
            if (c.busy || pending.empty())
                continue;
            if (c.fd < 0)
                c.fd = dialUnix(sock);
            const std::size_t i = pending.front();
            pending.pop_front();
            c.busy = true;
            c.cur = i;
            if (c.fd < 0
                || !writeFrame(c.fd, schedule[i].type, schedule[i].payload))
                fail_conn(c, "transport: send failed");
        }

        std::vector<pollfd> fds;
        for (auto &c : conns)
            fds.push_back({c.busy ? c.fd : -1, POLLIN, 0});
        int timeout_ms = 20;
        if (next < schedule.size()) {
            const double wait = schedule[next].due_s - secondsSince(start);
            timeout_ms = std::clamp(static_cast<int>(wait * 1e3), 0, 20);
        }
        if (::poll(fds.data(), fds.size(), timeout_ms) <= 0)
            continue;

        for (std::size_t k = 0; k < conns.size(); ++k) {
            GenConn &c = conns[k];
            if (!c.busy || !(fds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char buf[16384];
            const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
            if (n <= 0) {
                fail_conn(c, "transport: connection closed");
                continue;
            }
            c.assembler.feed(
                std::string_view(buf, static_cast<std::size_t>(n)));
            MsgType type;
            std::string payload;
            const auto what = c.assembler.next(type, payload);
            if (what == FrameAssembler::Next::NeedMore)
                continue;
            if (what == FrameAssembler::Next::Bad) {
                fail_conn(c, "protocol: bad frame");
                continue;
            }
            const double reply_s = secondsSince(start);
            last_reply_s = reply_s;
            const Arrival &a = schedule[c.cur];
            const double lat = (reply_s - a.due_s) * 1e3;
            const auto p = static_cast<std::size_t>(a.path);
            if (a.type == MsgType::CacheQueryRequest) {
                CacheQueryReply r;
                const bool ok = type == MsgType::CacheQueryReply
                    && CacheQueryReply::decode(payload, r) && r.cached;
                out.lat_ms[p].push_back(lat);
                finish(c, ok, "cache query: primed point not cached");
            } else {
                RunReply r;
                std::string why;
                if (type != MsgType::RunReply
                    || !RunReply::decode(payload, r))
                    why = "protocol: undecodable run reply";
                else if (r.point.error != ServeError::None)
                    why = std::string("refused: ")
                        + serveErrorName(r.point.error);
                else if (r.point.cache_hit != (a.path == Path::Hit))
                    why = "reply took the wrong cache path";
                const bool ok = why.empty();
                if (ok) {
                    out.lat_ms[p].push_back(lat);
                    out.server_ms[p].push_back(r.point.server_ms);
                    out.outside_ms[p].push_back(lat - r.point.server_ms);
                    if (sample_slot[c.cur] >= 0)
                        out.verified[sample_slot[c.cur]] =
                            serializeRunResult(r.point.result);
                }
                if (tracer) {
                    const auto due_ns = start_ns
                        + static_cast<std::int64_t>(a.due_s * 1e9);
                    const auto end_ns = start_ns
                        + static_cast<std::int64_t>(reply_s * 1e9);
                    const std::size_t span =
                        tracer->record(a.path == Path::Hit ? "request.hit"
                                                           : "request.miss",
                                       c.cur, Tracer::kNoParent, due_ns,
                                       end_ns);
                    tracer->record(
                        "server", c.cur, span,
                        end_ns
                            - static_cast<std::int64_t>(r.point.server_ms
                                                        * 1e6),
                        end_ns);
                }
                finish(c, ok,
                       a.spec.benchmark + "/" + a.spec.policy + ": " + why);
            }
        }
    }
    for (auto &c : conns) {
        if (c.fd >= 0)
            ::close(c.fd);
    }
    return last_reply_s - (schedule.empty() ? 0.0 : schedule.front().due_s);
}

const char *
pathName(Path p)
{
    return p == Path::Hit ? "hit" : p == Path::Miss ? "miss" : "query";
}

} // namespace

// The operation is a miss: the hit path's sub-millisecond latency moves
// with the host's wake-up latency by 20% from run to run, so it is an
// extra (serve_hit_*), not an end-to-end metric.
Report
runServeMixed(const RunContext &ctx, Tracer *tracer, LayerInputs &li)
{
    Report rep;
    const fs::path cache_dir =
        fs::path(ctx.out_dir) / ("serve-cache-" + ctx.workload);
    const std::string sock =
        (fs::path(ctx.out_dir) / (ctx.workload + ".sock")).string();

    const std::vector<PointSpec> primed = primedSpecs(ctx);
    const std::vector<Arrival> schedule = makeSchedule(ctx, primed);

    std::unique_ptr<Server> server;
    const double setup_s = medianSetupSeconds(kSetupReps, [&] {
        stopServer(server, "unix:" + sock);
        fs::remove_all(cache_dir);
        primeCache(ctx, primed, cache_dir);
        ServerOptions o;
        o.unix_path = sock;
        o.workers = 2;
        o.dispatchers = 2;
        o.sweep.jobs = 1;
        o.sweep.use_cache = true;
        o.sweep.cache_dir = cache_dir.string();
        server = std::make_unique<Server>(o);
        server->start();
        ServeClient probe = ServeClient::connect("unix:" + sock);
        bool all_cached = true;
        for (const PointSpec &s : primed)
            all_cached &= probe.cacheQuery(CacheQueryRequest{s}).cached;
        rep.check(all_cached, "a primed point is not in the server's cache");
    });
    rep.add(rep.e2e, "setup_s", setup_s, "s");

    Samples smp;
    const double active_s =
        generate(ctx, sock, schedule, tracer, smp, rep);
    const StatsReply st = server->statsSnapshot();
    stopServer(server, "unix:" + sock);
    fs::remove_all(cache_dir);

    // Served bytes must equal a direct run of the same resolved point.
    for (std::size_t i = 0; i < smp.verified.size(); ++i) {
        const ResolvedPoint rp = resolvePoint(smp.verified_specs[i], {});
        const std::string direct = serializeRunResult(
            ExperimentRunner(rp.proto).runOne(rp.config.workload,
                                              rp.config.policy, rp.config));
        rep.digestResult(direct);
        rep.check(smp.verified[i] == direct,
                  rp.key + ": served RunResult differs from a direct run");
    }

    addOpMetrics(rep, smp.lat_ms[static_cast<std::size_t>(Path::Miss)]);
    for (const Path p : {Path::Hit, Path::Miss, Path::Query}) {
        const auto &v = smp.lat_ms[static_cast<std::size_t>(p)];
        if (v.empty())
            continue;
        const std::string n = std::string("serve_") + pathName(p);
        rep.add(rep.extra, n + "_count", static_cast<double>(v.size()),
                "count");
        rep.add(rep.extra, n + "_p50_ms", quantile(v, 0.5), "ms");
        rep.add(rep.extra, n + "_p90_ms", quantile(v, 0.9), "ms");
        rep.add(rep.extra, n + "_p99_ms", quantile(v, 0.99), "ms");
        if (p == Path::Query)
            continue;
        const std::string l = std::string("serve.") + pathName(p);
        rep.add(rep.extra, l + "_server_ms_p50",
                median(smp.server_ms[static_cast<std::size_t>(p)]), "ms");
        rep.add(rep.extra, l + "_outside_ms_p50",
                median(smp.outside_ms[static_cast<std::size_t>(p)]), "ms");
    }
    rep.add(rep.extra, "serve.miss_p90_limit_ms", 100.0, "ms");
    addColdStartShare(pointProtocol(ctx), rep);
    rep.add(rep.extra, "gen.lag_ms_p99", quantile(smp.lag_ms, 0.99), "ms");
    rep.add(rep.extra, "gen.achieved_rps",
            static_cast<double>(schedule.size()) / std::max(active_s, 1e-9),
            "1/s");
    rep.add(rep.extra, "serve.scheduler.simulated",
            static_cast<double>(st.points_simulated), "count");
    rep.add(rep.extra, "serve.scheduler.cache_hits",
            static_cast<double>(st.cache_hits), "count");
    rep.add(rep.extra, "serve.scheduler.coalesced",
            static_cast<double>(st.coalesced), "count");
    rep.add(rep.extra, "serve.scheduler.queue_high_water",
            static_cast<double>(st.queue_high_water), "count");
    rep.add(rep.extra, "serve.scheduler.rejected_overload",
            static_cast<double>(st.rejected_overload), "count");

    if (ctx.trace) {
        const ResolvedPoint rp = resolvePoint(primed.at(1), {});
        li.twins.push_back({rp.config, rp.proto, {}, 0.0});
        li.probe_config = rp.config;
        li.probe_proto = rp.proto;
        li.probe_spec = primed.at(1);
    }
    return rep;
}

} // namespace thermctl::perf
