#include "sim/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/flags.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/mutex.hh"
#include "common/parallel.hh"
#include "common/serialize.hh"
#include "fault/fault.hh"

namespace thermctl
{

namespace
{

/**
 * Code-version salt folded into every cache digest. Bump whenever a
 * change alters simulation *behaviour* without altering any SimConfig
 * field (new microarchitectural detail, changed constants, fixed bug):
 * stale entries then miss instead of serving wrong results.
 */
constexpr std::string_view kSweepCacheSalt = "thermctl-sweep-v4";

/** Cache entry magic ("ThermCtl Run, format 2"). */
constexpr std::string_view kCacheMagic = "TCRUN002";

// The digest must cover every configuration field: a field the hash
// misses is a field whose change silently serves stale cached results.
// The name-level contract is enforced by thermctl_analyze's
// field-coverage pass (DESIGN.md §16): a field absent from its feed()
// overload fails --ci. These size guards remain as a backstop for type
// changes that keep field names (and as a reminder to bump
// kSweepCacheSalt when behaviour changed).
#if defined(__x86_64__) && defined(__linux__)
static_assert(sizeof(InstructionMix) == 72
                  && sizeof(WorkloadPhase) == 48
                  && sizeof(WorkloadProfile) == 272,
              "workload config changed: update feed() in sweep.cc");
static_assert(sizeof(HybridPredictorConfig) == 56
                  && sizeof(CpuConfig) == 136,
              "cpu config changed: update feed() in sweep.cc");
static_assert(sizeof(CacheConfig) == 56 && sizeof(TlbConfig) == 12
                  && sizeof(MemoryHierarchyConfig) == 184,
              "memory config changed: update feed() in sweep.cc");
static_assert(sizeof(Technology) == 96 && sizeof(PowerConfig) == 264,
              "power config changed: update feed() in sweep.cc");
static_assert(sizeof(FloorplanConfig) == 144
                  && sizeof(ThermalConfig) == 16,
              "thermal config changed: update feed() in sweep.cc");
static_assert(sizeof(SensorConfig) == 64 && sizeof(DtmConfig) == 104,
              "dtm config changed: update feed() in sweep.cc");
static_assert(sizeof(LoopShapingSpec) == 24
                  && sizeof(DtmPolicySettings) == 144,
              "policy settings changed: update feed() in sweep.cc");
static_assert(sizeof(MulticoreConfig) == 48,
              "multicore config changed: update feed() in sweep.cc");
static_assert(sizeof(SimConfig) == 1352,
              "SimConfig changed: update sweepConfigDigest()");
#endif

void
feed(HashStream &h, const InstructionMix &m)
{
    h.f64(m.int_alu).f64(m.int_mult).f64(m.int_div);
    h.f64(m.fp_alu).f64(m.fp_mult).f64(m.fp_div);
    h.f64(m.load).f64(m.store).f64(m.branch);
}

void
feed(HashStream &h, const WorkloadPhase &p)
{
    h.u64(p.length_insts).f64(p.fp_scale).f64(p.mem_scale);
    h.f64(p.cold_frac_override).f64(p.dep_p_override);
    h.f64(p.random_branch_override);
}

void
feed(HashStream &h, const WorkloadProfile &w)
{
    h.str(w.name).u64(static_cast<std::uint64_t>(w.category));
    feed(h, w.mix);
    h.f64(w.dep_p).f64(w.second_src_prob);
    h.f64(w.frac_loop_branches).f64(w.frac_biased_branches);
    h.f64(w.frac_patterned_branches).f64(w.frac_random_branches);
    h.f64(w.mean_trip_count).f64(w.call_prob);
    h.f64(w.warm_frac).f64(w.cold_frac);
    h.u64(w.hot_bytes).u64(w.warm_bytes).u64(w.cold_bytes);
    h.f64(w.stride_frac);
    h.u64(w.num_blocks).f64(w.mean_block_len);
    h.u64(w.phases.size());
    for (const auto &phase : w.phases)
        feed(h, phase);
    h.u64(w.seed);
}

void
feed(HashStream &h, const CpuConfig &c)
{
    h.u64(c.fetch_width).u64(c.dispatch_width).u64(c.commit_width);
    h.u64(c.int_issue_width).u64(c.fp_issue_width);
    h.u64(c.window_size).u64(c.lsq_size);
    h.u64(c.frontend_capacity).u64(c.frontend_depth);
    h.u64(c.num_int_alu).u64(c.num_int_mult);
    h.u64(c.num_fp_alu).u64(c.num_fp_mult).u64(c.num_mem_ports);
    h.u64(c.lat_int_alu).u64(c.lat_int_mult).u64(c.lat_int_div);
    h.u64(c.lat_fp_alu).u64(c.lat_fp_mult).u64(c.lat_fp_div);
    h.u64(c.bpred.bimod_entries).u64(c.bpred.gag_entries);
    h.u64(c.bpred.gag_history_bits).u64(c.bpred.chooser_entries);
    h.u64(c.bpred.btb_entries).u64(c.bpred.btb_ways);
    h.u64(c.bpred.ras_entries);
}

void
feed(HashStream &h, const CacheConfig &c)
{
    h.str(c.name).u64(c.size_bytes).u64(c.assoc);
    h.u64(c.block_bytes).u64(c.hit_latency);
}

void
feed(HashStream &h, const MemoryHierarchyConfig &m)
{
    feed(h, m.l1i);
    feed(h, m.l1d);
    feed(h, m.l2);
    h.u64(m.tlb.entries).u64(m.tlb.page_bytes).u64(m.tlb.miss_penalty);
    h.u64(m.memory_latency);
}

void
feed(HashStream &h, const PowerConfig &p)
{
    const Technology &t = p.tech;
    h.f64(t.feature_um).f64(t.vdd).f64(t.freq_hz);
    h.f64(t.c_gate_ff).f64(t.c_drain_ff).f64(t.c_wire_ff_per_um);
    h.f64(t.cell_width_um).f64(t.cell_height_um).f64(t.port_pitch_um);
    h.f64(t.sense_amp_energy_fj).f64(t.bitline_swing_v);
    h.f64(t.array_energy_scale);
    h.u64(static_cast<std::uint64_t>(p.gating)).f64(p.idle_fraction);
    h.f64(p.e_int_alu_op).f64(p.e_int_mult_op);
    h.f64(p.e_fp_alu_op).f64(p.e_fp_mult_op);
    h.f64(p.rest_base_watts).f64(p.e_decode_op);
    h.f64(p.voltage_scaling_alpha);
    h.b(p.leakage_enabled).f64(p.leakage_fraction_at_ref);
    h.f64(p.leakage_ref_temp).f64(p.leakage_doubling_c);
    h.f64s(p.structure_scale);
}

void
feed(HashStream &h, const FloorplanConfig &f)
{
    h.f64(f.die_thickness_m).f64(f.active_layer_m).f64(f.reference_temp);
    h.f64s(f.k_spread);
    h.f64(f.chip_resistance).f64(f.chip_capacitance).f64(f.ambient);
    h.str(f.flp_path);
}

void
feed(HashStream &h, const DtmConfig &d)
{
    h.u64(d.sample_interval);
    h.u64(static_cast<std::uint64_t>(d.engagement));
    h.u64(d.interrupt_delay).u64(d.resync_cycles).u64(d.toggle_levels);
    h.f64(d.sensor.offset).f64(d.sensor.noise_sigma);
    h.f64(d.sensor.quantum).u64(d.sensor.seed);
    h.u64(static_cast<std::uint64_t>(d.sensor.fault_mode));
    h.u64(d.sensor.fault_start).f64(d.sensor.dropout_p);
    h.f64(d.sensor.fault_value);
}

void
feed(HashStream &h, const DtmPolicySettings &s)
{
    h.u64(static_cast<std::uint64_t>(s.kind));
    h.f64(s.nonct_trigger).u64(s.policy_delay);
    h.f64(s.p_setpoint).f64(s.p_range_low);
    h.f64(s.ct_setpoint).f64(s.ct_range_low);
    h.f64(s.shaping.phase_margin_deg).f64(s.shaping.crossover_fraction);
    h.f64(s.shaping.max_crossover_tau_mult);
    h.u64(s.throttle_width).u64(s.spec_max_branches);
    h.f64(s.vf_scale).u64(s.vf_policy_delay);
    h.f64(s.hierarchy_backup_trigger);
    h.b(s.failsafe).u64(s.failsafe_stuck_samples);
    h.f64(s.failsafe_min_plausible).f64(s.failsafe_max_plausible);
}

void
feed(HashStream &h, const MulticoreConfig &m)
{
    h.u64(m.num_cores).f64(m.coupling_resistance);
    h.f64(m.chip_budget);
    h.u64(static_cast<std::uint64_t>(m.budget_policy));
    h.u64(m.budget_epoch_samples);
    h.u64(m.dvfs_levels).f64(m.dvfs_min_scale);
}

/** @return true when the bytes form a valid entry for `digest`. */
bool
validCacheBytes(const std::string &data, std::uint64_t digest,
                RunResult &result)
{
    if (data.size() < kCacheMagic.size() + 8)
        return false;
    if (std::string_view(data).substr(0, kCacheMagic.size())
        != kCacheMagic) {
        return false;
    }
    ByteReader r(
        std::string_view(data).substr(kCacheMagic.size()));
    if (r.u64() != digest || !r.ok())
        return false;
    return deserializeRunResult(
               std::string_view(data).substr(kCacheMagic.size() + 8),
               result)
           == RunResultDecodeStatus::Ok;
}

/**
 * Move a corrupt entry aside (path -> path.corrupt) so the next lookup
 * is an honest cold miss instead of re-validating — and re-failing on —
 * the same torn bytes forever. Warned once per process; the .corrupt
 * file is kept for post-mortem and swept by sweepCacheRecover().
 */
void
quarantineCacheEntry(const std::filesystem::path &path)
{
    static std::atomic<bool> warned{false};
    std::filesystem::path aside = path;
    aside += ".corrupt";
    std::error_code ec;
    std::filesystem::rename(path, aside, ec);
    if (ec)
        std::filesystem::remove(path, ec);
    if (!warned.exchange(true)) {
        warn("sweep: quarantined corrupt cache entry ", path.string(),
             " (cache self-heals; entry re-simulates once)");
    }
}

/** Inverse of hashHex: 16 lowercase hex digits -> u64. */
bool
parseHexDigest(const std::string &text, std::uint64_t &out)
{
    if (text.size() != 16)
        return false;
    std::uint64_t value = 0;
    for (char c : text) {
        int nibble;
        if (c >= '0' && c <= '9')
            nibble = c - '0';
        else if (c >= 'a' && c <= 'f')
            nibble = c - 'a' + 10;
        else
            return false;
        value = (value << 4) | static_cast<std::uint64_t>(nibble);
    }
    out = value;
    return true;
}

/**
 * @return true and fill `result` when `path` holds a valid entry.
 * A missing file is a plain miss; a present-but-invalid file is
 * quarantined when `heal` is set (the engine's read path) and left
 * untouched otherwise (read-only probes like sweepCacheLookup).
 */
bool
loadCacheEntry(const std::filesystem::path &path, std::uint64_t digest,
               RunResult &result, bool heal = false)
{
    if (THERMCTL_FAULT_POINT("cache.load").abort())
        return false; // as if the entry vanished: a plain miss
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (validCacheBytes(buf.str(), digest, result))
        return true;
    if (heal)
        quarantineCacheEntry(path);
    return false;
}

void
storeCacheEntry(const std::filesystem::path &path, std::uint64_t digest,
                const RunResult &result)
{
    // Write-to-temp + rename keeps concurrent writers (threads of this
    // process or entirely separate bench binaries) from ever exposing a
    // torn entry; the loser of a rename race simply overwrites an
    // identical file.
    static std::atomic<bool> warned{false};
    const auto tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    const auto ticks = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    std::filesystem::path tmp = path;
    tmp += ".tmp." + hashHex(tid ^ ticks);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            if (!warned.exchange(true))
                warn("sweep: cannot write cache entry ", tmp.string(),
                     "; caching continues best-effort");
            return;
        }
        out.write(kCacheMagic.data(),
                  static_cast<std::streamsize>(kCacheMagic.size()));
        ByteWriter w;
        w.u64(digest);
        std::string body = serializeRunResult(result);
        if (THERMCTL_FAULT_POINT("cache.publish").torn()) {
            // Simulate a crash mid-write that still got renamed (e.g.
            // power loss after rename, before data blocks landed): the
            // published entry is truncated and must be caught by the
            // checksum on load, then quarantined.
            body.resize(body.size() / 2);
        }
        out.write(w.buffer().data(),
                  static_cast<std::streamsize>(w.buffer().size()));
        out.write(body.data(), static_cast<std::streamsize>(body.size()));
        if (!out) {
            if (!warned.exchange(true))
                warn("sweep: short write on cache entry ", tmp.string());
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        if (!warned.exchange(true))
            warn("sweep: cannot publish cache entry ", path.string(),
                 " (", ec.message(), ")");
        std::filesystem::remove(tmp, ec);
    }
}

} // namespace

// --------------------------------------------------------------- SweepSpec

std::string
sweepKey(std::string_view workload, std::string_view policy,
         std::string_view variant)
{
    std::string key;
    key.reserve(workload.size() + policy.size() + variant.size() + 2);
    key.append(workload).append("/").append(policy);
    if (!variant.empty())
        key.append("/").append(variant);
    return key;
}

SweepSpec &
SweepSpec::protocol(const RunProtocol &proto)
{
    proto_ = proto;
    return *this;
}

SweepSpec &
SweepSpec::base(const SimConfig &cfg)
{
    base_ = cfg;
    return *this;
}

SweepSpec &
SweepSpec::workload(const WorkloadProfile &profile)
{
    workloads_.push_back(profile);
    return *this;
}

SweepSpec &
SweepSpec::workloads(const std::vector<WorkloadProfile> &profiles)
{
    workloads_.insert(workloads_.end(), profiles.begin(), profiles.end());
    return *this;
}

SweepSpec &
SweepSpec::policy(const DtmPolicySettings &policy, std::string label)
{
    if (label.empty())
        label = dtmPolicyKindName(policy.kind);
    policies_.emplace_back(policy, std::move(label));
    return *this;
}

SweepSpec &
SweepSpec::variant(std::string name,
                   std::function<void(SimConfig &)> apply)
{
    variants_.push_back(SweepVariant{std::move(name), std::move(apply)});
    return *this;
}

std::size_t
SweepSpec::size() const
{
    const std::size_t w = workloads_.empty() ? 1 : workloads_.size();
    const std::size_t p = policies_.empty() ? 1 : policies_.size();
    const std::size_t v = variants_.empty() ? 1 : variants_.size();
    return w * p * v;
}

std::vector<SweepPoint>
SweepSpec::points() const
{
    std::vector<WorkloadProfile> workloads = workloads_;
    if (workloads.empty())
        workloads.push_back(base_.workload);

    std::vector<std::pair<DtmPolicySettings, std::string>> policies =
        policies_;
    if (policies.empty())
        policies.emplace_back(base_.policy,
                              dtmPolicyKindName(base_.policy.kind));

    std::vector<SweepVariant> variants = variants_;
    if (variants.empty())
        variants.push_back(SweepVariant{"", {}});

    std::vector<SweepPoint> points;
    points.reserve(workloads.size() * policies.size() * variants.size());
    std::unordered_map<std::string, std::size_t> seen;

    for (const auto &w : workloads) {
        for (const auto &[policy, label] : policies) {
            for (const auto &v : variants) {
                SweepPoint pt;
                pt.key = sweepKey(w.name, label, v.name);
                pt.index = points.size();
                pt.config = base_;
                if (v.apply)
                    v.apply(pt.config);
                pt.config.workload = w;
                pt.config.policy = policy;
                auto [it, fresh] = seen.emplace(pt.key, pt.index);
                if (!fresh) {
                    fatal("sweep: duplicate grid point key '", pt.key,
                          "' (give distinct policy labels or variant "
                          "names)");
                }
                points.push_back(std::move(pt));
            }
        }
    }
    return points;
}

// ------------------------------------------------------------ SweepResults

std::vector<RunResult>
SweepResults::results() const
{
    std::vector<RunResult> out;
    out.reserve(outcomes_.size());
    for (const auto &oc : outcomes_)
        out.push_back(oc.result);
    return out;
}

const RunResult *
SweepResults::find(std::string_view key) const
{
    for (const auto &oc : outcomes_)
        if (oc.point.key == key)
            return &oc.result;
    return nullptr;
}

const RunResult &
SweepResults::at(std::string_view key) const
{
    const RunResult *r = find(key);
    if (!r)
        fatal("sweep: no grid point with key '", std::string(key), "'");
    return *r;
}

const RunResult &
SweepResults::at(std::string_view workload, std::string_view policy,
                 std::string_view variant) const
{
    return at(sweepKey(workload, policy, variant));
}

// ------------------------------------------------------------- SweepEngine

SweepEngine::SweepEngine(const SweepOptions &opts) : opts_(opts) {}

void
SweepEngine::setTelemetry(SweepTelemetry telemetry)
{
    telemetry_ = std::move(telemetry);
}

unsigned
SweepEngine::defaultJobs()
{
    if (const char *env = std::getenv("THERMCTL_JOBS")) {
        unsigned v = 0;
        try {
            v = parseFlag<unsigned>("THERMCTL_JOBS", env);
        } catch (const FatalError &) {
            v = 0; // warned below
        }
        if (v >= 1)
            return v;
        warn("sweep: ignoring invalid THERMCTL_JOBS='", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::string
SweepEngine::defaultCacheDir()
{
    if (const char *env = std::getenv("THERMCTL_CACHE_DIR"))
        return env;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME"))
        return (std::filesystem::path(xdg) / "thermctl").string();
    if (const char *home = std::getenv("HOME")) {
        return (std::filesystem::path(home) / ".cache" / "thermctl")
            .string();
    }
    return (std::filesystem::temp_directory_path() / "thermctl-cache")
        .string();
}

SweepOptions
SweepEngine::defaultOptions()
{
    const char *no_cache = std::getenv("THERMCTL_NO_CACHE");
    SweepOptions opts;
    opts.use_cache = !(no_cache && no_cache[0] == '1');
    return opts;
}

bool
parseSweepFlag(const std::string &arg,
               const std::function<std::string()> &next,
               SweepOptions &opts)
{
    if (arg == "--jobs") {
        opts.jobs = parseFlag<unsigned>(arg, next());
        if (opts.jobs < 1)
            fatal("--jobs must be >= 1");
    } else if (arg == "--cache-dir") {
        opts.cache_dir = next();
    } else if (arg == "--no-cache") {
        opts.use_cache = false;
    } else {
        return false;
    }
    return true;
}

unsigned
SweepEngine::effectiveJobs(std::size_t grid_size) const
{
    const unsigned jobs = opts_.jobs ? opts_.jobs : defaultJobs();
    if (grid_size == 0)
        return 1;
    return static_cast<unsigned>(
        std::min<std::size_t>(jobs, grid_size));
}

SweepResults
SweepEngine::run(const SweepSpec &spec) const
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();

    std::vector<SweepPoint> points = spec.points();
    const RunProtocol proto = spec.runProtocol();
    const std::size_t n = points.size();

    SweepResults out;
    out.outcomes_.resize(n);
    if (n == 0)
        return out;

    std::filesystem::path cache_root;
    bool caching = opts_.use_cache;
    if (caching) {
        cache_root = opts_.cache_dir.empty() ? defaultCacheDir()
                                             : opts_.cache_dir;
        std::error_code ec;
        std::filesystem::create_directories(cache_root, ec);
        if (ec) {
            warn("sweep: cannot create cache directory '",
                 cache_root.string(), "' (", ec.message(),
                 "); caching disabled for this run");
            caching = false;
        }
    }

    Mutex mutex; // serializes telemetry
    parallelFor(
        n,
        [&](std::size_t i) {
            SweepPoint &pt = points[i];
            if (telemetry_.on_run_start) {
                MutexLock lock(mutex);
                telemetry_.on_run_start(pt, n);
            }
            const auto p0 = Clock::now();
            SweepOutcome &oc = out.outcomes_[i];
            const std::uint64_t digest = sweepConfigDigest(pt.config, proto);
            std::filesystem::path entry;
            bool hit = false;
            if (caching) {
                entry = cache_root / (hashHex(digest) + ".run");
                hit = loadCacheEntry(entry, digest, oc.result,
                                     /*heal=*/true);
            }
            if (!hit) {
                ExperimentRunner runner(proto);
                oc.result = runner.runOne(pt.config.workload,
                                          pt.config.policy, pt.config);
                if (caching)
                    storeCacheEntry(entry, digest, oc.result);
            }
            oc.cache_hit = hit;
            oc.wall_seconds =
                std::chrono::duration<double>(Clock::now() - p0).count();
            oc.point = std::move(pt);
            if (telemetry_.on_run_done) {
                MutexLock lock(mutex);
                telemetry_.on_run_done(oc, n);
            }
        },
        effectiveJobs(n));

    for (const auto &oc : out.outcomes_)
        out.cache_hits_ += oc.cache_hit ? 1 : 0;
    out.wall_seconds_ =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
}

// --------------------------------------------------- digest + serialization

std::uint64_t
sweepConfigDigest(const SimConfig &cfg, const RunProtocol &proto)
{
    HashStream h;
    h.str(kSweepCacheSalt);
    h.u64(kNumStructures);
    h.u64(proto.warmup_cycles).u64(proto.measure_cycles);
    feed(h, cfg.workload);
    h.str(cfg.trace_path).b(cfg.trace_loop);
    feed(h, cfg.cpu);
    feed(h, cfg.memory);
    feed(h, cfg.power);
    feed(h, cfg.floorplan);
    h.f64(cfg.thermal.t_base).f64(cfg.thermal.t_emergency);
    feed(h, cfg.dtm);
    feed(h, cfg.policy);
    feed(h, cfg.multicore);
    return h.digest();
}

std::string
serializeRunResult(const RunResult &result)
{
    ByteWriter w;
    w.u8(kRunResultFormatVersion);
    w.str(result.benchmark);
    w.str(result.policy);
    w.u8(static_cast<std::uint8_t>(result.category));
    w.f64(result.ipc);
    w.f64(result.raw_ipc);
    w.f64(result.avg_power);
    w.f64(result.emergency_fraction);
    w.f64(result.stress_fraction);
    w.f64(result.max_temperature);
    w.f64(result.mean_duty);
    w.u64(result.structures.size());
    for (const auto &s : result.structures) {
        w.f64(s.avg_temp);
        w.f64(s.max_temp);
        w.f64(s.emergency_fraction);
        w.f64(s.stress_fraction);
        w.f64(s.avg_power);
    }
    w.u64(hashString(w.buffer()));
    return w.take();
}

RunResultDecodeStatus
deserializeRunResult(std::string_view buffer, RunResult &out)
{
    // Verify the trailing checksum before decoding any field: a flipped
    // bit anywhere yields Malformed, never a plausible wrong result.
    if (buffer.size() < 1 + 8)
        return RunResultDecodeStatus::Malformed;
    const std::string_view body = buffer.substr(0, buffer.size() - 8);
    ByteReader check(buffer.substr(buffer.size() - 8));
    if (check.u64() != hashString(body))
        return RunResultDecodeStatus::Malformed;
    ByteReader r(body);
    if (r.u8() != kRunResultFormatVersion)
        return r.ok() ? RunResultDecodeStatus::BadVersion
                      : RunResultDecodeStatus::Malformed;
    out.benchmark = r.str();
    out.policy = r.str();
    const std::uint8_t category = r.u8();
    if (category > static_cast<std::uint8_t>(ThermalCategory::Low))
        return RunResultDecodeStatus::Malformed;
    out.category = static_cast<ThermalCategory>(category);
    out.ipc = r.f64();
    out.raw_ipc = r.f64();
    out.avg_power = r.f64();
    out.emergency_fraction = r.f64();
    out.stress_fraction = r.f64();
    out.max_temperature = r.f64();
    out.mean_duty = r.f64();
    if (r.u64() != out.structures.size())
        return RunResultDecodeStatus::Malformed;
    for (auto &s : out.structures) {
        s.avg_temp = r.f64();
        s.max_temp = r.f64();
        s.emergency_fraction = r.f64();
        s.stress_fraction = r.f64();
        s.avg_power = r.f64();
    }
    return r.atEnd() ? RunResultDecodeStatus::Ok
                     : RunResultDecodeStatus::Malformed;
}

bool
sweepCacheLookup(const std::string &cache_dir, std::uint64_t digest,
                 RunResult &out)
{
    const std::filesystem::path entry =
        std::filesystem::path(cache_dir) / (hashHex(digest) + ".run");
    return loadCacheEntry(entry, digest, out);
}

CacheRecoveryStats
sweepCacheRecover(const std::string &cache_dir)
{
    CacheRecoveryStats stats;
    const std::filesystem::path root(cache_dir);
    std::error_code ec;
    if (!std::filesystem::is_directory(root, ec))
        return stats;
    for (const auto &it :
         std::filesystem::directory_iterator(root, ec)) {
        const std::filesystem::path &path = it.path();
        const std::string name = path.filename().string();
        // Leftover temp files are crashes mid-write; never valid.
        if (name.find(".tmp.") != std::string::npos) {
            std::filesystem::remove(path, ec);
            stats.tmp_removed++;
            continue;
        }
        if (path.extension() != ".run")
            continue;
        stats.scanned++;
        // The digest is the entry's own filename (content addressing),
        // so an entry can be validated without knowing its config.
        std::uint64_t digest = 0;
        if (!parseHexDigest(path.stem().string(), digest)) {
            quarantineCacheEntry(path);
            stats.quarantined++;
            continue;
        }
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        if (in)
            buf << in.rdbuf();
        RunResult ignored;
        if (!in || !validCacheBytes(buf.str(), digest, ignored)) {
            quarantineCacheEntry(path);
            stats.quarantined++;
        }
    }
    return stats;
}

} // namespace thermctl
