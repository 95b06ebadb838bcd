#include "sim/simulator.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "check/invariants.hh"
#include "common/logging.hh"
#include "common/parallel.hh"

namespace thermctl
{

namespace
{

/** Micro-ops drawn ahead of the core (a power of two). */
constexpr std::size_t kOpRing = 1024;
/** Ops drawn per turn of the producing task. */
constexpr std::size_t kOpBatch = 64;
/** Cycles the model may trail the core by (a power of two). */
constexpr std::size_t kRecordRing = 1024;
/**
 * The core publishes its progress (ops taken, cycles recorded) to the
 * side stage once per this many, so the two threads do not trade the
 * counters' cache lines every op and every cycle.
 */
constexpr std::size_t kPublishEvery = 32;
/**
 * An idle side stage sleeps this long per round while the core is more
 * than kNapCycles from its next barrier (a few naps' worth), and yields
 * otherwise: it does not burn a CPU while waiting for work, and it is
 * awake when the core waits for the model.
 */
constexpr auto kNap = std::chrono::microseconds(20);
constexpr Cycle kNapCycles = 384;

/** A wait: spin briefly, then yield the CPU on every further round. */
class Backoff
{
  public:
    /** @return true on the first round that yields. */
    bool
    pause()
    {
        if (rounds_ < kSpins) {
            ++rounds_;
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
            return false;
        }
        std::this_thread::yield();
        if (rounds_ > kSpins)
            return false;
        ++rounds_;
        return true;
    }

  private:
    static constexpr unsigned kSpins = 64;
    unsigned rounds_ = 0;
};

/** A side task, owned by whichever thread is running it. */
class Ownership
{
  public:
    bool
    tryAcquire()
    {
        return !owned_.load(std::memory_order_relaxed)
            && !owned_.exchange(true, std::memory_order_acquire);
    }

    void release() { owned_.store(false, std::memory_order_release); }

  private:
    std::atomic<bool> owned_{false};
};

/** Releases an owned task on scope exit, exceptions included. */
class Held
{
  public:
    explicit Held(Ownership &task) : task_(task) {}
    Held(const Held &) = delete;
    Held &operator=(const Held &) = delete;
    ~Held() { task_.release(); }

  private:
    Ownership &task_;
};

/**
 * The core's instruction stream: a ring of committed-path ops drawn
 * ahead from the real source. One producer at a time (whoever owns the
 * producing task) fills it; the core is its only consumer. The source's
 * synthesizeAt() is told, through take(), which op the core last took,
 * so wrong-path ops are drawn exactly as without the ring.
 */
class OpQueue : public InstructionStream
{
  public:
    explicit OpQueue(InstructionStream &source) : source_(source) {}

    MicroOp
    next() override
    {
        const std::uint64_t t = taken_;
        if (t == head_seen_) {
            head_seen_ = head_.load(std::memory_order_acquire);
            if (t == head_seen_ && !draw_ahead_) {
                // Only the core draws: take the op straight from the
                // source.
                std::uint32_t tag = 0;
                const MicroOp op = source_.nextAhead(tag);
                noteTaken(tag);
                return op;
            }
            if (t == head_seen_ && !await(t)) {
                // The source is exhausted: its own next() reports the
                // end exactly as the core would have met it.
                Held held(producing_);
                return source_.next();
            }
        }
        const Slot &slot = slots_[t % kOpRing];
        const MicroOp op = slot.op;
        noteTaken(slot.tag);
        taken_ = t + 1;
        if (taken_ % kPublishEvery == 0)
            tail_.store(taken_, std::memory_order_release);
        return op;
    }

    MicroOp
    synthesizeAt(Addr pc) override
    {
        return source_.synthesizeAt(pc);
    }

    /**
     * Whether ops are drawn ahead into the ring (Simulator::run) or, once
     * it is empty, straight from the source (Simulator::tick).
     */
    void setDrawAhead(bool on) { draw_ahead_ = on; }

    /**
     * Draw one batch ahead if the ring has room for it and no other
     * thread is producing. @return whether any op was drawn.
     */
    bool
    produceAhead()
    {
        const std::uint64_t used = head_.load(std::memory_order_relaxed)
            - tail_.load(std::memory_order_acquire);
        if (kOpRing - used < kOpBatch || !producing_.tryAcquire())
            return false;
        Held held(producing_);
        return fill() > 0;
    }

  private:
    struct Slot
    {
        MicroOp op;
        std::uint32_t tag = 0;
    };

    /** The core took an op tagged `tag`: tell the source if it changed. */
    void
    noteTaken(std::uint32_t tag)
    {
        if (tag != taken_tag_) {
            taken_tag_ = tag;
            source_.take(tag);
        }
    }

    /**
     * Wait until slot t holds an op, drawing ops here while no other
     * thread is. @return false, still owning the producing task, when
     * the source is exhausted.
     */
    bool
    await(std::uint64_t t)
    {
        Backoff backoff;
        for (;;) {
            head_seen_ = head_.load(std::memory_order_acquire);
            if (head_seen_ != t)
                return true;
            if (!producing_.tryAcquire()) {
                backoff.pause();
                continue;
            }
            // Another producer may have filled the ring since the load
            // above; only with the ring empty does fill() == 0 mean the
            // source is exhausted.
            if (head_.load(std::memory_order_relaxed) == t && fill() == 0)
                return false;
            producing_.release();
        }
    }

    /**
     * Draw up to one batch into the free slots; the caller owns the
     * producing task. @return the number of ops drawn.
     */
    std::size_t
    fill()
    {
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        const std::uint64_t room =
            kOpRing - (h - tail_.load(std::memory_order_acquire));
        const std::uint64_t want = std::min<std::uint64_t>(room, kOpBatch);
        std::uint64_t k = 0;
        for (; k < want && !source_.done(); ++k) {
            Slot &slot = slots_[(h + k) % kOpRing];
            slot.op = source_.nextAhead(slot.tag);
        }
        head_.store(h + k, std::memory_order_release);
        return k;
    }

    InstructionStream &source_;
    alignas(64) Ownership producing_;
    alignas(64) std::array<Slot, kOpRing> slots_{};
    /** Ops drawn; written by the producing task. */
    alignas(64) std::atomic<std::uint64_t> head_{0};
    /**
     * Ops taken as far as the producer knows: trails taken_ by less
     * than kPublishEvery, which only shrinks the room it sees.
     */
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    // Core-only state.
    alignas(64) std::uint64_t taken_ = 0;
    std::uint64_t head_seen_ = 0;
    std::uint32_t taken_tag_ = 0;
    bool draw_ahead_ = false;
};

/** What the core stage hands the model for one cycle. */
struct CycleRecord
{
    CpuActivity activity;
    double freq_scale = 1.0; ///< the clock scale in force
};

/** The side stage failed; the core stage stops. */
struct SideStageFailed
{
};

} // namespace

struct Simulator::Pipeline
{
    explicit Pipeline(InstructionStream &source) : ops(source) {}

    OpQueue ops;
    alignas(64) std::array<CycleRecord, kRecordRing> records{};
    /** Cycles recorded; written by the core stage. */
    alignas(64) std::atomic<Cycle> recorded{0};
    /** Where the core stage last ran: the side stage keeps off it. */
    std::atomic<int> core_cpu{-1};
    std::atomic<bool> core_done{false};
    /** Where run() stops: the last barrier. */
    Cycle end = 0;
    /** Cycles modelled; written by the modelling task. */
    alignas(64) std::atomic<Cycle> modelled{0};
    Ownership modelling;
    std::atomic<bool> side_failed{false};
};

std::unique_ptr<InstructionStream>
makeInstructionStream(const SimConfig &cfg, std::size_t core_index)
{
    if (!cfg.trace_path.empty()) {
        return std::make_unique<TraceReader>(cfg.trace_path,
                                             cfg.trace_loop);
    }
    WorkloadProfile profile = cfg.workload;
    profile.seed += core_index;
    return std::make_unique<SyntheticWorkload>(profile);
}

Simulator::Simulator(const SimConfig &cfg)
    : cfg_(cfg),
      workload_(makeInstructionStream(cfg)),
      pipe_(std::make_unique<Pipeline>(*workload_)),
      memory_(cfg.memory),
      core_(cfg.cpu, pipe_->ops, memory_),
      power_(cfg.power, cfg.cpu, cfg.memory),
      floorplan_(cfg.floorplan),
      plant_(deriveDtmPlant(floorplan_, power_, cfg.dtm,
                            cfg.power.tech.cycleSeconds())),
      thermal_(floorplan_, cfg.thermal, cfg.power.tech.cycleSeconds())
{
    dtm_ = std::make_unique<DtmManager>(
        cfg.dtm, cfg.thermal,
        makeDtmPolicy(cfg.policy, plant_, cfg.dtm,
                      cfg.power.tech.cycleSeconds()));
}

Simulator::~Simulator() = default;

void
Simulator::applyCommand()
{
    // A frequency change stalls the pipeline while the clock
    // resynchronizes (paper Section 2.1).
    const DtmCommand &cmd = dtm_->command();
    if (cmd.freq_scale != freq_scale_) {
        freq_scale_ = cmd.freq_scale;
        resync_until_ = now_ + cfg_.dtm.resync_cycles;
    }
    core_.setFetchWidthLimit(cmd.width_limit);
    core_.setSpeculationLimit(cmd.spec_limit);
    core_.setFetchEnabled(fetch_allowed_ && now_ >= resync_until_);
}

void
Simulator::model(const CpuActivity &activity, double freq_scale,
                 Cycle cycle)
{
    last_power_ = power_.cyclePower(activity);
    double dt_mult = 1.0;
    double v_ratio = 1.0;
    if (freq_scale < 1.0) {
        // Scaled clock: less switching energy per second (s * (V/V0)^2)
        // and a longer wall-clock duration per simulated cycle (1/s).
        const double alpha = cfg_.power.voltage_scaling_alpha;
        v_ratio = alpha + (1.0 - alpha) * freq_scale;
        const double p_scale = freq_scale * v_ratio * v_ratio;
        for (double &w : last_power_.value)
            w *= p_scale;
        dt_mult = 1.0 / freq_scale;
    }
    if (cfg_.power.leakage_enabled) {
        // Static power: temperature-dependent, frequency-independent,
        // scaling with the supply voltage (~V^2 in this model).
        const PowerVector leak =
            power_.leakagePower(thermal_.temperatures().value);
        for (std::size_t i = 0; i < kNumStructures; ++i)
            last_power_.value[i] += leak.value[i] * v_ratio * v_ratio;
    }
    THERMCTL_INVARIANT(check::verifyFinite(last_power_,
                                           "Simulator::tick"));
    if (dt_mult != 1.0)
        thermal_.stepScaled(last_power_, dt_mult);
    else
        thermal_.step(last_power_);
    measured_wall_seconds_ +=
        dt_mult * cfg_.power.tech.cycleSeconds();

    dtm_->observe(thermal_.temperatures(), cycle);

    // ------------------------------------------------------- metrics
    ++stats_.cycles;
    const auto &temps = thermal_.temperatures();
    const Celsius t_emerg = cfg_.thermal.t_emergency;
    const Celsius t_stress = cfg_.thermal.stressLevel();
    for (std::size_t i = 0; i < kNumStructures; ++i) {
        stats_.power_sum.value[i] += last_power_.value[i];
        auto &s = stats_.structures[i];
        const Celsius t = temps.value[i];
        s.temp_sum += t;
        s.temp_max = std::max(s.temp_max, t);
        if (t > t_emerg)
            ++s.emergency_cycles;
        if (t > t_stress)
            ++s.stress_cycles;
    }
}

void
Simulator::tick()
{
    applyCommand();
    core_.tick();
    model(core_.activity(), freq_scale_, now_);
    fetch_allowed_ = dtm_->actuate(now_);

    ++now_;
    if (probe_interval_ && now_ % probe_interval_ == 0)
        probe_(*this, now_);
}

void
Simulator::run(std::uint64_t n)
{
    if (n == 0)
        return;
    Pipeline &p = *pipe_;
    p.recorded.store(now_, std::memory_order_relaxed);
    p.modelled.store(now_, std::memory_order_relaxed);
    p.core_done.store(false, std::memory_order_relaxed);
    p.side_failed.store(false, std::memory_order_relaxed);
    p.core_cpu.store(currentCpu(), std::memory_order_relaxed);
    p.ops.setDrawAhead(true);
    const Cycle end = now_ + n;
    p.end = end;
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> core_claimed{false};
    parallelFor(2, [&](std::size_t) {
        // The calling thread runs the core stage, whichever index it
        // claims first; the other index is the side stage.
        if (std::this_thread::get_id() != caller
            || core_claimed.exchange(true)) {
            sideStage();
            return;
        }
        try {
            coreStage(end);
        } catch (const SideStageFailed &) {
            // parallelFor rethrows the side stage's own error.
        }
    });
    p.ops.setDrawAhead(false);
}

void
Simulator::modelRecorded()
{
    Pipeline &p = *pipe_;
    const Cycle recorded = p.recorded.load(std::memory_order_acquire);
    for (Cycle c = p.modelled.load(std::memory_order_relaxed);
         c < recorded; ++c) {
        const CycleRecord &rec = p.records[c % kRecordRing];
        model(rec.activity, rec.freq_scale, c);
        p.modelled.store(c + 1, std::memory_order_release);
    }
}

Cycle
Simulator::awaitModel(Cycle target)
{
    Pipeline &p = *pipe_;
    Backoff backoff;
    for (;;) {
        const Cycle modelled = p.modelled.load(std::memory_order_acquire);
        if (modelled >= target)
            return modelled;
        if (p.side_failed.load(std::memory_order_acquire))
            throw SideStageFailed{};
        if (p.modelling.tryAcquire()) {
            Held held(p.modelling);
            modelRecorded();
        } else {
            backoff.pause();
        }
    }
}

void
Simulator::coreStage(Cycle end)
{
    Pipeline &p = *pipe_;
    struct Done
    {
        std::atomic<bool> &flag;
        ~Done() { flag.store(true, std::memory_order_release); }
    } done{p.core_done};

    // Only a sample reads temperature, and only a probe reads the whole
    // simulator: the model catches up at those cycles, and otherwise
    // trails the core by up to kRecordRing cycles.
    const Cycle interval = dtm_->config().sample_interval;
    Cycle next_sample = (now_ + interval - 1) / interval * interval;
    Cycle next_probe = probe_interval_
        ? (now_ / probe_interval_ + 1) * probe_interval_
        : end + 1;
    Cycle free_until = now_ + kRecordRing;
    for (Cycle c = now_; c < end; ++c) {
        applyCommand();
        core_.tick();

        if (c == free_until)
            free_until = awaitModel(c + 1 - kRecordRing) + kRecordRing;
        CycleRecord &rec = p.records[c % kRecordRing];
        rec.activity = core_.activity();
        rec.freq_scale = freq_scale_;
        if ((c + 1) % kPublishEvery == 0)
            p.recorded.store(c + 1, std::memory_order_release);

        if (c == next_sample) {
            p.recorded.store(c + 1, std::memory_order_release);
            awaitModel(c + 1);
            next_sample += interval;
            p.core_cpu.store(currentCpu(), std::memory_order_relaxed);
        }
        fetch_allowed_ = dtm_->actuate(c);

        now_ = c + 1;
        if (now_ == next_probe) {
            p.recorded.store(now_, std::memory_order_release);
            awaitModel(now_);
            probe_(*this, now_);
            next_probe += probe_interval_;
        }
    }
    p.recorded.store(end, std::memory_order_release);
    awaitModel(end);
}

void
Simulator::sideStage()
{
    Pipeline &p = *pipe_;
    // With no free helper this index runs on the caller after the core
    // stage, and nothing is left to do.
    if (p.core_done.load(std::memory_order_acquire))
        return;
    try {
        // Working beside the core pays only on another CPU; checked again
        // whenever the side stage runs out of work near a barrier.
        moveOffCpu(p.core_cpu.load(std::memory_order_relaxed));
        const Cycle interval = dtm_->config().sample_interval;
        Backoff backoff;
        while (!p.core_done.load(std::memory_order_acquire)) {
            bool worked = false;
            if (p.recorded.load(std::memory_order_acquire)
                    > p.modelled.load(std::memory_order_relaxed)
                && p.modelling.tryAcquire()) {
                Held held(p.modelling);
                modelRecorded();
                worked = true;
            }
            worked = p.ops.produceAhead() || worked;
            if (worked) {
                backoff = Backoff{};
                continue;
            }
            const Cycle seen = p.recorded.load(std::memory_order_relaxed);
            const Cycle barrier = std::min(
                p.end, (seen + interval - 1) / interval * interval);
            if (barrier - seen > kNapCycles)
                std::this_thread::sleep_for(kNap);
            else if (backoff.pause())
                moveOffCpu(p.core_cpu.load(std::memory_order_relaxed));
        }
    } catch (...) {
        p.side_failed.store(true, std::memory_order_release);
        throw;
    }
}

void
Simulator::warmUp(std::uint64_t cycles)
{
    const std::uint64_t half = cycles / 2;
    run(half);

    // Jump the thermal state to the steady state of the average power
    // observed so far (skipping the multi-RC heating transient), then
    // let the loop settle for the second half.
    PowerVector avg;
    for (std::size_t i = 0; i < kNumStructures; ++i) {
        avg.value[i] = stats_.cycles
            ? stats_.power_sum.value[i]
                  / static_cast<double>(stats_.cycles)
            : 0.0;
    }
    thermal_.warmStart(avg);

    run(cycles - half);
    resetMeasurement();
}

void
Simulator::resetMeasurement()
{
    stats_ = SimulatorStats{};
    core_.resetStats();
    dtm_->resetStats();
    measured_wall_seconds_ = 0.0;
}

double
Simulator::measuredPerformance() const
{
    if (measured_wall_seconds_ <= 0.0)
        return 0.0;
    return static_cast<double>(core_.stats().committed)
        / (measured_wall_seconds_ * cfg_.power.tech.freq_hz);
}

void
Simulator::setDtmPolicy(std::unique_ptr<DtmPolicy> policy)
{
    dtm_ = std::make_unique<DtmManager>(cfg_.dtm, cfg_.thermal,
                                        std::move(policy));
}

void
Simulator::setProbe(Probe probe, Cycle interval)
{
    probe_ = std::move(probe);
    probe_interval_ = probe_ ? interval : 0;
}

} // namespace thermctl
