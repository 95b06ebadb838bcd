/**
 * @file
 * thermctl-serve wire protocol: length-prefixed, versioned binary frames.
 *
 * Every message travels in one frame:
 *
 *   bytes 0..3   magic "TSRV"
 *   byte  4      wire version (kWireVersion)
 *   byte  5      message type (MsgType)
 *   bytes 6..9   payload length, u32 little-endian (<= kMaxFramePayload)
 *   bytes 10..   payload, encoded with ByteWriter (common/serialize.hh)
 *
 * The version byte is checked before the payload is touched: a client
 * speaking a different protocol revision gets a typed VersionMismatch
 * error, never a mis-decoded payload. RunResult values ride inside
 * frames in their own versioned + checksummed format
 * (serializeRunResult, sim/sweep.hh), so result payloads are guarded
 * twice: frame framing here, field-level integrity there.
 *
 * See DESIGN.md §10 ("thermctl-serve") for the protocol contract,
 * scheduler coalescing rules, and overload behaviour.
 */

#ifndef THERMCTL_SERVE_PROTOCOL_HH
#define THERMCTL_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.hh"

namespace thermctl::serve
{

/** Wire protocol revision; bump on any frame or payload layout change. */
inline constexpr std::uint8_t kWireVersion = 4;

/** Frame magic preceding every message. */
inline constexpr std::string_view kFrameMagic = "TSRV";

/** Fixed frame header size: magic + version + type + payload length. */
inline constexpr std::size_t kFrameHeaderBytes = 10;

/** Upper bound on a payload; larger lengths are a framing error. */
inline constexpr std::uint32_t kMaxFramePayload = 8u << 20;

/** Message discriminator (requests < 64 <= replies). */
enum class MsgType : std::uint8_t
{
    RunRequest = 1,        ///< one benchmark x policy point
    SweepRequest = 2,      ///< benchmarks x policies grid
    CacheQueryRequest = 3, ///< is this point cached? (never simulates)
    StatsRequest = 4,      ///< server counters snapshot
    DrainRequest = 5,      ///< graceful shutdown: finish in-flight work
    PingRequest = 6,       ///< lightweight health probe (wire v4)

    RunReply = 65,
    SweepReply = 66,
    CacheQueryReply = 67,
    StatsReply = 68,
    DrainReply = 69,
    ErrorReply = 70,
    PingReply = 71,
};

/** @return true when `t` holds a defined MsgType value. */
[[nodiscard]] bool msgTypeValid(std::uint8_t t);

/** Typed server-side failure causes. */
enum class ServeError : std::uint8_t
{
    None = 0,
    BadRequest = 1,       ///< undecodable payload or unknown names
    VersionMismatch = 2,  ///< frame carried a foreign wire version
    Overloaded = 3,       ///< admission control: request queue full
    DeadlineExceeded = 4, ///< request expired before dispatch
    Draining = 5,         ///< server is shutting down gracefully
    Internal = 6,         ///< simulation raised an unexpected error
    Transport = 7,        ///< client-side: connection failed or broke
    Stalled = 8,          ///< watchdog: batch dispatch stopped progressing
};

/** @return printable error name ("overloaded", ...). */
const char *serveErrorName(ServeError e);

// --------------------------------------------------------------- framing

/** Decoded frame header. */
struct FrameHeader
{
    std::uint8_t version = 0;
    MsgType type = MsgType::ErrorReply;
    std::uint32_t payload_len = 0;
};

/** Frame header validation outcome. */
enum class FrameStatus
{
    Ok,
    BadMagic,   ///< not a thermctl-serve stream
    BadVersion, ///< foreign wire version (reject with VersionMismatch)
    BadType,    ///< unknown message discriminator
    BadLength,  ///< payload length exceeds kMaxFramePayload
};

/** @return one complete frame: header + payload. */
[[nodiscard]] std::string encodeFrame(MsgType type, std::string_view payload);

/**
 * Validate and decode a kFrameHeaderBytes-long header.
 * `out` is unspecified unless Ok (except version, set when readable).
 */
[[nodiscard]] FrameStatus decodeFrameHeader(std::string_view header,
                                            FrameHeader &out);

/**
 * Incremental frame assembly over a byte stream.
 *
 * The event-driven server and the load generator receive bytes in
 * arbitrary chunks (whatever recv() delivers); a FrameAssembler buffers
 * them and hands back complete frames as they materialize. Feeding and
 * extraction are decoupled so a single recv() burst can yield zero,
 * one, or many frames.
 *
 * A header that fails validation poisons the assembler (Bad is sticky):
 * once framing is lost there is no way to resynchronize the stream, so
 * the only safe reaction is to report the reason and close.
 */
class FrameAssembler
{
  public:
    /** Outcome of one extraction attempt. */
    enum class Next
    {
        NeedMore, ///< no complete frame buffered yet
        Frame,    ///< `type`/`payload` hold one complete frame
        Bad,      ///< framing lost (see `why`); sticky
    };

    /** Append raw received bytes. */
    void feed(std::string_view bytes) { buf_.append(bytes); }

    /**
     * Try to extract the next complete frame.
     * On Bad, `why` (when non-null) says what the header failed.
     */
    [[nodiscard]] Next next(MsgType &type, std::string &payload,
                            FrameStatus *why = nullptr);

    /** Bytes buffered but not yet consumed (flow-control input). */
    std::size_t buffered() const { return buf_.size() - pos_; }

  private:
    std::string buf_;
    std::size_t pos_ = 0; ///< consumed prefix of buf_
    bool bad_ = false;
};

// -------------------------------------------------------------- requests

/**
 * One requested simulation point, named the way thermctl_run names it.
 * Zero-valued optional fields keep the server-side config defaults.
 */
struct PointSpec
{
    std::string benchmark = "186.crafty";
    std::string policy = "none";
    std::uint64_t warmup_cycles = 300000;
    std::uint64_t measure_cycles = 1000000;
    double ct_setpoint = 0.0;          ///< 0 = config default
    std::uint64_t sample_interval = 0; ///< 0 = config default
    // Multicore knobs (wire v3). Zero keeps the server-side default.
    std::uint32_t num_cores = 0;  ///< 0 = default (single core)
    double coupling_r = 0.0;      ///< K/W between adjacent cores
    double chip_budget = 0.0;     ///< W; 0 = no budget coordinator
    std::uint8_t budget_policy = 0; ///< BudgetPolicy enumerator value
};

struct RunRequest
{
    PointSpec point;
    std::uint64_t deadline_ms = 0; ///< 0 = no deadline

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     RunRequest &out);
};

/**
 * Cartesian benchmarks x policies grid under shared knobs. Like
 * RunRequest it carries one PointSpec; each cell takes its knobs and
 * overwrites its benchmark and policy (the wire carries only the knobs).
 */
struct SweepRequest
{
    std::vector<std::string> benchmarks;
    std::vector<std::string> policies;
    PointSpec point;
    std::uint64_t deadline_ms = 0;

    /** @return the grid's cells: benchmarks outer, policies inner. */
    [[nodiscard]] std::vector<PointSpec> points() const;

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     SweepRequest &out);
};

struct CacheQueryRequest
{
    PointSpec point;

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     CacheQueryRequest &out);
};

struct StatsRequest
{
    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     StatsRequest &out);
};

struct DrainRequest
{
    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     DrainRequest &out);
};

/**
 * Lightweight health probe (wire v4). Cheaper than StatsRequest: the
 * reply is fixed-size, answered straight from the scheduler's counters,
 * and safe to issue at high frequency — the coordinator's prober and
 * external load balancers both key worker liveness off it.
 */
struct PingRequest
{
    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     PingRequest &out);
};

// --------------------------------------------------------------- replies

/**
 * Outcome of one scheduled point. `result` is meaningful only when
 * `error` is ServeError::None.
 */
struct PointReply
{
    ServeError error = ServeError::None;
    std::string message; ///< error detail, empty on success
    RunResult result;
    bool cache_hit = false; ///< served from the on-disk result cache
    bool coalesced = false; ///< piggybacked on an identical in-flight run
    double server_ms = 0.0; ///< queue + simulation time on the server
    /** Overloaded only: server-computed backoff hint for the retry. */
    std::uint32_t retry_after_ms = 0;
};

struct RunReply
{
    PointReply point;

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     RunReply &out);
};

struct SweepReply
{
    std::vector<PointReply> points; ///< grid order: benchmarks x policies

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     SweepReply &out);
};

struct CacheQueryReply
{
    bool cached = false;
    std::uint64_t digest = 0; ///< content-address of the resolved point

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     CacheQueryReply &out);
};

/** Server counters; see Scheduler/Server stats accessors. */
struct StatsReply
{
    std::uint64_t requests_total = 0;   ///< frames dispatched to handlers
    std::uint64_t run_requests = 0;
    std::uint64_t sweep_requests = 0;
    std::uint64_t cache_queries = 0;
    std::uint64_t points_submitted = 0; ///< scheduler admissions
    std::uint64_t points_simulated = 0; ///< actually run on the engine
    std::uint64_t cache_hits = 0;
    std::uint64_t coalesced = 0;        ///< deduped onto in-flight runs
    std::uint64_t rejected_overload = 0;
    std::uint64_t rejected_deadline = 0;
    std::uint64_t failed = 0;           ///< Internal errors
    std::uint64_t stalled = 0;          ///< watchdog-failed dispatches
    std::uint64_t queue_depth = 0;
    std::uint64_t queue_high_water = 0;
    std::uint64_t connections_accepted = 0;
    std::uint64_t active_connections = 0;
    double uptime_seconds = 0.0;
    std::uint64_t latency_count = 0;
    double latency_mean_ms = 0.0;
    double latency_p50_ms = 0.0;
    double latency_p90_ms = 0.0;
    double latency_p99_ms = 0.0;

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     StatsReply &out);
};

struct DrainReply
{
    bool was_draining = false; ///< drain had already been requested

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     DrainReply &out);
};

struct ErrorReply
{
    ServeError code = ServeError::Internal;
    std::string message;

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     ErrorReply &out);
};

/** Health snapshot answering a PingRequest (wire v4, fixed-size). */
struct PingReply
{
    std::uint8_t version = kWireVersion; ///< server's wire revision
    bool draining = false;      ///< drain requested; refuse new work
    std::uint64_t queue_depth = 0; ///< scheduler backlog right now
    std::uint64_t stalled = 0;     ///< watchdog-failed dispatches so far

    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static bool decode(std::string_view payload,
                                     PingReply &out);
};

// ------------------------------------------------------------ framed I/O

/**
 * Blocking framed send on a connected socket.
 * @return false on any transport error (peer gone, short write).
 */
[[nodiscard]] bool writeFrame(int fd, MsgType type, std::string_view payload);

/** Outcome of readFrame. */
enum class ReadStatus
{
    Ok,
    Eof,       ///< clean close at a frame boundary
    Transport, ///< read error or close mid-frame
    BadFrame,  ///< header failed validation (see frame_status)
};

/**
 * Blocking framed receive: reads exactly one frame.
 * On BadFrame, `frame_status` says why (BadVersion lets the server
 * answer with a typed VersionMismatch before closing).
 */
[[nodiscard]] ReadStatus readFrame(int fd, MsgType &type, std::string &payload,
                     FrameStatus *frame_status = nullptr);

} // namespace thermctl::serve

#endif // THERMCTL_SERVE_PROTOCOL_HH
