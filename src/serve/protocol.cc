#include "serve/protocol.hh"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/serialize.hh"
#include "fault/fault.hh"
#include "sim/sweep.hh"

namespace thermctl::serve
{

namespace
{

/** Decode guard: every decode() must consume the whole payload. */
bool
finish(const ByteReader &r)
{
    return r.atEnd();
}

/** The knob tail of a PointSpec: every field but benchmark and policy. */
void
encodeKnobs(ByteWriter &w, const PointSpec &p)
{
    w.u64(p.warmup_cycles);
    w.u64(p.measure_cycles);
    w.f64(p.ct_setpoint);
    w.u64(p.sample_interval);
    w.u32(p.num_cores);
    w.f64(p.coupling_r);
    w.f64(p.chip_budget);
    w.u8(p.budget_policy);
}

void
encodePoint(ByteWriter &w, const PointSpec &p)
{
    w.str(p.benchmark);
    w.str(p.policy);
    encodeKnobs(w, p);
}

/**
 * Validate the multicore knobs of a decoded PointSpec.
 * Rejecting here (before any config is built) keeps a hostile
 * num_cores from ever sizing an allocation and turns out-of-range
 * values into a typed BadRequest instead of a server-side fatal.
 */
bool
multicoreKnobsValid(const PointSpec &p)
{
    if (p.num_cores > kMaxCores)
        return false;
    if (!std::isfinite(p.coupling_r) || p.coupling_r < 0.0)
        return false;
    if (!std::isfinite(p.chip_budget) || p.chip_budget < 0.0)
        return false;
    return p.budget_policy
           <= static_cast<std::uint8_t>(BudgetPolicy::ThermalHeadroom);
}

bool
decodeKnobs(ByteReader &r, PointSpec &p)
{
    p.warmup_cycles = r.u64();
    p.measure_cycles = r.u64();
    p.ct_setpoint = r.f64();
    p.sample_interval = r.u64();
    p.num_cores = r.u32();
    p.coupling_r = r.f64();
    p.chip_budget = r.f64();
    p.budget_policy = r.u8();
    return r.ok() && multicoreKnobsValid(p);
}

bool
decodePoint(ByteReader &r, PointSpec &p)
{
    p.benchmark = r.str();
    p.policy = r.str();
    return decodeKnobs(r, p);
}

void
encodeStrings(ByteWriter &w, const std::vector<std::string> &v)
{
    w.u64(v.size());
    for (const auto &s : v)
        w.str(s);
}

bool
decodeStrings(ByteReader &r, std::vector<std::string> &v)
{
    const std::uint64_t n = r.u64();
    // Every encoded string occupies at least its 8-byte length prefix,
    // so a count beyond remaining()/8 is provably corrupt. Rejecting it
    // here (rather than only capping at kMaxFramePayload) keeps a
    // hostile 13-byte payload from forcing a multi-hundred-MB reserve.
    if (!r.ok() || n > r.remaining() / 8)
        return false;
    v.clear();
    v.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i)
        v.push_back(r.str());
    return r.ok();
}

void
encodePointReply(ByteWriter &w, const PointReply &p)
{
    w.u8(static_cast<std::uint8_t>(p.error));
    w.str(p.message);
    w.u8(p.cache_hit ? 1 : 0);
    w.u8(p.coalesced ? 1 : 0);
    w.f64(p.server_ms);
    w.u32(p.retry_after_ms);
    if (p.error == ServeError::None)
        w.str(serializeRunResult(p.result));
}

bool
decodePointReply(ByteReader &r, PointReply &p)
{
    const std::uint8_t code = r.u8();
    if (code > static_cast<std::uint8_t>(ServeError::Stalled))
        return false;
    p.error = static_cast<ServeError>(code);
    p.message = r.str();
    p.cache_hit = r.u8() != 0;
    p.coalesced = r.u8() != 0;
    p.server_ms = r.f64();
    p.retry_after_ms = r.u32();
    if (!r.ok())
        return false;
    if (p.error == ServeError::None) {
        const std::string body = r.str();
        if (!r.ok()
            || deserializeRunResult(body, p.result)
                   != RunResultDecodeStatus::Ok) {
            return false;
        }
    }
    return true;
}

bool
readFully(int fd, char *dst, std::size_t n, bool &saw_bytes)
{
    std::size_t got = 0;
    while (got < n) {
        const auto fp = THERMCTL_FAULT_POINT("serve.sock.read");
        if (fp.abort()) {
            errno = ECONNRESET;
            return false;
        }
        if (fp.eintr())
            continue; // as if ::recv returned -1/EINTR
        if (fp.stall()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fp.stall_ms));
        }
        // ShortIo: deliver the bytes one at a time.
        const std::size_t want = fp.shortIo() ? 1 : n - got;
        const ssize_t r = ::recv(fd, dst + got, want, 0);
        if (r == 0)
            return false;
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        got += static_cast<std::size_t>(r);
        saw_bytes = true;
    }
    return true;
}

} // namespace

bool
msgTypeValid(std::uint8_t t)
{
    switch (static_cast<MsgType>(t)) {
      case MsgType::RunRequest:
      case MsgType::SweepRequest:
      case MsgType::CacheQueryRequest:
      case MsgType::StatsRequest:
      case MsgType::DrainRequest:
      case MsgType::PingRequest:
      case MsgType::RunReply:
      case MsgType::SweepReply:
      case MsgType::CacheQueryReply:
      case MsgType::StatsReply:
      case MsgType::DrainReply:
      case MsgType::ErrorReply:
      case MsgType::PingReply:
        return true;
    }
    return false;
}

const char *
serveErrorName(ServeError e)
{
    switch (e) {
      case ServeError::None: return "ok";
      case ServeError::BadRequest: return "bad-request";
      case ServeError::VersionMismatch: return "version-mismatch";
      case ServeError::Overloaded: return "overloaded";
      case ServeError::DeadlineExceeded: return "deadline-exceeded";
      case ServeError::Draining: return "draining";
      case ServeError::Internal: return "internal";
      case ServeError::Transport: return "transport";
      case ServeError::Stalled: return "stalled";
      default: return "?";
    }
}

// --------------------------------------------------------------- framing

std::string
encodeFrame(MsgType type, std::string_view payload)
{
    std::string out;
    out.reserve(kFrameHeaderBytes + payload.size());
    out.append(kFrameMagic);
    ByteWriter h;
    h.u8(kWireVersion);
    h.u8(static_cast<std::uint8_t>(type));
    h.u32(static_cast<std::uint32_t>(payload.size()));
    out.append(h.buffer());
    out.append(payload);
    return out;
}

FrameStatus
decodeFrameHeader(std::string_view header, FrameHeader &out)
{
    if (header.size() != kFrameHeaderBytes
        || header.substr(0, kFrameMagic.size()) != kFrameMagic) {
        return FrameStatus::BadMagic;
    }
    ByteReader r(header.substr(kFrameMagic.size()));
    out.version = r.u8();
    const std::uint8_t type = r.u8();
    out.payload_len = r.u32();
    if (out.version != kWireVersion)
        return FrameStatus::BadVersion;
    if (!msgTypeValid(type))
        return FrameStatus::BadType;
    out.type = static_cast<MsgType>(type);
    if (out.payload_len > kMaxFramePayload)
        return FrameStatus::BadLength;
    return FrameStatus::Ok;
}

FrameAssembler::Next
FrameAssembler::next(MsgType &type, std::string &payload,
                     FrameStatus *why)
{
    if (bad_) {
        if (why)
            *why = FrameStatus::BadMagic;
        return Next::Bad;
    }
    if (buffered() < kFrameHeaderBytes)
        return Next::NeedMore;

    FrameHeader h;
    const FrameStatus fs = decodeFrameHeader(
        std::string_view(buf_).substr(pos_, kFrameHeaderBytes), h);
    if (why)
        *why = fs;
    if (fs != FrameStatus::Ok) {
        bad_ = true;
        return Next::Bad;
    }
    if (buffered() < kFrameHeaderBytes + h.payload_len)
        return Next::NeedMore;

    type = h.type;
    payload.assign(buf_, pos_ + kFrameHeaderBytes, h.payload_len);
    pos_ += kFrameHeaderBytes + h.payload_len;
    // Compact once the consumed prefix dominates, so a long-lived
    // connection does not accrete every frame it ever carried.
    if (pos_ >= 4096 && pos_ * 2 >= buf_.size()) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    return Next::Frame;
}

// -------------------------------------------------------------- requests

std::string
RunRequest::encode() const
{
    ByteWriter w;
    encodePoint(w, point);
    w.u64(deadline_ms);
    return w.take();
}

bool
RunRequest::decode(std::string_view payload, RunRequest &out)
{
    ByteReader r(payload);
    if (!decodePoint(r, out.point))
        return false;
    out.deadline_ms = r.u64();
    return finish(r);
}

std::vector<PointSpec>
SweepRequest::points() const
{
    std::vector<PointSpec> cells;
    cells.reserve(benchmarks.size() * policies.size());
    for (const auto &bench : benchmarks) {
        for (const auto &policy : policies) {
            PointSpec cell = point;
            cell.benchmark = bench;
            cell.policy = policy;
            cells.push_back(std::move(cell));
        }
    }
    return cells;
}

std::string
SweepRequest::encode() const
{
    ByteWriter w;
    encodeStrings(w, benchmarks);
    encodeStrings(w, policies);
    encodeKnobs(w, point);
    w.u64(deadline_ms);
    return w.take();
}

bool
SweepRequest::decode(std::string_view payload, SweepRequest &out)
{
    ByteReader r(payload);
    if (!decodeStrings(r, out.benchmarks)
        || !decodeStrings(r, out.policies)
        || !decodeKnobs(r, out.point)) {
        return false;
    }
    out.deadline_ms = r.u64();
    return finish(r);
}

std::string
CacheQueryRequest::encode() const
{
    ByteWriter w;
    encodePoint(w, point);
    return w.take();
}

bool
CacheQueryRequest::decode(std::string_view payload, CacheQueryRequest &out)
{
    ByteReader r(payload);
    return decodePoint(r, out.point) && finish(r);
}

std::string
StatsRequest::encode() const
{
    return {};
}

bool
StatsRequest::decode(std::string_view payload, StatsRequest &out)
{
    (void)out;
    return payload.empty();
}

std::string
DrainRequest::encode() const
{
    return {};
}

bool
DrainRequest::decode(std::string_view payload, DrainRequest &out)
{
    (void)out;
    return payload.empty();
}

std::string
PingRequest::encode() const
{
    return {};
}

bool
PingRequest::decode(std::string_view payload, PingRequest &out)
{
    (void)out;
    return payload.empty();
}

// --------------------------------------------------------------- replies

std::string
RunReply::encode() const
{
    ByteWriter w;
    encodePointReply(w, point);
    return w.take();
}

bool
RunReply::decode(std::string_view payload, RunReply &out)
{
    ByteReader r(payload);
    return decodePointReply(r, out.point) && finish(r);
}

std::string
SweepReply::encode() const
{
    ByteWriter w;
    w.u64(points.size());
    for (const auto &p : points)
        encodePointReply(w, p);
    return w.take();
}

bool
SweepReply::decode(std::string_view payload, SweepReply &out)
{
    ByteReader r(payload);
    const std::uint64_t n = r.u64();
    // A PointReply encodes to >= 19 bytes (error byte, message length
    // prefix, two flag bytes, server_ms), so bound the count by the
    // bytes actually present before reserving sizeof(PointReply) each —
    // PointReply is large (inline RunResult), which made the old
    // kMaxFramePayload cap an allocation amplifier.
    constexpr std::uint64_t kMinPointReplyBytes = 19;
    if (!r.ok() || n > r.remaining() / kMinPointReplyBytes)
        return false;
    out.points.clear();
    out.points.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        PointReply p;
        if (!decodePointReply(r, p))
            return false;
        out.points.push_back(std::move(p));
    }
    return finish(r);
}

std::string
CacheQueryReply::encode() const
{
    ByteWriter w;
    w.u8(cached ? 1 : 0);
    w.u64(digest);
    return w.take();
}

bool
CacheQueryReply::decode(std::string_view payload, CacheQueryReply &out)
{
    ByteReader r(payload);
    out.cached = r.u8() != 0;
    out.digest = r.u64();
    return finish(r);
}

std::string
StatsReply::encode() const
{
    ByteWriter w;
    w.u64(requests_total);
    w.u64(run_requests);
    w.u64(sweep_requests);
    w.u64(cache_queries);
    w.u64(points_submitted);
    w.u64(points_simulated);
    w.u64(cache_hits);
    w.u64(coalesced);
    w.u64(rejected_overload);
    w.u64(rejected_deadline);
    w.u64(failed);
    w.u64(stalled);
    w.u64(queue_depth);
    w.u64(queue_high_water);
    w.u64(connections_accepted);
    w.u64(active_connections);
    w.f64(uptime_seconds);
    w.u64(latency_count);
    w.f64(latency_mean_ms);
    w.f64(latency_p50_ms);
    w.f64(latency_p90_ms);
    w.f64(latency_p99_ms);
    return w.take();
}

bool
StatsReply::decode(std::string_view payload, StatsReply &out)
{
    ByteReader r(payload);
    out.requests_total = r.u64();
    out.run_requests = r.u64();
    out.sweep_requests = r.u64();
    out.cache_queries = r.u64();
    out.points_submitted = r.u64();
    out.points_simulated = r.u64();
    out.cache_hits = r.u64();
    out.coalesced = r.u64();
    out.rejected_overload = r.u64();
    out.rejected_deadline = r.u64();
    out.failed = r.u64();
    out.stalled = r.u64();
    out.queue_depth = r.u64();
    out.queue_high_water = r.u64();
    out.connections_accepted = r.u64();
    out.active_connections = r.u64();
    out.uptime_seconds = r.f64();
    out.latency_count = r.u64();
    out.latency_mean_ms = r.f64();
    out.latency_p50_ms = r.f64();
    out.latency_p90_ms = r.f64();
    out.latency_p99_ms = r.f64();
    return finish(r);
}

std::string
DrainReply::encode() const
{
    ByteWriter w;
    w.u8(was_draining ? 1 : 0);
    return w.take();
}

bool
DrainReply::decode(std::string_view payload, DrainReply &out)
{
    ByteReader r(payload);
    out.was_draining = r.u8() != 0;
    return finish(r);
}

std::string
ErrorReply::encode() const
{
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(code));
    w.str(message);
    return w.take();
}

bool
ErrorReply::decode(std::string_view payload, ErrorReply &out)
{
    ByteReader r(payload);
    const std::uint8_t code = r.u8();
    if (code > static_cast<std::uint8_t>(ServeError::Stalled))
        return false;
    out.code = static_cast<ServeError>(code);
    out.message = r.str();
    return finish(r);
}

std::string
PingReply::encode() const
{
    ByteWriter w;
    w.u8(version);
    w.u8(draining ? 1 : 0);
    w.u64(queue_depth);
    w.u64(stalled);
    return w.take();
}

bool
PingReply::decode(std::string_view payload, PingReply &out)
{
    ByteReader r(payload);
    out.version = r.u8();
    const std::uint8_t draining = r.u8();
    // The draining flag is a strict boolean on the wire; any other
    // value means the stream is not what it claims to be.
    if (draining > 1)
        return false;
    out.draining = draining != 0;
    out.queue_depth = r.u64();
    out.stalled = r.u64();
    return finish(r);
}

// ------------------------------------------------------------ framed I/O

bool
writeFrame(int fd, MsgType type, std::string_view payload)
{
    const std::string frame = encodeFrame(type, payload);
    std::size_t sent = 0;
    while (sent < frame.size()) {
        const auto fp = THERMCTL_FAULT_POINT("serve.sock.write");
        if (fp.abort())
            return false; // as if the peer reset mid-frame
        if (fp.stall()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fp.stall_ms));
        }
        // ShortIo: push the frame out one byte per ::send call.
        const std::size_t chunk = fp.shortIo() ? 1 : frame.size() - sent;
        const ssize_t w = ::send(fd, frame.data() + sent,
                                 chunk, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(w);
    }
    return true;
}

ReadStatus
readFrame(int fd, MsgType &type, std::string &payload,
          FrameStatus *frame_status)
{
    char header[kFrameHeaderBytes];
    bool saw_bytes = false;
    if (!readFully(fd, header, sizeof(header), saw_bytes))
        return saw_bytes ? ReadStatus::Transport : ReadStatus::Eof;

    FrameHeader h;
    const FrameStatus fs =
        decodeFrameHeader(std::string_view(header, sizeof(header)), h);
    if (frame_status)
        *frame_status = fs;
    if (fs != FrameStatus::Ok)
        return ReadStatus::BadFrame;

    payload.resize(h.payload_len);
    if (h.payload_len > 0
        && !readFully(fd, payload.data(), h.payload_len, saw_bytes)) {
        return ReadStatus::Transport;
    }
    type = h.type;
    return ReadStatus::Ok;
}

} // namespace thermctl::serve
