#include "serve/client.hh"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "common/flags.hh"
#include "common/logging.hh"

namespace thermctl::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
elapsedMs(Clock::time_point since)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - since)
            .count());
}

/** "No deadline" sentinel for a remaining-budget value. */
constexpr std::uint64_t kNoBudget =
    std::numeric_limits<std::uint64_t>::max();

/** Parse `endpoint` (dial() syntax) into a socket address. */
bool
resolve(const std::string &endpoint, sockaddr_storage &addr,
        socklen_t &len, std::string &error)
{
    if (endpoint.rfind("tcp:", 0) == 0) {
        const std::string rest = endpoint.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos) {
            error = "tcp endpoint needs HOST:PORT, got '" + endpoint + "'";
            return false;
        }
        const std::string host = rest.substr(0, colon);
        int port = 0;
        try {
            port = parseFlag<int>("tcp port", rest.substr(colon + 1));
        } catch (const FatalError &) {
            port = 0; // reported below with the range
        }
        if (port < 1 || port > 65535) {
            error = "bad tcp port in '" + endpoint
                    + "' (expected an integer in 1..65535)";
            return false;
        }
        addrinfo hints{};
        hints.ai_family = AF_INET;
        hints.ai_socktype = SOCK_STREAM;
        addrinfo *res = nullptr;
        if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                          &hints, &res)
                != 0
            || !res) {
            error = "cannot resolve " + host + ":" + std::to_string(port);
            return false;
        }
        std::memcpy(&addr, res->ai_addr, res->ai_addrlen);
        len = res->ai_addrlen;
        ::freeaddrinfo(res);
        return true;
    }
    const std::string path = endpoint.rfind("unix:", 0) == 0
                                 ? endpoint.substr(5)
                                 : endpoint;
    sockaddr_un un{};
    un.sun_family = AF_UNIX;
    if (path.size() >= sizeof(un.sun_path)) {
        error = "socket path too long: " + path;
        return false;
    }
    std::memcpy(un.sun_path, path.data(), path.size());
    std::memcpy(&addr, &un, sizeof(un));
    len = sizeof(un);
    return true;
}

/**
 * connect(2) bounded by `timeout_ms` (0 = blocking). The bounded form
 * connects non-blocking and puts the socket back in blocking mode on
 * success; a Unix listener with a full backlog makes ::connect fail
 * with EAGAIN straight away — reported, not waited out.
 */
bool
connectWithin(int fd, const sockaddr *addr, socklen_t len,
              unsigned timeout_ms, std::string &error)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (timeout_ms != 0
        && (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)) {
        error = std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno);
        return false;
    }
    if (::connect(fd, addr, len) != 0) {
        if (timeout_ms == 0 || errno != EINPROGRESS) {
            error = std::strerror(errno);
            return false;
        }
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(timeout_ms);
        for (;;) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now());
            if (left.count() <= 0) {
                error = "connect timed out after "
                        + std::to_string(timeout_ms) + " ms";
                return false;
            }
            pollfd p{};
            p.fd = fd;
            p.events = POLLOUT;
            const int rc = ::poll(&p, 1, int(left.count()));
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                error = std::string("poll: ") + std::strerror(errno);
                return false;
            }
            if (rc > 0)
                break;
        }
        int so_error = 0;
        socklen_t so_len = sizeof(so_error);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len)
                != 0
            || so_error != 0) {
            error = std::strerror(so_error ? so_error : errno);
            return false;
        }
    }
    if (timeout_ms != 0 && ::fcntl(fd, F_SETFL, flags) < 0) {
        error = std::string("fcntl(restore): ") + std::strerror(errno);
        return false;
    }
    return true;
}

/** One attempt and no retries: what connect()/tryConnect() build. */
BackoffConfig
singleAttempt(unsigned connect_timeout_ms)
{
    BackoffConfig config;
    config.max_attempts = 1;
    config.connect_timeout_ms = connect_timeout_ms;
    return config;
}

bool
retryable(ServeError error)
{
    return error == ServeError::Transport
           || error == ServeError::Overloaded;
}

PointReply
transportFailure(std::string message)
{
    PointReply p;
    p.error = ServeError::Transport;
    p.message = std::move(message);
    return p;
}

/** Map an ErrorReply frame into a typed PointReply failure. */
PointReply
errorToPoint(const std::string &payload)
{
    ErrorReply err;
    if (!ErrorReply::decode(payload, err))
        fatal("client: undecodable ErrorReply from server");
    PointReply p;
    p.error = err.code;
    p.message = err.message;
    return p;
}

/** Exhausted budget: wrap the last failure in a DeadlineExceeded. */
PointReply
budgetExhausted(const PointReply &last, std::uint32_t attempts)
{
    PointReply p;
    p.error = ServeError::DeadlineExceeded;
    p.message = "retry budget exhausted after "
                + std::to_string(attempts) + " attempt(s); last error: "
                + serveErrorName(last.error)
                + (last.message.empty() ? "" : " (" + last.message + ")");
    return p;
}

/**
 * The point that stands for the whole reply — a run's only point, a
 * sweep's single failure point — or nullptr for a delivered grid, whose
 * per-point errors are the caller's to inspect.
 */
const PointReply *
wholePoint(const RunReply &r)
{
    return &r.point;
}

const PointReply *
wholePoint(const SweepReply &r)
{
    return r.points.size() == 1 ? &r.points[0] : nullptr;
}

/** Make `r` a reply that is nothing but the failure `p`. */
void
setFailure(RunReply &r, PointReply p)
{
    r.point = std::move(p);
}

void
setFailure(SweepReply &r, PointReply p)
{
    r.points.clear();
    r.points.push_back(std::move(p));
}

} // namespace

int
dial(const std::string &endpoint, unsigned timeout_ms, std::string &error)
{
    sockaddr_storage addr{};
    socklen_t len = 0;
    if (!resolve(endpoint, addr, len, error))
        return -1;
    const int fd = ::socket(addr.ss_family, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    std::string cause;
    if (!connectWithin(fd, reinterpret_cast<const sockaddr *>(&addr), len,
                       timeout_ms, cause)) {
        ::close(fd);
        error = "cannot connect to " + endpoint + ": " + cause
                + " (is thermctl_serve running?)";
        return -1;
    }
    if (addr.ss_family == AF_INET) {
        // One small frame per request: do not let Nagle hold it back.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return fd;
}

ServeClient::ServeClient(std::string endpoint, const BackoffConfig &backoff)
    : endpoint_(std::move(endpoint)), backoff_(backoff)
{
}

ServeClient::ServeClient() : ServeClient("", singleAttempt(0)) {}

ServeClient
ServeClient::connect(const std::string &endpoint)
{
    std::string error;
    ServeClient client = tryConnect(endpoint, 0, error);
    if (!client.connected())
        fatal("client: ", error);
    return client;
}

ServeClient
ServeClient::tryConnect(const std::string &endpoint, unsigned timeout_ms,
                        std::string &error)
{
    ServeClient client(endpoint, singleAttempt(timeout_ms));
    (void)client.reconnect(error);
    return client;
}

ServeClient::~ServeClient()
{
    disconnect();
}

ServeClient::ServeClient(ServeClient &&other) noexcept
    : endpoint_(std::move(other.endpoint_)), backoff_(other.backoff_),
      fd_(std::exchange(other.fd_, -1)),
      recv_timeout_ms_(other.recv_timeout_ms_), calls_(other.calls_),
      attempts_total_(other.attempts_total_)
{
}

ServeClient &
ServeClient::operator=(ServeClient &&other) noexcept
{
    if (this != &other) {
        disconnect();
        endpoint_ = std::move(other.endpoint_);
        backoff_ = other.backoff_;
        fd_ = std::exchange(other.fd_, -1);
        recv_timeout_ms_ = other.recv_timeout_ms_;
        calls_ = other.calls_;
        attempts_total_ = other.attempts_total_;
    }
    return *this;
}

bool
ServeClient::reconnect(std::string &error)
{
    return ensureConnected(kNoBudget, error);
}

bool
ServeClient::ensureConnected(std::uint64_t budget_ms, std::string &error)
{
    if (fd_ >= 0)
        return true;
    if (endpoint_.empty()) {
        error = "not connected";
        return false;
    }
    if (budget_ms == 0) {
        // The budget is already gone: dialing now could only stretch
        // the request past its deadline, so fail fast instead.
        error = "deadline exhausted before reconnect";
        return false;
    }
    std::uint64_t timeout = backoff_.connect_timeout_ms;
    if (budget_ms != kNoBudget)
        timeout = timeout == 0 ? budget_ms : std::min(timeout, budget_ms);
    fd_ = dial(endpoint_,
               static_cast<unsigned>(std::min<std::uint64_t>(
                   timeout, std::numeric_limits<unsigned>::max())),
               error);
    if (fd_ >= 0 && recv_timeout_ms_ != 0)
        setRecvTimeout(recv_timeout_ms_);
    return fd_ >= 0;
}

void
ServeClient::setRecvTimeout(unsigned ms)
{
    recv_timeout_ms_ = ms;
    if (fd_ < 0)
        return; // applied by the next dial
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = suseconds_t(ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void
ServeClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
ServeClient::tryRoundTrip(MsgType type, std::string_view payload,
                          MsgType &reply_type, std::string &reply,
                          std::string &error)
{
    if (fd_ < 0) {
        error = "not connected";
        return false;
    }
    if (!writeFrame(fd_, type, payload)) {
        error = "send failed (server gone?)";
        disconnect();
        return false;
    }
    FrameStatus fs = FrameStatus::Ok;
    switch (readFrame(fd_, reply_type, reply, &fs)) {
      case ReadStatus::Ok:
        return true;
      case ReadStatus::Eof:
        error = "server closed the connection before replying";
        disconnect();
        return false;
      case ReadStatus::Transport:
        error = "transport error reading reply";
        disconnect();
        return false;
      case ReadStatus::BadFrame:
        // Not a transport blip: the peer speaks a different protocol.
        // Retrying cannot help, so this stays fatal.
        disconnect();
        fatal("client: malformed reply frame (",
              fs == FrameStatus::BadVersion ? "wire version mismatch"
                                            : "bad header",
              ")");
    }
    error = "unreachable read status";
    return false;
}

template <typename Reply>
Reply
ServeClient::control(MsgType type, MsgType reply_type,
                     const std::string &body)
{
    MsgType got{};
    std::string payload;
    std::string error;
    if (!ensureConnected(kNoBudget, error)
        || !tryRoundTrip(type, body, got, payload, error))
        fatal("client: ", error);
    if (got == MsgType::ErrorReply)
        fatal("client: request refused: ", errorToPoint(payload).message);
    Reply reply;
    if (got != reply_type || !Reply::decode(payload, reply))
        fatal("client: bad reply to request type ", unsigned(type));
    return reply;
}

template <typename Reply>
Reply
ServeClient::call(MsgType type, MsgType reply_type, const std::string &body)
{
    // Each call gets its own deterministic jitter stream (the seed
    // forked by call index), so a process's retry timing replays from
    // one seed.
    BackoffConfig config = backoff_;
    config.seed = Rng(backoff_.seed).fork(calls_++).next();
    BackoffPolicy policy(config);
    const auto started = Clock::now();
    for (;;) {
        attempts_total_++;
        std::uint64_t budget = kNoBudget;
        if (config.deadline_ms != 0)
            budget = config.deadline_ms
                     - std::min(elapsedMs(started), config.deadline_ms);
        Reply reply;
        MsgType got{};
        std::string payload;
        std::string error;
        if (!ensureConnected(budget, error)
            || !tryRoundTrip(type, body, got, payload, error))
            setFailure(reply, transportFailure(std::move(error)));
        else if (got == MsgType::ErrorReply)
            setFailure(reply, errorToPoint(payload));
        else if (got != reply_type)
            fatal("client: unexpected reply type ", unsigned(got),
                  " to request type ", unsigned(type));
        else if (!Reply::decode(payload, reply))
            fatal("client: undecodable reply to request type ",
                  unsigned(type));

        const PointReply *whole = wholePoint(reply);
        if (!whole || !retryable(whole->error))
            return reply;
        const auto d =
            policy.next(elapsedMs(started), whole->retry_after_ms);
        if (!d.retry) {
            // With retries disabled (max_attempts=1) this is exactly
            // the plain client: the typed error comes back as-is.
            if (policy.attempts() > 1)
                setFailure(reply, budgetExhausted(*whole, policy.attempts()));
            return reply;
        }
        if (d.sleep_ms > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(d.sleep_ms));
    }
}

PointReply
ServeClient::run(const RunRequest &req)
{
    return call<RunReply>(MsgType::RunRequest, MsgType::RunReply,
                          req.encode())
        .point;
}

SweepReply
ServeClient::sweep(const SweepRequest &req)
{
    return call<SweepReply>(MsgType::SweepRequest, MsgType::SweepReply,
                            req.encode());
}

CacheQueryReply
ServeClient::cacheQuery(const CacheQueryRequest &req)
{
    return control<CacheQueryReply>(MsgType::CacheQueryRequest,
                                    MsgType::CacheQueryReply, req.encode());
}

StatsReply
ServeClient::stats()
{
    return control<StatsReply>(MsgType::StatsRequest, MsgType::StatsReply,
                               StatsRequest{}.encode());
}

bool
ServeClient::ping(PingReply &out, std::string &error)
{
    MsgType type{};
    std::string payload;
    if (!ensureConnected(kNoBudget, error)
        || !tryRoundTrip(MsgType::PingRequest, PingRequest{}.encode(), type,
                         payload, error))
        return false;
    if (type == MsgType::ErrorReply) {
        error = errorToPoint(payload).message;
        return false;
    }
    if (type != MsgType::PingReply || !PingReply::decode(payload, out))
        fatal("client: bad reply to PingRequest");
    return true;
}

bool
ServeClient::drain()
{
    return control<DrainReply>(MsgType::DrainRequest, MsgType::DrainReply,
                               DrainRequest{}.encode())
        .was_draining;
}

} // namespace thermctl::serve
