/**
 * @file
 * The client for the thermctl-serve wire protocol.
 *
 * A ServeClient talks to one endpoint over one socket and issues one
 * request at a time (the protocol is strictly request/reply per
 * connection; open more clients for concurrency). It dials lazily and
 * redials after a broken connection, each dial bounded by
 * BackoffConfig::connect_timeout_ms.
 *
 * Data plane (run/sweep): server-side refusals come back as typed
 * ServeError codes inside the replies, and so do transport failures
 * (ServeError::Transport, socket closed). Both calls go through one
 * retry loop governed by the client's BackoffConfig (serve/retry.hh
 * says what is retried and why that is safe); with max_attempts = 1 —
 * what connect() and tryConnect() build — the loop makes exactly one
 * attempt and returns its typed result unchanged.
 *
 * Control plane (cacheQuery/stats/drain) is strict: a transport
 * failure throws FatalError and is never retried (draining a server
 * twice because the first reply got lost is not idempotent in effect,
 * even if the frame is). Protocol violations throw FatalError on every
 * call.
 */

#ifndef THERMCTL_SERVE_CLIENT_HH
#define THERMCTL_SERVE_CLIENT_HH

#include <cstdint>
#include <string>

#include "serve/protocol.hh"
#include "serve/retry.hh"

namespace thermctl::serve
{

/**
 * Open a connected stream socket to `endpoint`: "unix:PATH",
 * "tcp:HOST:PORT" (PORT in 1..65535), or a bare path (a Unix socket).
 * The connect is abandoned after `timeout_ms`, 0 meaning a blocking
 * connect; a Unix listener whose backlog is full fails at once instead
 * of blocking, so a wedged worker costs bounded time.
 * @return the socket, or -1 with the cause in `error`.
 */
[[nodiscard]] int dial(const std::string &endpoint, unsigned timeout_ms,
                       std::string &error);

class ServeClient
{
  public:
    /**
     * A client of `endpoint` (dial() syntax) that retries run/sweep per
     * `backoff`. Nothing is dialed until the first call.
     */
    ServeClient(std::string endpoint, const BackoffConfig &backoff);

    /** Dial `endpoint` now with a blocking connect. Fatal on failure. */
    static ServeClient connect(const std::string &endpoint);

    /**
     * Non-fatal connect bounded by `timeout_ms` (0 = blocking): on
     * failure returns a disconnected client and fills `error`.
     * Reconnection paths use this so a flapping server is a retryable
     * condition, not process death.
     */
    static ServeClient tryConnect(const std::string &endpoint,
                                  unsigned timeout_ms, std::string &error);

    /** A client of no endpoint: every call fails "not connected". */
    ServeClient();

    ~ServeClient();
    ServeClient(ServeClient &&other) noexcept;
    ServeClient &operator=(ServeClient &&other) noexcept;
    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** @return true while the socket is open and usable. */
    [[nodiscard]] bool connected() const { return fd_ >= 0; }

    /**
     * Dial now unless already connected, bounded by the connect
     * timeout. @return connected(), with the cause in `error` if not.
     */
    bool reconnect(std::string &error);

    /**
     * Bound every subsequent reply read to `ms` milliseconds
     * (SO_RCVTIMEO), on this socket and on every later redial; 0
     * restores blocking reads. An expired read surfaces as a Transport
     * failure with the socket closed — the coordinator uses this to
     * turn a silent worker stall into a typed, lease-sized failure
     * instead of an indefinite hang.
     */
    void setRecvTimeout(unsigned ms);

    /**
     * Execute one point on the server. Server-side refusals (overload,
     * drain, unknown names, deadline) return as PointReply.error; a
     * broken connection returns ServeError::Transport and disconnects.
     * When retries ran out, the error is DeadlineExceeded with the last
     * cause in the message.
     */
    [[nodiscard]] PointReply run(const RunRequest &req);

    /**
     * Execute a benchmarks x policies grid; replies in grid order. A
     * failure of the whole request (and a retry is of the whole grid)
     * yields a single typed point.
     */
    [[nodiscard]] SweepReply sweep(const SweepRequest &req);

    /** Probe the server's result cache without simulating. */
    [[nodiscard]] CacheQueryReply cacheQuery(const CacheQueryRequest &req);

    [[nodiscard]] StatsReply stats();

    /**
     * Lightweight health probe. Non-fatal like the data plane but never
     * retried: a failed dial or broken connection returns false with
     * the cause in `error` and the socket closed. Protocol violations
     * still throw.
     */
    [[nodiscard]] bool ping(PingReply &out, std::string &error);

    /**
     * Request a graceful drain: the server finishes in-flight work,
     * refuses new requests, and exits.
     * @return true when the server was already draining.
     */
    bool drain();

    /** Data-plane attempts across all calls (telemetry). */
    [[nodiscard]] std::uint64_t attemptsTotal() const
    {
        return attempts_total_;
    }

  private:
    /** The shared retry loop of run() and sweep(). */
    template <typename Reply>
    Reply call(MsgType type, MsgType reply_type, const std::string &body);

    /**
     * Dial if needed, spending at most `budget_ms` of a request's
     * deadline (0 = the budget is gone: fail without dialing).
     */
    bool ensureConnected(std::uint64_t budget_ms, std::string &error);

    /** One control-plane exchange; throws FatalError on transport. */
    template <typename Reply>
    Reply control(MsgType type, MsgType reply_type, const std::string &body);

    /**
     * One request/reply exchange that reports transport failures by
     * returning false (with a human-readable cause in `error`) and
     * closing the socket, instead of throwing. Framing violations —
     * a server speaking another protocol — still throw.
     */
    [[nodiscard]] bool tryRoundTrip(MsgType type, std::string_view payload,
                                    MsgType &reply_type, std::string &reply,
                                    std::string &error);

    /** Close the socket (broken connections are not reusable). */
    void disconnect();

    std::string endpoint_;
    BackoffConfig backoff_;
    int fd_ = -1;
    unsigned recv_timeout_ms_ = 0;
    std::uint64_t calls_ = 0;
    std::uint64_t attempts_total_ = 0;
};

} // namespace thermctl::serve

#endif // THERMCTL_SERVE_CLIENT_HH
