/**
 * @file
 * thermctl-serve socket server: accepts framed requests on a Unix-domain
 * socket (TCP on loopback opt-in), resolves them against the server's
 * base configuration, and answers from the Scheduler.
 *
 * Threading model (event-driven core): ONE event-loop thread owns every
 * listener and connection socket. Sockets are non-blocking; the loop
 * multiplexes readiness with poll(), assembles inbound frames
 * incrementally (FrameAssembler), and flushes outbound reply bytes from
 * per-connection write buffers. Request execution happens on a fixed
 * worker pool: the loop hands a decoded frame to a worker, the worker
 * runs it against the Scheduler (blocking on the scheduler future is
 * fine there), and the finished reply frame comes back to the loop over
 * a completion queue plus the self-pipe wakeup. The loop never blocks
 * on simulation and a worker never touches a socket.
 *
 * Flow control: one frame executes per connection at a time (the
 * protocol is strictly request/reply); while a request is in flight or
 * the connection's write buffer is above ServerOptions::max_write_buffer
 * the loop stops polling that connection for readability, so a flooding
 * or never-reading peer is bounded by kernel buffers plus one write
 * buffer, never unbounded heap. Idle connections are evicted by the
 * loop after ServerOptions::idle_timeout_ms (this replaces the old
 * blocking-core SO_RCVTIMEO, which is meaningless on non-blocking
 * sockets).
 *
 * Overload behaviour: admission control lives in the Scheduler — a full
 * queue answers Overloaded immediately. The server adds graceful drain:
 * after beginDrain() (SIGTERM in the daemon, or a client DrainRequest),
 * new connections and new requests are refused while every
 * already-admitted request completes and its reply bytes are flushed
 * (bounded by ServerOptions::drain_flush_ms) before the server exits.
 *
 * See DESIGN.md §14 for the loop/worker contract and buffer ownership
 * rules.
 */

#ifndef THERMCTL_SERVE_SERVER_HH
#define THERMCTL_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.hh"
#include "serve/scheduler.hh"
#include "sim/config.hh"

namespace thermctl::serve
{

/**
 * Every server knob in one flat, validated struct. Build one (usually
 * from CLI flags), call validate(), hand it to Server. Grouped by the
 * layer each knob configures; zero/empty keeps the documented default.
 */
struct ServerOptions
{
    // ----------------------------------------------------- listeners
    /** Unix-domain listener path; empty disables it. */
    std::string unix_path;

    /** Listen on TCP loopback too (opt-in). */
    bool tcp = false;

    /** TCP port; 0 picks an ephemeral port (see Server::tcpPort). */
    int tcp_port = 0;

    /** listen(2) backlog for both listeners. */
    int backlog = 64;

    // ----------------------------------------------- simulation base
    /** Base configuration every request resolves against. */
    SimConfig base;

    /** Engine knobs: sweep worker threads and the read-through cache. */
    SweepOptions sweep;

    // ------------------------------------------------------ scheduler
    /** Admission bound on undispatched points (queue depth). */
    std::size_t max_queue = 256;

    /** Scheduler dispatcher threads (each runs one batch at a time). */
    unsigned dispatchers = 2;

    /** Hold dispatch briefly so concurrent requests coalesce/batch. */
    unsigned batch_window_ms = 0;

    /** Fail batches stuck longer than this with Stalled; 0 = off. */
    unsigned watchdog_ms = 0;

    // ------------------------------------------------ event-loop core
    /** Request-execution worker threads owned by the server. */
    unsigned workers = 2;

    /** Evict connections idle this long; 0 = never evict. */
    unsigned idle_timeout_ms = 30000;

    /**
     * Per-connection write-buffer high water: past it the loop stops
     * reading from that connection until the peer drains replies.
     */
    std::size_t max_write_buffer = 4u << 20;

    /** SO_SNDBUF for accepted connections; 0 keeps the OS default. */
    int sndbuf = 0;

    // ---------------------------------------------------- drain policy
    /** Budget for flushing already-produced replies during drain. */
    unsigned drain_flush_ms = 5000;

    // -------------------------------------------------- chaos testing
    /** Fault plan armed at start() (needs THERMCTL_FAULTS); empty = off. */
    std::string fault_plan;

    /**
     * Fail fast on nonsense combinations (no listener, zero workers,
     * zero queue...). Fatal on the first violation; Server::start()
     * calls this, call it earlier to surface flag errors before any
     * side effect.
     */
    void validate() const;

    /** The scheduler-layer slice of these options. */
    [[nodiscard]] Scheduler::Options schedulerOptions() const;
};

/** @return the default Unix socket path ($XDG_RUNTIME_DIR or /tmp). */
std::string defaultSocketPath();

class Server
{
  public:
    explicit Server(const ServerOptions &opts);

    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind listeners and start serving. Fatal on bind errors. */
    void start();

    /** @return bound TCP port (after start()), or -1 when TCP is off. */
    int tcpPort() const { return tcp_port_; }

    /**
     * Stop accepting connections and refuse new requests; in-flight
     * requests run to completion and their replies are delivered.
     * Idempotent and callable from any thread.
     */
    void beginDrain();

    /** @return true once beginDrain() happened (signal or client). */
    bool drainRequested() const { return draining_.load(); }

    /** Block until a drain is requested (daemon main loop). */
    void waitForDrainRequest();

    /** Finish the drain: complete work, flush replies, join. */
    void shutdown();

    /** Full counters snapshot (scheduler + connection counters). */
    StatsReply statsSnapshot() const;

    /** Connections evicted by the idle timeout (test observability). */
    std::uint64_t idleEvicted() const { return idle_evicted_.load(); }

    /** Scheduler access for tests (pauseDispatch / resumeDispatch). */
    Scheduler &scheduler() { return *sched_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** Per-connection state; owned and touched by the loop thread only. */
    struct Conn
    {
        std::uint64_t id = 0;
        int fd = -1;
        FrameAssembler assembler;
        std::string wbuf;        ///< encoded replies awaiting the kernel
        std::size_t woff = 0;    ///< flushed prefix of wbuf
        bool busy = false;       ///< one frame executing on a worker
        bool close_after_flush = false;
        /**
         * Peer hung up while its request was executing. The fd leaves
         * the poll set (POLLHUP would otherwise be reported every
         * round against a busy conn's empty event mask, spinning the
         * loop); the completion is dropped and the conn closed.
         */
        bool peer_hup = false;
        Clock::time_point last_activity;
    };

    /** A decoded frame handed to the worker pool. */
    struct Work
    {
        std::uint64_t conn_id = 0;
        MsgType type = MsgType::ErrorReply;
        std::string payload;
    };

    /** A finished reply travelling back to the loop. */
    struct Completion
    {
        std::uint64_t conn_id = 0;
        std::string frame;        ///< complete encoded reply frame
        bool drain_after = false; ///< DrainRequest: drain once delivered
    };

    /** Reply bytes queued on `c` but not yet accepted by the kernel. */
    static std::size_t pending(const Conn &c)
    {
        return c.wbuf.size() - c.woff;
    }

    void eventLoop() THERMCTL_EXCLUDES(work_mutex_, done_mutex_);
    void workerLoop() THERMCTL_EXCLUDES(work_mutex_, done_mutex_);

    void acceptReady(int listen_fd);
    /** @return false when the connection died and was closed. */
    bool readReady(Conn &conn);
    /** Flush wbuf as far as the kernel allows; false = conn closed. */
    bool flushConn(Conn &conn);
    /**
     * Hand the next buffered frame to the workers (one at a time).
     * @return false when the connection was closed (a malformed frame
     * whose courtesy error reply flushed completely closes inline) —
     * the Conn is destroyed and the caller must not touch it.
     */
    [[nodiscard]] bool tryDispatch(Conn &conn);
    void processCompletions() THERMCTL_EXCLUDES(done_mutex_);
    void closeConn(Conn &conn);
    void wakeLoop();

    /** Execute one decoded frame (worker thread); returns the reply. */
    Completion executeFrame(const Work &work);
    PointReply awaitTicket(Scheduler::Ticket ticket);

    ServerOptions opts_;
    std::unique_ptr<Scheduler> sched_;

    int unix_fd_ = -1;
    int tcp_fd_ = -1;
    int tcp_port_ = -1;
    int wake_pipe_[2] = {-1, -1}; ///< unblocks the loop's poll()

    std::atomic<bool> draining_{false};
    std::atomic<bool> stopped_{false};
    /** Pairs with drain_cv_; the waited state itself is draining_. */
    Mutex drain_mutex_;
    CondVar drain_cv_;

    std::thread loop_thread_;

    // Loop-owned state (no lock: only eventLoop() and its helpers).
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
    std::uint64_t next_conn_id_ = 1;
    Clock::time_point drain_started_;
    /** Listeners leave the poll set until then after EMFILE-class
     *  accept failures (otherwise the readable listener spins). */
    Clock::time_point accept_backoff_until_{};

    // Worker pool hand-off.
    Mutex work_mutex_;
    CondVar work_cv_;
    std::deque<Work> work_queue_ THERMCTL_GUARDED_BY(work_mutex_);
    bool workers_stop_ THERMCTL_GUARDED_BY(work_mutex_) = false;
    std::vector<std::thread> workers_;

    Mutex done_mutex_;
    std::deque<Completion> done_queue_ THERMCTL_GUARDED_BY(done_mutex_);

    // Connection/request counters (atomics: touched from many threads).
    std::atomic<std::uint64_t> connections_accepted_{0};
    std::atomic<std::uint64_t> active_connections_{0};
    std::atomic<std::uint64_t> idle_evicted_{0};
    std::atomic<std::uint64_t> requests_total_{0};
    std::atomic<std::uint64_t> run_requests_{0};
    std::atomic<std::uint64_t> sweep_requests_{0};
    std::atomic<std::uint64_t> cache_queries_{0};
    std::chrono::steady_clock::time_point started_;
};

} // namespace thermctl::serve

#endif // THERMCTL_SERVE_SERVER_HH
