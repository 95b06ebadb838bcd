#include "serve/server.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.hh"
#include "common/mutex.hh"
#include "fault/fault.hh"

namespace thermctl::serve
{

namespace
{

/** recv() chunk size only — NOT a flow-control bound: readReady()
 *  keeps reading until EAGAIN or a frame dispatches (busy), so a
 *  connection's buffered-but-undispatched bytes are bounded by one
 *  maximum frame (kMaxFramePayload + header) plus a chunk. */
constexpr std::size_t kReadChunk = 16384;

/** Accept pause after EMFILE-class accept() failures. */
constexpr int kAcceptBackoffMs = 100;

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int
clampTimeoutMs(std::int64_t ms)
{
    if (ms < 0)
        return 0;
    if (ms > std::numeric_limits<int>::max())
        return std::numeric_limits<int>::max();
    return static_cast<int>(ms);
}

} // namespace

std::string
defaultSocketPath()
{
    if (const char *env = std::getenv("THERMCTL_SOCKET"))
        return env;
    if (const char *dir = std::getenv("XDG_RUNTIME_DIR"))
        return std::string(dir) + "/thermctl.sock";
    return "/tmp/thermctl-" + std::to_string(::getuid()) + ".sock";
}

void
ServerOptions::validate() const
{
    if (unix_path.empty() && !tcp)
        fatal("serve: no listener configured (unix path empty, tcp off)");
    if (tcp_port < 0 || tcp_port > 65535)
        fatal("serve: tcp port out of range: ", tcp_port);
    if (backlog <= 0)
        fatal("serve: backlog must be positive");
    if (max_queue == 0)
        fatal("serve: max queue depth must be positive");
    if (dispatchers == 0)
        fatal("serve: dispatcher count must be positive");
    if (workers == 0)
        fatal("serve: worker count must be positive");
    if (max_write_buffer == 0)
        fatal("serve: max write buffer must be positive");
    if (sndbuf < 0)
        fatal("serve: sndbuf must be non-negative");
    if (!fault_plan.empty()) {
        fault::FaultPlan plan;
        std::string error;
        if (!fault::FaultPlan::tryParse(fault_plan, plan, error))
            fatal("serve: bad fault plan: ", error);
    }
}

Scheduler::Options
ServerOptions::schedulerOptions() const
{
    Scheduler::Options sched;
    sched.sweep = sweep;
    sched.max_queue = max_queue;
    sched.dispatchers = dispatchers;
    sched.batch_window_ms = batch_window_ms;
    sched.watchdog_ms = watchdog_ms;
    return sched;
}

Server::Server(const ServerOptions &opts)
    : opts_(opts),
      sched_(std::make_unique<Scheduler>(opts.schedulerOptions())),
      started_(std::chrono::steady_clock::now())
{
}

Server::~Server()
{
    shutdown();
}

void
Server::start()
{
    opts_.validate();

    if (!opts_.fault_plan.empty())
        fault::FaultInjector::instance().arm(
            fault::FaultPlan::parse(opts_.fault_plan));

    if (::pipe(wake_pipe_) != 0)
        fatal("serve: pipe: ", std::strerror(errno));
    setNonBlocking(wake_pipe_[0]);
    setNonBlocking(wake_pipe_[1]);

    if (!opts_.unix_path.empty()) {
        unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (unix_fd_ < 0)
            fatal("serve: socket(AF_UNIX): ", std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts_.unix_path.size() >= sizeof(addr.sun_path))
            fatal("serve: socket path too long: ", opts_.unix_path);
        std::strncpy(addr.sun_path, opts_.unix_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(opts_.unix_path.c_str()); // remove a stale socket
        if (::bind(unix_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr))
            != 0) {
            fatal("serve: bind(", opts_.unix_path,
                  "): ", std::strerror(errno));
        }
        if (::listen(unix_fd_, opts_.backlog) != 0)
            fatal("serve: listen: ", std::strerror(errno));
        setNonBlocking(unix_fd_);
    }

    if (opts_.tcp) {
        tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcp_fd_ < 0)
            fatal("serve: socket(AF_INET): ", std::strerror(errno));
        const int one = 1;
        ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(opts_.tcp_port));
        if (::bind(tcp_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr))
            != 0) {
            fatal("serve: bind(tcp ", opts_.tcp_port,
                  "): ", std::strerror(errno));
        }
        if (::listen(tcp_fd_, opts_.backlog) != 0)
            fatal("serve: listen(tcp): ", std::strerror(errno));
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        ::getsockname(tcp_fd_, reinterpret_cast<sockaddr *>(&bound),
                      &len);
        tcp_port_ = ntohs(bound.sin_port);
        setNonBlocking(tcp_fd_);
    }

    workers_.reserve(opts_.workers);
    for (unsigned i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    loop_thread_ = std::thread([this] { eventLoop(); });
}

void
Server::beginDrain()
{
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true))
        return;
    // Refuse new submissions right away; queued work keeps running.
    sched_->beginDrain();
    wakeLoop();
    MutexLock lock(drain_mutex_);
    drain_cv_.notify_all();
}

void
Server::waitForDrainRequest()
{
    MutexLock lock(drain_mutex_);
    while (!draining_.load())
        drain_cv_.wait(drain_mutex_);
}

void
Server::shutdown()
{
    if (stopped_.exchange(true))
        return;
    beginDrain();

    // The loop owns every socket: it finishes flushing replies (bounded
    // by drain_flush_ms), closes connections, and exits.
    if (loop_thread_.joinable())
        loop_thread_.join();
    closeFd(unix_fd_);
    closeFd(tcp_fd_);
    if (!opts_.unix_path.empty())
        ::unlink(opts_.unix_path.c_str());

    // Let every admitted point finish so workers blocked on scheduler
    // futures wake up, then release the pool.
    sched_->awaitIdle();
    {
        MutexLock lock(work_mutex_);
        workers_stop_ = true;
        work_cv_.notify_all();
    }
    for (auto &w : workers_)
        w.join();
    workers_.clear();

    sched_->stop();
    closeFd(wake_pipe_[0]);
    closeFd(wake_pipe_[1]);

    if (!opts_.fault_plan.empty())
        fault::FaultInjector::instance().disarm();
}

StatsReply
Server::statsSnapshot() const
{
    const SchedulerStats ss = sched_->stats();
    StatsReply s;
    s.requests_total = requests_total_.load();
    s.run_requests = run_requests_.load();
    s.sweep_requests = sweep_requests_.load();
    s.cache_queries = cache_queries_.load();
    s.points_submitted = ss.submitted;
    s.points_simulated = ss.simulated;
    s.cache_hits = ss.cache_hits;
    s.coalesced = ss.coalesced;
    s.rejected_overload = ss.rejected_overload;
    s.rejected_deadline = ss.rejected_deadline;
    s.failed = ss.failed;
    s.stalled = ss.stalled;
    s.queue_depth = ss.queue_depth;
    s.queue_high_water = ss.queue_high_water;
    s.connections_accepted = connections_accepted_.load();
    s.active_connections = active_connections_.load();
    s.uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - started_)
            .count();
    s.latency_count = ss.latency_count;
    s.latency_mean_ms = ss.latency_mean_ms;
    s.latency_p50_ms = ss.latency_p50_ms;
    s.latency_p90_ms = ss.latency_p90_ms;
    s.latency_p99_ms = ss.latency_p99_ms;
    return s;
}

void
Server::wakeLoop()
{
    if (wake_pipe_[1] >= 0) {
        const char b = 1;
        [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
    }
}

// ------------------------------------------------------------ event loop

void
Server::eventLoop()
{
    bool draining = false;
    const auto noteDrain = [&] {
        if (!draining && draining_.load()) {
            draining = true;
            drain_started_ = Clock::now();
        }
    };

    for (;;) {
        noteDrain();

        // ---- build the poll set
        const Clock::time_point now = Clock::now();
        std::vector<pollfd> fds;
        std::vector<std::uint64_t> fd_conn; // parallel; 0 = not a conn
        fds.push_back({wake_pipe_[0], POLLIN, 0});
        fd_conn.push_back(0);
        int unix_slot = -1, tcp_slot = -1;
        const bool accept_paused = accept_backoff_until_ > now;
        if (!draining && !accept_paused) {
            if (unix_fd_ >= 0) {
                unix_slot = static_cast<int>(fds.size());
                fds.push_back({unix_fd_, POLLIN, 0});
                fd_conn.push_back(0);
            }
            if (tcp_fd_ >= 0) {
                tcp_slot = static_cast<int>(fds.size());
                fds.push_back({tcp_fd_, POLLIN, 0});
                fd_conn.push_back(0);
            }
        }
        for (auto &[id, conn] : conns_) {
            if (conn->peer_hup)
                continue; // hung up mid-request: wait for completion
            short events = 0;
            if (pending(*conn) > 0)
                events |= POLLOUT;
            // Readability is the flow-control valve: closed while a
            // request executes, while the write buffer is over the high
            // water, and during drain (no new requests admitted).
            if (!conn->busy && !draining && !conn->close_after_flush
                && conn->wbuf.size() - conn->woff
                       < opts_.max_write_buffer) {
                events |= POLLIN;
            }
            // events == 0 still reports POLLERR/POLLHUP.
            fds.push_back({conn->fd, events, 0});
            fd_conn.push_back(id);
        }

        // ---- compute the poll timeout
        int timeout = -1;
        if (draining) {
            const auto deadline =
                drain_started_
                + std::chrono::milliseconds(opts_.drain_flush_ms);
            timeout = clampTimeoutMs(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - now)
                    .count());
        } else if (opts_.idle_timeout_ms > 0 && !conns_.empty()) {
            std::int64_t soonest =
                std::numeric_limits<std::int64_t>::max();
            for (const auto &[id, conn] : conns_) {
                if (conn->busy)
                    continue; // an executing request is not idle
                const auto deadline =
                    conn->last_activity
                    + std::chrono::milliseconds(opts_.idle_timeout_ms);
                soonest = std::min(
                    soonest,
                    static_cast<std::int64_t>(
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(deadline - now)
                            .count()));
            }
            if (soonest != std::numeric_limits<std::int64_t>::max())
                timeout = clampTimeoutMs(soonest);
        }
        if (!draining && accept_paused) {
            // Wake when the accept backoff expires so the listeners
            // rejoin the poll set even with no other activity.
            const int left = clampTimeoutMs(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    accept_backoff_until_ - now)
                    .count()
                + 1);
            timeout = timeout < 0 ? left : std::min(timeout, left);
        }

        const int rc = ::poll(fds.data(), fds.size(), timeout);
        if (rc < 0 && errno != EINTR) {
            warn("serve: poll: ", std::strerror(errno));
            break;
        }

        // ---- drain the wakeup pipe
        if (rc > 0 && (fds[0].revents & POLLIN)) {
            char buf[64];
            while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
            }
        }
        // beginDrain()'s wake-up may land in an iteration that polled
        // before the flag flipped: re-read it so the drain step below
        // runs now, not after a poll that sleeps the whole flush budget
        // with nothing left to wake it.
        noteDrain();

        processCompletions();

        // ---- accept new connections
        for (int slot : {unix_slot, tcp_slot}) {
            if (slot >= 0 && (fds[slot].revents & POLLIN))
                acceptReady(fds[slot].fd);
        }

        // ---- service connection readiness
        for (std::size_t i = 1; i < fds.size(); ++i) {
            if (fd_conn[i] == 0)
                continue;
            auto it = conns_.find(fd_conn[i]);
            if (it == conns_.end())
                continue; // closed by an earlier step this iteration
            Conn &conn = *it->second;
            const short re = fds[i].revents;
            if (re & (POLLERR | POLLNVAL)) {
                closeConn(conn);
                continue;
            }
            if (re & POLLOUT) {
                if (!flushConn(conn))
                    continue;
                // Dropping below the high water may unblock a buffered
                // request the backpressure gate had parked; dispatching
                // a malformed frame can close the conn inline.
                if (!tryDispatch(conn))
                    continue;
            }
            if ((re & POLLHUP) && conn.busy) {
                // Peer gone while its request executes: leave the poll
                // set (events==0 would re-report POLLHUP every round,
                // spinning the loop) until the completion arrives,
                // which drops the reply and closes.
                conn.peer_hup = true;
                continue;
            }
            // POLLHUP still allows reading what the peer sent before
            // closing; recv() returning 0 finishes the close.
            if ((re & (POLLIN | POLLHUP)) && !readReady(conn))
                continue;
        }

        // ---- idle eviction
        if (!draining && opts_.idle_timeout_ms > 0) {
            const Clock::time_point cutoff =
                Clock::now()
                - std::chrono::milliseconds(opts_.idle_timeout_ms);
            for (auto it = conns_.begin(); it != conns_.end();) {
                Conn &conn = *it->second;
                ++it; // closeConn erases
                if (!conn.busy && conn.last_activity <= cutoff) {
                    idle_evicted_++;
                    closeConn(conn);
                }
            }
        }

        // ---- drain: flush what we owe, then leave
        if (draining) {
            for (auto it = conns_.begin(); it != conns_.end();) {
                Conn &conn = *it->second;
                ++it;
                if (!conn.busy && pending(conn) == 0)
                    closeConn(conn);
            }
            if (conns_.empty())
                break;
            if (Clock::now() - drain_started_
                >= std::chrono::milliseconds(opts_.drain_flush_ms)) {
                warn("serve: drain flush budget exhausted; dropping ",
                     conns_.size(), " connection(s)");
                break;
            }
        }
    }

    // Whatever survives (drain deadline, poll failure) closes now; a
    // late completion for one of these connections is simply dropped.
    for (auto it = conns_.begin(); it != conns_.end();) {
        Conn &conn = *it->second;
        ++it;
        closeConn(conn);
    }
}

void
Server::acceptReady(int listen_fd)
{
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break; // drained the backlog
            if (errno == EINTR || errno == ECONNABORTED)
                continue; // transient, retry now
            // EMFILE/ENFILE/ENOBUFS/...: the listener stays readable,
            // so re-polling immediately would spin. Pause accepts.
            warn("serve: accept: ", std::strerror(errno),
                 " (pausing accepts for ", kAcceptBackoffMs, " ms)");
            accept_backoff_until_ =
                Clock::now()
                + std::chrono::milliseconds(kAcceptBackoffMs);
            break;
        }
        if (THERMCTL_FAULT_POINT("serve.accept").abort()) {
            // Drop the connection before it is serviced; the peer
            // sees a clean close and must reconnect.
            ::close(fd);
            continue;
        }
        setNonBlocking(fd);
        if (opts_.sndbuf > 0) {
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.sndbuf,
                         sizeof(opts_.sndbuf));
        }
        connections_accepted_++;
        active_connections_++;
        auto conn = std::make_unique<Conn>();
        conn->id = next_conn_id_++;
        conn->fd = fd;
        conn->last_activity = Clock::now();
        conns_.emplace(conn->id, std::move(conn));
    }
}

bool
Server::readReady(Conn &conn)
{
    char buf[kReadChunk];
    for (;;) {
        if (conn.busy)
            return true; // flow control: one request at a time
        const fault::FaultDecision d =
            THERMCTL_FAULT_POINT("serve.sock.read");
        if (d.abort()) {
            closeConn(conn); // injected ECONNRESET
            return false;
        }
        if (d.stall()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(d.stall_ms));
        }
        if (d.eintr())
            continue; // as if recv() returned EINTR
        const std::size_t want = d.shortIo() ? 1 : sizeof(buf);
        const ssize_t n = ::recv(conn.fd, buf, want, 0);
        if (n == 0) {
            closeConn(conn); // peer closed
            return false;
        }
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
            if (errno == EINTR)
                continue;
            closeConn(conn);
            return false;
        }
        conn.assembler.feed(
            std::string_view(buf, static_cast<std::size_t>(n)));
        conn.last_activity = Clock::now();
        if (!tryDispatch(conn))
            return false; // malformed frame: error flushed, conn gone
        if (conn.close_after_flush)
            return true; // framing lost: stop reading, flush the error
    }
}

bool
Server::flushConn(Conn &conn)
{
    while (pending(conn) > 0) {
        const fault::FaultDecision d =
            THERMCTL_FAULT_POINT("serve.sock.write");
        if (d.abort()) {
            closeConn(conn); // injected EPIPE
            return false;
        }
        if (d.stall()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(d.stall_ms));
        }
        if (d.eintr())
            continue; // as if send() returned EINTR
        const std::size_t len = d.shortIo() ? 1 : pending(conn);
        const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                                 len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true; // kernel buffer full: wait for POLLOUT
            if (errno == EINTR)
                continue;
            closeConn(conn);
            return false;
        }
        conn.woff += static_cast<std::size_t>(n);
        conn.last_activity = Clock::now();
    }
    conn.wbuf.clear();
    conn.woff = 0;
    if (conn.close_after_flush) {
        closeConn(conn);
        return false;
    }
    return true;
}

bool
Server::tryDispatch(Conn &conn)
{
    if (conn.busy || conn.close_after_flush || draining_.load())
        return true;
    // Backpressure: while the peer is not draining replies, no new
    // work is executed for it, even if requests are already buffered.
    if (pending(conn) >= opts_.max_write_buffer)
        return true;
    MsgType type;
    std::string payload;
    FrameStatus fs = FrameStatus::Ok;
    switch (conn.assembler.next(type, payload, &fs)) {
      case FrameAssembler::Next::NeedMore:
        return true;
      case FrameAssembler::Next::Bad: {
        ErrorReply err;
        err.code = fs == FrameStatus::BadVersion
                       ? ServeError::VersionMismatch
                       : ServeError::BadRequest;
        err.message =
            fs == FrameStatus::BadVersion
                ? "unsupported wire version (server speaks v"
                      + std::to_string(kWireVersion) + ")"
                : "malformed frame header";
        // Best-effort courtesy reply; framing is unrecoverable, so the
        // connection closes once these bytes are out — possibly right
        // here when the flush completes, destroying `conn`.
        conn.wbuf += encodeFrame(MsgType::ErrorReply, err.encode());
        conn.close_after_flush = true;
        return flushConn(conn);
      }
      case FrameAssembler::Next::Frame:
        break;
    }
    conn.busy = true;
    {
        MutexLock lock(work_mutex_);
        work_queue_.push_back(
            Work{conn.id, type, std::move(payload)});
        work_cv_.notify_one();
    }
    return true;
}

void
Server::processCompletions()
{
    std::deque<Completion> done;
    {
        MutexLock lock(done_mutex_);
        done.swap(done_queue_);
    }
    bool drain_after = false;
    for (auto &c : done) {
        auto it = conns_.find(c.conn_id);
        if (it == conns_.end())
            continue; // connection died while its request ran
        Conn &conn = *it->second;
        conn.busy = false;
        if (conn.peer_hup) {
            // The peer hung up while this request ran: drop the reply
            // (a DrainRequest still drains — it was admitted).
            drain_after |= c.drain_after;
            closeConn(conn);
            continue;
        }
        conn.wbuf += c.frame;
        conn.last_activity = Clock::now();
        if (c.drain_after) {
            // DrainRequest: deliver the reply, then close; the drain
            // itself starts once every completion is applied.
            conn.close_after_flush = true;
            drain_after = true;
        }
        if (!flushConn(conn))
            continue;
        // The peer may have pipelined the next request already; the
        // conn is not touched again this round, so a close is fine.
        (void)tryDispatch(conn);
    }
    if (drain_after)
        beginDrain();
}

void
Server::closeConn(Conn &conn)
{
    ::close(conn.fd);
    active_connections_--;
    conns_.erase(conn.id); // destroys conn
}

// ----------------------------------------------------------- worker pool

void
Server::workerLoop()
{
    for (;;) {
        Work work;
        {
            MutexLock lock(work_mutex_);
            while (work_queue_.empty() && !workers_stop_)
                work_cv_.wait(work_mutex_);
            if (work_queue_.empty())
                return; // workers_stop_ and nothing left
            work = std::move(work_queue_.front());
            work_queue_.pop_front();
        }
        Completion done = executeFrame(work);
        {
            MutexLock lock(done_mutex_);
            done_queue_.push_back(std::move(done));
        }
        wakeLoop();
    }
}

PointReply
Server::awaitTicket(Scheduler::Ticket ticket)
{
    const Scheduler::OutcomePtr oc = ticket.future.get();
    PointReply p;
    p.error = oc->error;
    p.message = oc->message;
    if (oc->error == ServeError::None)
        p.result = oc->result;
    p.cache_hit = oc->cache_hit;
    p.coalesced = ticket.coalesced;
    p.server_ms = oc->server_ms;
    p.retry_after_ms = oc->retry_after_ms;
    return p;
}

Server::Completion
Server::executeFrame(const Work &work)
{
    requests_total_++;

    Completion done;
    done.conn_id = work.conn_id;

    auto badRequest = [&](const std::string &msg) {
        ErrorReply err;
        err.code = ServeError::BadRequest;
        err.message = msg;
        done.frame = encodeFrame(MsgType::ErrorReply, err.encode());
        return done;
    };

    switch (work.type) {
      case MsgType::RunRequest: {
        run_requests_++;
        RunRequest req;
        if (!RunRequest::decode(work.payload, req))
            return badRequest("undecodable RunRequest payload");
        RunReply reply;
        try {
            const SweepPoint pt = resolvePoint(req.point, opts_.base);
            reply.point =
                awaitTicket(sched_->submit(pt, req.deadline_ms));
        } catch (const FatalError &e) {
            reply.point.error = ServeError::BadRequest;
            reply.point.message = e.what();
        }
        done.frame = encodeFrame(MsgType::RunReply, reply.encode());
        return done;
      }

      case MsgType::SweepRequest: {
        sweep_requests_++;
        SweepRequest req;
        if (!SweepRequest::decode(work.payload, req)
            || req.benchmarks.empty() || req.policies.empty()) {
            return badRequest("undecodable or empty SweepRequest payload");
        }
        // Submit the whole grid before waiting on any point so the
        // scheduler can batch the points and coalesce
        // duplicates across the grid.
        struct Slot
        {
            bool resolved = false;
            Scheduler::Ticket ticket;
            std::string error;
        };
        const std::vector<PointSpec> cells = req.points();
        std::vector<Slot> slots;
        slots.reserve(cells.size());
        for (const PointSpec &spec : cells) {
            Slot slot;
            try {
                const SweepPoint pt = resolvePoint(spec, opts_.base);
                slot.ticket = sched_->submit(pt, req.deadline_ms);
                slot.resolved = true;
            } catch (const FatalError &e) {
                slot.error = e.what();
            }
            slots.push_back(std::move(slot));
        }
        SweepReply reply;
        reply.points.reserve(slots.size());
        for (auto &slot : slots) {
            if (slot.resolved) {
                reply.points.push_back(
                    awaitTicket(std::move(slot.ticket)));
            } else {
                PointReply p;
                p.error = ServeError::BadRequest;
                p.message = slot.error;
                reply.points.push_back(std::move(p));
            }
        }
        done.frame = encodeFrame(MsgType::SweepReply, reply.encode());
        return done;
      }

      case MsgType::CacheQueryRequest: {
        cache_queries_++;
        CacheQueryRequest req;
        if (!CacheQueryRequest::decode(work.payload, req))
            return badRequest("undecodable CacheQueryRequest payload");
        CacheQueryReply reply;
        try {
            const SweepPoint pt = resolvePoint(req.point, opts_.base);
            reply.digest = pt.digest;
            if (opts_.sweep.use_cache) {
                RunResult ignored;
                reply.cached = sweepCacheLookup(
                    opts_.sweep.effectiveCacheDir(), pt.digest, ignored);
            }
        } catch (const FatalError &e) {
            return badRequest(e.what());
        }
        done.frame =
            encodeFrame(MsgType::CacheQueryReply, reply.encode());
        return done;
      }

      case MsgType::StatsRequest: {
        StatsRequest req;
        if (!StatsRequest::decode(work.payload, req))
            return badRequest("undecodable StatsRequest payload");
        done.frame = encodeFrame(MsgType::StatsReply,
                                 statsSnapshot().encode());
        return done;
      }

      case MsgType::PingRequest: {
        PingRequest req;
        if (!PingRequest::decode(work.payload, req))
            return badRequest("undecodable PingRequest payload");
        // Answered straight from the scheduler counters: no simulation,
        // no cache I/O, so probers can hammer this without perturbing
        // the data plane.
        const SchedulerStats s = sched_->stats();
        PingReply reply;
        reply.version = kWireVersion;
        reply.draining = drainRequested();
        reply.queue_depth = s.queue_depth;
        reply.stalled = s.stalled;
        done.frame = encodeFrame(MsgType::PingReply, reply.encode());
        return done;
      }

      case MsgType::DrainRequest: {
        DrainRequest req;
        if (!DrainRequest::decode(work.payload, req))
            return badRequest("undecodable DrainRequest payload");
        DrainReply reply;
        reply.was_draining = drainRequested();
        done.frame = encodeFrame(MsgType::DrainReply, reply.encode());
        done.drain_after = true;
        return done;
      }

      default:
        return badRequest("unexpected message type on a server socket");
    }
}

} // namespace thermctl::serve
