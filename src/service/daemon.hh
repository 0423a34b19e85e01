/**
 * @file
 * The archvald daemon: socket listeners, connection handling and
 * verb dispatch on top of the JobManager.
 *
 * The daemon listens on a Unix-domain socket and/or a loopback TCP
 * port (tests use port 0 and read the bound port back). Each
 * accepted connection gets its own reader thread running the
 * FrameReader loop; job events are written back by JobManager worker
 * threads through a per-connection write lock, so events of
 * concurrent jobs interleave frame-atomically on the wire.
 *
 * A connection is a failure domain: a malformed frame or non-JSON
 * payload fails only that connection (one final `error` frame, then
 * close), and a disconnect cancels the jobs the connection submitted
 * — their sinks go quiet, the daemon itself is untouched.
 *
 * Lifecycle: start() binds the listeners, wait() blocks until a
 * `shutdown` verb or stop() flips the stop flag, then tears
 * everything down in order: stop accepting, drain/cancel jobs,
 * shut down connections, join every thread.
 */

#ifndef ARCHVAL_SERVICE_DAEMON_HH
#define ARCHVAL_SERVICE_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/job_manager.hh"
#include "service/session_cache.hh"

namespace archval::service
{

class Daemon
{
  public:
    struct Options
    {
        /** Unix-domain socket path; empty disables the listener. A
         *  stale socket file at the path is replaced. */
        std::string unixPath;
        /** Loopback TCP port; -1 disables, 0 picks an ephemeral
         *  port (read it back with tcpPort()). */
        int tcpPort = -1;
        unsigned workers = 2;    ///< concurrent job executors
        size_t maxSessions = 4;  ///< session cache capacity
        /** Session persistence directory (see service::SessionStore);
         *  empty keeps sessions memory-only, so a restart rebuilds
         *  everything cold. */
        std::string sessionDir;
        /** On-disk size cap for sessionDir's record files, in bytes
         *  (0 = unlimited). Least-recently-used session files are
         *  evicted after each save; an evicted fingerprint rebuilds
         *  cold on its next job. */
        size_t sessionDirCapBytes = 0;
        /** Admission-control bound on jobs queued (not running)
         *  across all clients; a submit past the bound is answered
         *  with a `busy` error frame (JobManager::kDefaultQueueBound
         *  when 0). */
        size_t queueBound = 0;
        /** Prometheus scrape port (`GET /metrics` on loopback);
         *  -1 disables, 0 picks an ephemeral port (read it back
         *  with metricsPort()). */
        int metricsPort = -1;
        /** Flight-recorder crash-report directory; empty disables
         *  crash dumps (the event ring still records). */
        std::string crashDir;
    };

    explicit Daemon(const Options &options);

    /** Stops and joins if still running. */
    ~Daemon();

    /** Bind + listen + spawn the accept threads. @return an error
     *  message, or empty on success. */
    std::string start();

    /** Block until stop() (e.g. via the `shutdown` verb), then tear
     *  down: cancel jobs, close connections, join all threads. */
    void wait();

    /** Request shutdown; safe from any thread, idempotent. wait()
     *  performs the actual teardown. */
    void stop();

    /** Actual TCP port after start() (for Options::tcpPort == 0). */
    int tcpPort() const { return boundTcpPort_; }

    /** Actual Prometheus port after start() (-1 when disabled). */
    int metricsPort() const;

    SessionCache &sessions() { return sessions_; }
    JobManager &jobs() { return *jobs_; }

    /** The `stats` verb's reply frame (also used by tests): queue
     *  overview, session-cache health, process memory, uptime and
     *  the full metrics registry as canonical JSON. */
    json::Value statsFrame() const;

  private:
    struct Connection;

    void acceptLoop(int listen_fd);
    void serveConnection(std::shared_ptr<Connection> conn);
    void handleMessage(const std::shared_ptr<Connection> &conn,
                       const json::Value &message);
    /** Refresh snapshot-derived gauges (memory, sessions, uptime)
     *  so stats frames and scrapes are never stale. */
    void refreshObservabilityGauges() const;

    Options options_;
    SessionCache sessions_;
    std::unique_ptr<JobManager> jobs_;
    std::unique_ptr<class MetricsHttpServer> metricsServer_;
    uint64_t startNs_ = 0;

    int unixFd_ = -1;
    int tcpFd_ = -1;
    int boundTcpPort_ = -1;
    std::atomic<uint64_t> nextConnId_{1}; ///< JobManager client keys
    std::vector<std::thread> acceptThreads_;

    std::mutex mutex_; ///< guards conns_, connThreads_, stopped_,
                       ///< and stop()'s listener shutdown
    std::condition_variable stopCv_;
    std::atomic<bool> stopping_{false};
    bool stopped_ = false; ///< teardown already ran
    std::vector<std::shared_ptr<Connection>> conns_;
    std::vector<std::thread> connThreads_;
};

} // namespace archval::service

#endif // ARCHVAL_SERVICE_DAEMON_HH
