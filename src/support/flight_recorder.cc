#include "flight_recorder.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <csignal>
#include <ctime>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <unistd.h>

#include "logging.hh"
#include "strings.hh"
#include "telemetry.hh"

namespace archval::flight
{

namespace
{

constexpr size_t kDetailBytes = 48;

/**
 * One ring slot. Every field is an atomic so concurrent writers and
 * the dump reader are race-free by construction; the `seq` stamp
 * makes torn reads *detectable*: a writer stores `2*ticket + 1`
 * before and `2*ticket + 2` after the payload, so a reader that sees
 * anything but the even stamp it expects (before and after reading
 * the payload) knows the slot was mid-write or already recycled.
 */
struct Slot
{
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> kindAndLen{0}; ///< kind | detailLen << 32
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint64_t> detail[kDetailBytes / 8];
};

struct Ring
{
    size_t capacity = 0;
    size_t mask = 0;
    std::atomic<uint64_t> head{0}; ///< next ticket to claim
    std::unique_ptr<Slot[]> slots;
};

struct Global
{
    std::atomic<bool> enabled{false};
    std::atomic<Ring *> ring{nullptr}; ///< set once, leaked

    std::mutex mutex; ///< init/shutdown + options
    FlightRecorderOptions options;

    int pipeFds[2] = {-1, -1};
    std::thread watcher;
    bool watcherRunning = false;

    struct sigaction prevSigusr1 = {};
    bool sigusr1Installed = false;

    std::terminate_handler prevTerminate = nullptr;
    bool terminateInstalled = false;
};

/** Leaked on purpose: the terminate handler and late recorders must
 *  outlive static destruction. */
Global &
global()
{
    static Global *g = new Global;
    return *g;
}

/** Self-pipe write end for the async-signal-safe SIGUSR1 handler. */
std::atomic<int> gSignalFd{-1};

extern "C" void
sigusr1Handler(int)
{
    int saved_errno = errno;
    int fd = gSignalFd.load(std::memory_order_relaxed);
    if (fd >= 0) {
        char byte = 'd';
        // Best-effort: a full pipe just coalesces dump requests.
        [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
    }
    errno = saved_errno;
}

void
terminateHandler()
{
    std::string reason = "std::terminate";
    if (std::exception_ptr current = std::current_exception()) {
        try {
            std::rethrow_exception(current);
        } catch (const std::exception &e) {
            reason += ": ";
            reason += e.what();
        } catch (...) {
            reason += ": non-std exception";
        }
    }
    dumpFlightRecorderToFile(reason);
    std::terminate_handler prev;
    {
        // No lock: terminate may fire with arbitrary locks held.
        prev = global().prevTerminate;
    }
    if (prev && prev != terminateHandler)
        prev();
    std::abort();
}

size_t
roundUpPow2(size_t value)
{
    size_t out = 64;
    while (out < value)
        out <<= 1;
    return out;
}

struct DecodedEvent
{
    uint64_t ticket = 0;
    uint64_t ns = 0;
    EventKind kind = EventKind::None;
    uint64_t a = 0;
    uint64_t b = 0;
    std::string detail;
    bool torn = false;
};

/** Read the ring's recent events, oldest first. Concurrent writers
 *  keep running; slots they touch mid-read come back `torn`. */
std::vector<DecodedEvent>
readRing(Ring &ring)
{
    std::vector<DecodedEvent> out;
    uint64_t head = ring.head.load(std::memory_order_acquire);
    uint64_t first =
        head > ring.capacity ? head - ring.capacity : 0;
    out.reserve(head - first);
    for (uint64_t ticket = first; ticket < head; ++ticket) {
        Slot &slot = ring.slots[ticket & ring.mask];
        DecodedEvent ev;
        ev.ticket = ticket;
        uint64_t expect = 2 * ticket + 2;
        uint64_t s1 = slot.seq.load(std::memory_order_acquire);
        if (s1 != expect) {
            ev.torn = true;
            out.push_back(std::move(ev));
            continue;
        }
        ev.ns = slot.ns.load(std::memory_order_relaxed);
        uint64_t kind_len =
            slot.kindAndLen.load(std::memory_order_relaxed);
        ev.kind = static_cast<EventKind>(kind_len & 0xffffffffu);
        size_t len = std::min<size_t>(kind_len >> 32, kDetailBytes);
        ev.a = slot.a.load(std::memory_order_relaxed);
        ev.b = slot.b.load(std::memory_order_relaxed);
        char detail[kDetailBytes];
        for (size_t i = 0; i < kDetailBytes / 8; ++i) {
            uint64_t word =
                slot.detail[i].load(std::memory_order_relaxed);
            std::memcpy(detail + i * 8, &word, 8);
        }
        uint64_t s2 = slot.seq.load(std::memory_order_acquire);
        if (s2 != expect) {
            ev.torn = true;
            ev.detail.clear();
        } else {
            ev.detail.assign(detail, len);
        }
        out.push_back(std::move(ev));
    }
    return out;
}

std::string
jsonQuote(std::string_view text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += formatString("\\u%04x", c);
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

void
watcherLoop(int read_fd)
{
    for (;;) {
        char byte = 0;
        ssize_t n = ::read(read_fd, &byte, 1);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0 || byte == 'q')
            return;
        if (byte == 'd') {
            recordEvent(EventKind::Signal, SIGUSR1, 0, "SIGUSR1");
            std::string path = dumpFlightRecorderToFile("SIGUSR1");
            if (!path.empty())
                logInfo("flight recorder dumped to " + path);
        }
    }
}

} // namespace

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::None: return "none";
      case EventKind::JobAccepted: return "job_accepted";
      case EventKind::JobStarted: return "job_started";
      case EventKind::JobProgress: return "job_progress";
      case EventKind::JobDone: return "job_done";
      case EventKind::JobFailed: return "job_failed";
      case EventKind::JobCancelled: return "job_cancelled";
      case EventKind::JobRejected: return "job_rejected";
      case EventKind::FrameError: return "frame_error";
      case EventKind::SpillFallback: return "spill_fallback";
      case EventKind::SessionRestoreFailure:
          return "session_restore_failure";
      case EventKind::SessionEvicted: return "session_evicted";
      case EventKind::Fatal: return "fatal";
      case EventKind::Signal: return "signal";
      case EventKind::ConnectionOpen: return "connection_open";
      case EventKind::ConnectionClosed: return "connection_closed";
    }
    return "unknown";
}

bool
flightRecorderEnabled()
{
    return global().enabled.load(std::memory_order_relaxed);
}

void
recordEvent(EventKind kind, uint64_t a, uint64_t b,
            std::string_view detail)
{
    Global &g = global();
    if (!g.enabled.load(std::memory_order_relaxed))
        return;
    Ring *ring = g.ring.load(std::memory_order_acquire);
    if (!ring)
        return;
    uint64_t ticket =
        ring->head.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = ring->slots[ticket & ring->mask];
    slot.seq.store(2 * ticket + 1, std::memory_order_release);
    slot.ns.store(telemetry::nowNs(), std::memory_order_relaxed);
    size_t len = std::min(detail.size(), kDetailBytes);
    slot.kindAndLen.store(static_cast<uint64_t>(kind) |
                              (uint64_t(len) << 32),
                          std::memory_order_relaxed);
    slot.a.store(a, std::memory_order_relaxed);
    slot.b.store(b, std::memory_order_relaxed);
    char padded[kDetailBytes] = {};
    // An empty detail may have a null data(); memcpy forbids a null
    // source even for zero bytes.
    if (len > 0)
        std::memcpy(padded, detail.data(), len);
    for (size_t i = 0; i < kDetailBytes / 8; ++i) {
        uint64_t word;
        std::memcpy(&word, padded + i * 8, 8);
        slot.detail[i].store(word, std::memory_order_relaxed);
    }
    slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

uint64_t
droppedFlightEvents()
{
    Ring *ring = global().ring.load(std::memory_order_acquire);
    if (!ring)
        return 0;
    uint64_t head = ring->head.load(std::memory_order_relaxed);
    return head > ring->capacity ? head - ring->capacity : 0;
}

std::string
dumpFlightRecorder(const std::string &reason)
{
    Global &g = global();
    std::string out = "{\n";
    out += "  \"reason\": " + jsonQuote(reason) + ",\n";
    out += formatString("  \"pid\": %d,\n", (int)::getpid());
    out += formatString("  \"unixTime\": %lld,\n",
                        (long long)::time(nullptr));
    out += formatString("  \"monotonicNs\": %llu,\n",
                        (unsigned long long)telemetry::nowNs());
    out += formatString(
        "  \"droppedEvents\": %llu,\n",
        (unsigned long long)droppedFlightEvents());

    out += "  \"events\": [";
    Ring *ring = g.ring.load(std::memory_order_acquire);
    bool first = true;
    if (ring) {
        for (const DecodedEvent &ev : readRing(*ring)) {
            out += first ? "\n" : ",\n";
            first = false;
            if (ev.torn) {
                out += formatString(
                    "    {\"seq\": %llu, \"torn\": true}",
                    (unsigned long long)ev.ticket);
                continue;
            }
            out += formatString(
                "    {\"seq\": %llu, \"ns\": %llu, \"kind\": %s, "
                "\"a\": %llu, \"b\": %llu",
                (unsigned long long)ev.ticket,
                (unsigned long long)ev.ns,
                jsonQuote(eventKindName(ev.kind)).c_str(),
                (unsigned long long)ev.a, (unsigned long long)ev.b);
            if (!ev.detail.empty())
                out += ", \"detail\": " + jsonQuote(ev.detail);
            out += "}";
        }
    }
    out += first ? "],\n" : "\n  ],\n";

    std::function<std::string()> jobs;
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        jobs = g.options.activeJobsJson;
    }
    std::string jobs_json = "[]";
    if (jobs) {
        try {
            jobs_json = jobs();
        } catch (...) {
            jobs_json = "[]";
        }
    }
    out += "  \"activeJobs\": " + jobs_json + ",\n";
    out += "  \"metrics\": " +
           telemetry::metricsJson(telemetry::snapshotMetrics()) +
           "\n";
    out += "}\n";
    return out;
}

std::string
dumpFlightRecorderToFile(const std::string &reason)
{
    Global &g = global();
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        dir = g.options.crashDir;
    }
    if (dir.empty())
        return std::string();
    std::string body = dumpFlightRecorder(reason);
    std::string path = formatString(
        "%s/crash-%lld-%d.json", dir.c_str(),
        (long long)::time(nullptr), (int)::getpid());
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return std::string();
    size_t written = std::fwrite(body.data(), 1, body.size(), file);
    bool ok = std::fclose(file) == 0 && written == body.size();
    return ok ? path : std::string();
}

void
initFlightRecorder(const FlightRecorderOptions &options)
{
    Global &g = global();
    std::lock_guard<std::mutex> lock(g.mutex);
    g.options = options;
    if (!g.ring.load(std::memory_order_acquire)) {
        Ring *ring = new Ring; // leaked with the Global singleton
        ring->capacity = roundUpPow2(options.ringCapacity);
        ring->mask = ring->capacity - 1;
        ring->slots = std::make_unique<Slot[]>(ring->capacity);
        g.ring.store(ring, std::memory_order_release);
    }
    if (options.handleSigusr1 && !g.sigusr1Installed) {
        if (::pipe(g.pipeFds) == 0) {
            gSignalFd.store(g.pipeFds[1], std::memory_order_relaxed);
            g.watcher = std::thread(watcherLoop, g.pipeFds[0]);
            g.watcherRunning = true;
            struct sigaction action = {};
            action.sa_handler = sigusr1Handler;
            sigemptyset(&action.sa_mask);
            action.sa_flags = SA_RESTART;
            ::sigaction(SIGUSR1, &action, &g.prevSigusr1);
            g.sigusr1Installed = true;
        } else {
            logWarn("flight recorder: pipe() failed; SIGUSR1 dumps "
                    "disabled");
        }
    }
    if (options.handleTerminate && !g.terminateInstalled) {
        g.prevTerminate = std::set_terminate(terminateHandler);
        g.terminateInstalled = true;
    }
    g.enabled.store(true, std::memory_order_release);
}

void
shutdownFlightRecorder()
{
    Global &g = global();
    std::lock_guard<std::mutex> lock(g.mutex);
    g.enabled.store(false, std::memory_order_release);
    if (g.sigusr1Installed) {
        ::sigaction(SIGUSR1, &g.prevSigusr1, nullptr);
        g.sigusr1Installed = false;
    }
    if (g.watcherRunning) {
        gSignalFd.store(-1, std::memory_order_relaxed);
        char byte = 'q';
        [[maybe_unused]] ssize_t n =
            ::write(g.pipeFds[1], &byte, 1);
        g.watcher.join();
        g.watcherRunning = false;
        ::close(g.pipeFds[0]);
        ::close(g.pipeFds[1]);
        g.pipeFds[0] = g.pipeFds[1] = -1;
    }
    if (g.terminateInstalled) {
        if (g.prevTerminate)
            std::set_terminate(g.prevTerminate);
        g.terminateInstalled = false;
    }
}

} // namespace archval::flight
