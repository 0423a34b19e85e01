#include "ooc.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <optional>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "compile/kernel.hh"
#include "fsm/model.hh"
#include "support/record_file.hh"
#include "support/status.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace archval::murphi::ooc
{

namespace
{

/** States per batch record / response chunk: big enough to amortize
 *  the record framing, small enough to keep resident buffers flat. */
constexpr size_t kBatchStates = 512;

/** Largest pipe frame either side will believe. A level whose
 *  expansion exceeds this degrades to in-process expansion of that
 *  slice, it does not crash or truncate. */
constexpr uint64_t kMaxOocFrameBytes = 1ull << 30;

/** Pipe commands (first payload byte of a parent->child frame). */
constexpr uint8_t kCmdExpand = 1;
constexpr uint8_t kCmdShutdown = 2;

/** Response status (first payload byte of a child->parent frame). */
constexpr uint8_t kRespOk = 0;
constexpr uint8_t kRespOverflow = 1;

size_t
wordsFor(size_t state_bits)
{
    return (state_bits + 63) / 64;
}

void
packU32(std::vector<uint8_t> &out, uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void
packU64(std::vector<uint8_t> &out, uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

void
packState(std::vector<uint8_t> &out, const BitVec &state,
          size_t state_bits)
{
    const size_t words = wordsFor(state_bits);
    for (size_t w = 0; w < words; ++w) {
        const size_t lsb = w * 64;
        const size_t width = std::min<size_t>(64, state_bits - lsb);
        packU64(out, state.getField(lsb, width));
    }
}

/** Bounds-checked little-endian reader; any overrun flips ok. */
struct Reader
{
    const uint8_t *data;
    size_t size;
    size_t pos = 0;
    bool ok = true;

    size_t remaining() const { return size - pos; }

    uint8_t
    u8()
    {
        if (!ok || remaining() < 1) {
            ok = false;
            return 0;
        }
        return data[pos++];
    }

    uint32_t
    u32()
    {
        if (!ok || remaining() < 4) {
            ok = false;
            return 0;
        }
        uint32_t value = 0;
        for (int i = 0; i < 4; ++i)
            value |= uint32_t(data[pos + i]) << (8 * i);
        pos += 4;
        return value;
    }

    uint64_t
    u64()
    {
        if (!ok || remaining() < 8) {
            ok = false;
            return 0;
        }
        uint64_t value = 0;
        for (int i = 0; i < 8; ++i)
            value |= uint64_t(data[pos + i]) << (8 * i);
        pos += 8;
        return value;
    }

    BitVec
    state(size_t state_bits)
    {
        BitVec out(state_bits);
        const size_t words = wordsFor(state_bits);
        for (size_t w = 0; w < words; ++w) {
            const size_t lsb = w * 64;
            const size_t width =
                std::min<size_t>(64, state_bits - lsb);
            out.setField(lsb, width, u64());
        }
        return out;
    }

    std::string
    str(size_t len)
    {
        if (!ok || remaining() < len) {
            ok = false;
            return {};
        }
        std::string out(reinterpret_cast<const char *>(data + pos),
                        len);
        pos += len;
        return out;
    }
};

/** Span record inside a kRespOk frame:
 *  `[nameLen u64][name][startNs u64][durNs u64][jobId u64]`. */
void
packSpan(std::vector<uint8_t> &out, const telemetry::ForeignSpan &s)
{
    packU64(out, s.name.size());
    out.insert(out.end(), s.name.begin(), s.name.end());
    packU64(out, s.startNs);
    packU64(out, s.durNs);
    packU64(out, s.jobId);
}

bool
writeAllFd(int fd, const uint8_t *data, size_t size)
{
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        size -= static_cast<size_t>(n);
    }
    return true;
}

bool
readAllFd(int fd, uint8_t *data, size_t size)
{
    while (size > 0) {
        const ssize_t n = ::read(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-frame: peer died
        data += n;
        size -= static_cast<size_t>(n);
    }
    return true;
}

/** One frame: [len u32][crc u32][payload]. The length prefix is the
 *  same discipline as service/protocol; the CRC makes a half-written
 *  frame from a killed worker read as damage, not as data. */
bool
sendFrame(int fd, const std::vector<uint8_t> &payload)
{
    if (payload.size() > kMaxOocFrameBytes)
        return false;
    uint8_t header[8];
    for (int i = 0; i < 4; ++i)
        header[i] = static_cast<uint8_t>(payload.size() >> (8 * i));
    const uint32_t crc = crc32(payload.data(), payload.size());
    for (int i = 0; i < 4; ++i)
        header[4 + i] = static_cast<uint8_t>(crc >> (8 * i));
    return writeAllFd(fd, header, sizeof(header)) &&
           writeAllFd(fd, payload.data(), payload.size());
}

bool
recvFrame(int fd, std::vector<uint8_t> &payload)
{
    uint8_t header[8];
    if (!readAllFd(fd, header, sizeof(header)))
        return false;
    uint64_t len = 0;
    uint32_t crc = 0;
    for (int i = 0; i < 4; ++i)
        len |= uint64_t(header[i]) << (8 * i);
    for (int i = 0; i < 4; ++i)
        crc |= uint32_t(header[4 + i]) << (8 * i);
    if (len > kMaxOocFrameBytes)
        return false;
    payload.resize(len);
    if (!readAllFd(fd, payload.data(), len))
        return false;
    return crc32(payload.data(), payload.size()) == crc;
}

} // namespace

// --- Spill scratch directory ----------------------------------------

SpillDir::SpillDir(const std::string &base)
{
    std::string root = base;
    if (root.empty()) {
        const char *tmp = std::getenv("TMPDIR");
        root = tmp && *tmp ? tmp : "/tmp";
    } else {
        ::mkdir(root.c_str(), 0777); // EEXIST is fine
    }
    std::string templ = root + "/archval-enum-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr)
        path_ = buf.data();
}

SpillDir::~SpillDir()
{
    if (path_.empty())
        return;
    if (DIR *dir = ::opendir(path_.c_str())) {
        while (struct dirent *entry = ::readdir(dir)) {
            const std::string name = entry->d_name;
            if (name == "." || name == "..")
                continue;
            ::unlink((path_ + "/" + name).c_str());
        }
        ::closedir(dir);
    }
    ::rmdir(path_.c_str());
}

// --- Frontier spill files -------------------------------------------

std::string
frontierPath(const std::string &dir, size_t level)
{
    return formatString("%s/frontier-%06zu.avf", dir.c_str(), level);
}

bool
writeFrontierFile(const std::string &path, uint64_t level,
                  size_t state_bits,
                  const std::vector<BitVec> &states,
                  uint64_t *bytes_written)
{
    RecordFileWriter writer(path, kFrontierMagic, kSpillVersion);
    std::vector<uint8_t> rec;
    packU64(rec, level);
    packU64(rec, state_bits);
    packU64(rec, states.size());
    bool ok = writer.append(rec);
    for (size_t i = 0; i < states.size() && ok; i += kBatchStates) {
        const size_t n =
            std::min(kBatchStates, states.size() - i);
        rec.clear();
        packU64(rec, n);
        for (size_t k = 0; k < n; ++k)
            packState(rec, states[i + k], state_bits);
        ok = writer.append(rec);
    }
    const uint64_t bytes = writer.bytesWritten();
    ok = ok && writer.commit();
    if (ok && bytes_written)
        *bytes_written += bytes;
    return ok;
}

bool
readFrontierFile(const std::string &path, uint64_t level,
                 size_t state_bits, size_t expect_count,
                 std::vector<BitVec> &out)
{
    out.clear();
    RecordFileReader reader(path, kFrontierMagic, kSpillVersion);
    if (!reader.ok())
        return false;
    using RS = RecordFileReader::Status;
    std::vector<uint8_t> rec;
    if (reader.next(rec) != RS::Record)
        return false;
    Reader header{rec.data(), rec.size()};
    const uint64_t file_level = header.u64();
    const uint64_t file_bits = header.u64();
    const uint64_t file_count = header.u64();
    if (!header.ok || header.pos != header.size ||
        file_level != level || file_bits != state_bits ||
        file_count != expect_count)
        return false;
    out.reserve(expect_count);
    const size_t state_bytes = wordsFor(state_bits) * 8;
    RS status;
    while ((status = reader.next(rec)) == RS::Record) {
        Reader in{rec.data(), rec.size()};
        const uint64_t n = in.u64();
        if (!in.ok || n * state_bytes != in.remaining() ||
            out.size() + n > expect_count) {
            out.clear();
            return false;
        }
        for (uint64_t k = 0; k < n; ++k)
            out.push_back(in.state(state_bits));
    }
    if (status != RS::End || out.size() != expect_count) {
        out.clear();
        return false;
    }
    return true;
}

// --- Shard (table partition) spill files ----------------------------

std::string
shardPath(const std::string &dir, size_t partition)
{
    return formatString("%s/shard-%04zx.avp", dir.c_str(),
                        partition);
}

bool
writeShardFile(const std::string &path, uint64_t partition,
               size_t state_bits, const StateMap &table,
               uint64_t *bytes_written)
{
    RecordFileWriter writer(path, kShardMagic, kSpillVersion);
    std::vector<uint8_t> rec;
    packU64(rec, partition);
    packU64(rec, state_bits);
    packU64(rec, table.size());
    bool ok = writer.append(rec);
    rec.clear();
    uint64_t in_batch = 0;
    std::vector<uint8_t> batch;
    for (auto it = table.begin(); it != table.end() && ok; ++it) {
        packU32(batch, it->second);
        packState(batch, it->first, state_bits);
        if (++in_batch == kBatchStates) {
            rec.clear();
            packU64(rec, in_batch);
            rec.insert(rec.end(), batch.begin(), batch.end());
            ok = writer.append(rec);
            batch.clear();
            in_batch = 0;
        }
    }
    if (ok && in_batch > 0) {
        rec.clear();
        packU64(rec, in_batch);
        rec.insert(rec.end(), batch.begin(), batch.end());
        ok = writer.append(rec);
    }
    const uint64_t bytes = writer.bytesWritten();
    ok = ok && writer.commit();
    if (ok && bytes_written)
        *bytes_written += bytes;
    return ok;
}

bool
readShardFile(const std::string &path, uint64_t partition,
              size_t state_bits,
              const std::function<void(BitVec &&, graph::StateId)>
                  &sink)
{
    RecordFileReader reader(path, kShardMagic, kSpillVersion);
    if (!reader.ok())
        return false;
    using RS = RecordFileReader::Status;
    std::vector<uint8_t> rec;
    if (reader.next(rec) != RS::Record)
        return false;
    Reader header{rec.data(), rec.size()};
    const uint64_t file_partition = header.u64();
    const uint64_t file_bits = header.u64();
    const uint64_t file_count = header.u64();
    if (!header.ok || header.pos != header.size ||
        file_partition != partition || file_bits != state_bits)
        return false;
    const size_t entry_bytes = 4 + wordsFor(state_bits) * 8;
    uint64_t seen = 0;
    RS status;
    while ((status = reader.next(rec)) == RS::Record) {
        Reader in{rec.data(), rec.size()};
        const uint64_t n = in.u64();
        if (!in.ok || n * entry_bytes != in.remaining() ||
            seen + n > file_count)
            return false;
        for (uint64_t k = 0; k < n; ++k) {
            const graph::StateId id = in.u32();
            sink(in.state(state_bits), id);
        }
        seen += n;
    }
    return status == RS::End && seen == file_count;
}

// --- Forked expansion workers ---------------------------------------

ProcessPool::ProcessPool(
    const fsm::Model &model,
    std::shared_ptr<const compile::Program> program, bool bit_sliced,
    unsigned processes, size_t state_bits)
    : model_(model), program_(std::move(program)),
      bitSliced_(bit_sliced), stateBits_(state_bits)
{
    // Pin the span-clock epoch before forking: children inherit the
    // initialized static, so their span timestamps land on the same
    // timeline as the parent's when shipped back.
    telemetry::nowNs();

    // Writes to a dead worker's pipe must come back as EPIPE, not a
    // process-killing SIGPIPE. Only replace the default disposition;
    // a host (the daemon) that already handles SIGPIPE keeps its
    // handler.
    struct sigaction current
    {
    };
    if (::sigaction(SIGPIPE, nullptr, &current) == 0 &&
        current.sa_handler == SIG_DFL) {
        current.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &current, nullptr);
    }

    workers_.resize(processes);
    for (unsigned w = 0; w < processes; ++w) {
        int req[2] = {-1, -1};
        int resp[2] = {-1, -1};
        if (::pipe(req) != 0)
            continue;
        if (::pipe(resp) != 0) {
            ::close(req[0]);
            ::close(req[1]);
            continue;
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(req[0]);
            ::close(req[1]);
            ::close(resp[0]);
            ::close(resp[1]);
            continue;
        }
        if (pid == 0) {
            // Child: keep only this worker's pipe ends. Never
            // returns; exits via _exit so no inherited atexit
            // machinery (telemetry flush, stdio) runs twice.
            ::close(req[1]);
            ::close(resp[0]);
            for (unsigned p = 0; p < w; ++p) {
                ::close(workers_[p].toChild);
                ::close(workers_[p].fromChild);
            }
            childLoop(req[0], resp[1]);
        }
        ::close(req[0]);
        ::close(resp[1]);
        workers_[w] = Worker{static_cast<int>(pid), req[1], resp[0],
                             true};
    }
}

ProcessPool::~ProcessPool()
{
    std::vector<uint8_t> shutdown{kCmdShutdown};
    for (unsigned w = 0; w < workers_.size(); ++w) {
        Worker &worker = workers_[w];
        if (worker.alive) {
            sendFrame(worker.toChild, shutdown); // best-effort
            ::close(worker.toChild);
            ::close(worker.fromChild);
            worker.alive = false;
        }
        if (worker.pid > 0) {
            int status = 0;
            ::waitpid(worker.pid, &status, 0);
            worker.pid = -1;
        }
    }
}

std::vector<int>
ProcessPool::pids() const
{
    std::vector<int> out;
    out.reserve(workers_.size());
    for (const Worker &worker : workers_)
        out.push_back(worker.alive ? worker.pid : -1);
    return out;
}

void
ProcessPool::markDead(unsigned w)
{
    Worker &worker = workers_[w];
    if (!worker.alive)
        return;
    ::close(worker.toChild);
    ::close(worker.fromChild);
    worker.alive = false;
    if (worker.pid > 0) {
        int status = 0;
        ::waitpid(worker.pid, &status, 0);
        worker.pid = -1;
    }
}

bool
ProcessPool::sendBatch(unsigned w, const BitVec *const *states,
                       size_t count)
{
    if (!workers_[w].alive)
        return false;
    std::vector<uint8_t> payload;
    payload.reserve(1 + 16 + count * wordsFor(stateBits_) * 8);
    payload.push_back(kCmdExpand);
    packU64(payload, telemetry::currentJobId());
    packU64(payload, count);
    for (size_t i = 0; i < count; ++i)
        packState(payload, *states[i], stateBits_);
    if (!sendFrame(workers_[w].toChild, payload)) {
        markDead(w);
        return false;
    }
    return true;
}

bool
ProcessPool::recvBatch(unsigned w, Expansion &out)
{
    out = Expansion{};
    if (!workers_[w].alive)
        return false;
    std::vector<uint8_t> payload;
    if (!recvFrame(workers_[w].fromChild, payload)) {
        markDead(w);
        return false;
    }
    Reader in{payload.data(), payload.size()};
    const uint8_t status = in.u8();
    if (!in.ok || status != kRespOk) {
        // kRespOverflow is an honest "too big for one frame": the
        // worker stays alive, the caller re-expands in-process.
        if (!in.ok)
            markDead(w);
        return false;
    }
    out.fallbackLanes = in.u64();
    const uint64_t nsrc = in.u64();
    if (!in.ok || nsrc * 8 > in.remaining()) {
        markDead(w);
        return false;
    }
    out.perSource.resize(nsrc);
    uint64_t total = 0;
    for (uint64_t i = 0; i < nsrc; ++i) {
        out.perSource[i] = in.u64();
        total += out.perSource[i];
    }
    // The span section (its count word at minimum) follows the
    // transitions, so "remaining" must cover both.
    const size_t trans_bytes = 8 + 4 + wordsFor(stateBits_) * 8;
    if (!in.ok || in.remaining() < 8 ||
        (in.remaining() - 8) / trans_bytes < total) {
        markDead(w);
        return false;
    }
    out.codes.reserve(total);
    out.instrs.reserve(total);
    out.states.reserve(total);
    for (uint64_t t = 0; t < total; ++t) {
        out.codes.push_back(in.u64());
        out.instrs.push_back(in.u32());
        out.states.push_back(in.state(stateBits_));
    }
    const uint64_t nspans = in.u64();
    // 32 bytes is the smallest possible span record (empty name);
    // divide instead of multiply so a hostile count cannot wrap.
    if (!in.ok || nspans > in.remaining() / 32) {
        markDead(w);
        return false;
    }
    out.spans.reserve(nspans);
    for (uint64_t s = 0; s < nspans; ++s) {
        telemetry::ForeignSpan span;
        span.name = in.str(in.u64());
        span.startNs = in.u64();
        span.durNs = in.u64();
        span.jobId = in.u64();
        if (!in.ok) {
            markDead(w);
            return false;
        }
        out.spans.push_back(std::move(span));
    }
    if (!in.ok || in.pos != in.size) {
        markDead(w);
        return false;
    }
    return true;
}

void
ProcessPool::childLoop(int in_fd, int out_fd)
{
    // Per-child step kernels, built once and reused across levels
    // (kernels hold mutable scratch; this child is single-threaded).
    std::optional<compile::ScalarKernel> scalar;
    std::optional<compile::SlicedKernel> sliced;
    if (program_) {
        if (bitSliced_)
            sliced.emplace(program_);
        else
            scalar.emplace(program_);
    }
    uint64_t reported_fallback = 0;

    // Spans recorded by the parent's threads before the fork live in
    // this thread's inherited ring; drop them so only spans from this
    // child's own work ever ship back.
    telemetry::drainThreadSpans();

    std::vector<uint8_t> payload;
    std::vector<BitVec> sources;
    std::vector<uint64_t> per_source;
    std::vector<uint8_t> trans;
    for (;;) {
        if (!recvFrame(in_fd, payload))
            ::_exit(0); // parent gone
        Reader in{payload.data(), payload.size()};
        const uint8_t cmd = in.u8();
        if (!in.ok || cmd != kCmdExpand)
            ::_exit(0);
        const uint64_t job_id = in.u64();
        const uint64_t count = in.u64();
        const size_t state_bytes = wordsFor(stateBits_) * 8;
        if (!in.ok || count * state_bytes != in.remaining())
            ::_exit(0);
        sources.clear();
        sources.reserve(count);
        for (uint64_t i = 0; i < count; ++i)
            sources.push_back(in.state(stateBits_));

        // Expand every source through the kernel, buffering the raw
        // transition stream (no dedup here: the parent replays the
        // stream through the same interning/dedup path the thread
        // workers use, so semantics cannot diverge).
        per_source.assign(count, 0);
        trans.clear();
        // Expansion work runs under the requesting job's correlation
        // id inside one span per batch; the span (and anything the
        // kernels record) ships back in the response.
        telemetry::JobScope job_scope(job_id);
        std::optional<telemetry::ScopedSpan> batch_span;
        if (telemetry::tracingEnabled())
            batch_span.emplace("ooc.child.expand", "sources", count);
        auto emit = [&](size_t source, uint64_t code,
                        fsm::Transition &&transition) {
            ++per_source[source];
            packU64(trans, code);
            packU32(trans,
                    static_cast<uint32_t>(transition.instructions));
            packState(trans, transition.next, stateBits_);
        };
        if (sliced) {
            for (size_t i = 0; i < sources.size(); i += 64) {
                const size_t chunk =
                    std::min<size_t>(64, sources.size() - i);
                std::array<const BitVec *, 64> srcs;
                for (size_t k = 0; k < chunk; ++k)
                    srcs[k] = &sources[i + k];
                sliced->expandBatch(
                    srcs.data(), chunk,
                    [&](size_t lane, uint64_t code,
                        fsm::Transition &&transition) {
                        emit(i + lane, code, std::move(transition));
                    });
            }
        } else {
            for (size_t i = 0; i < sources.size(); ++i) {
                auto on_transition = [&](uint64_t code,
                                         fsm::Transition &&tr) {
                    emit(i, code, std::move(tr));
                };
                if (scalar)
                    scalar->forEachTransition(sources[i],
                                              on_transition);
                else
                    model_.forEachTransition(sources[i],
                                             on_transition);
            }
        }

        // Kernel fallback-lane counts are cumulative per instance;
        // report the delta so the parent can sum per level.
        uint64_t fallback_delta = 0;
        if (sliced) {
            const uint64_t now = sliced->scalarFallbackLanes();
            fallback_delta = now - reported_fallback;
            reported_fallback = now;
        }

        // Close the batch span so it lands in the thread ring, then
        // drain everything this batch recorded for the response.
        batch_span.reset();
        const std::vector<telemetry::ForeignSpan> spans =
            telemetry::drainThreadSpans();
        uint64_t span_bytes = 8;
        for (const telemetry::ForeignSpan &s : spans)
            span_bytes += 32 + s.name.size();

        std::vector<uint8_t> resp;
        const uint64_t resp_size = 1 + 8 + 8 +
                                   per_source.size() * 8 +
                                   trans.size() + span_bytes;
        if (resp_size > kMaxOocFrameBytes) {
            resp.push_back(kRespOverflow);
        } else {
            resp.reserve(resp_size);
            resp.push_back(kRespOk);
            packU64(resp, fallback_delta);
            packU64(resp, per_source.size());
            for (uint64_t n : per_source)
                packU64(resp, n);
            resp.insert(resp.end(), trans.begin(), trans.end());
            packU64(resp, spans.size());
            for (const telemetry::ForeignSpan &s : spans)
                packSpan(resp, s);
        }
        if (!sendFrame(out_fd, resp))
            ::_exit(0);
    }
}

} // namespace archval::murphi::ooc
