#include "replay_engine.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>

#include "support/status.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "vecgen/trace_io.hh"

namespace archval::harness
{

namespace
{

/** One replay job: a (trace, bug set) pair. */
struct Job
{
    size_t trace = 0;  ///< index into the batch
    size_t bugSet = 0; ///< index into the bug-set list
};

/**
 * Bug-set-axis donor records: one per trace, filled by the empty
 * bug set's job. Consumers (jobs for the same trace under a non-empty
 * bug set) block until the donor resolves; donor jobs precede every
 * consumer in job order and are claimed in order, so a waited-on
 * donor is always running or done — no deadlock for any worker count.
 */
class DonorTable
{
  public:
    /** What a completed donor run leaves for its trace's consumers. */
    struct Record
    {
        PlayResult result;
        /** First cycle each bug's trigger conjunction held on the
         *  bug-free run (UINT64_MAX = never). */
        std::array<uint64_t, rtl::numBugs> triggers{};
    };

    explicit DonorTable(size_t traces) : entries_(traces) {}

    /** Donor completed: record its result and trigger cycles. */
    void publish(size_t trace, const PlayResult &result,
                 const std::array<uint64_t, rtl::numBugs> &triggers)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Entry &e = entries_[trace];
        e.record.result = result;
        e.record.triggers = triggers;
        e.state = State::Ready;
        cv_.notify_all();
    }

    /** Donor will never publish (its job was skipped). */
    void fail(size_t trace)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_[trace].state = State::Failed;
        cv_.notify_all();
    }

    /**
     * Block until @p trace's donor resolves. @return its record
     * (immutable from then on), or null when the donor was skipped.
     */
    const Record *wait(size_t trace)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        Entry &e = entries_[trace];
        cv_.wait(lock, [&] { return e.state != State::Pending; });
        return e.state == State::Ready ? &e.record : nullptr;
    }

  private:
    enum class State
    {
        Pending,
        Ready,
        Failed,
    };

    struct Entry
    {
        State state = State::Pending;
        Record record;
    };

    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Entry> entries_;
};

/** Per-worker stat accumulators (merged once at the end). */
struct LocalStats
{
    uint64_t batchCycles = 0;
    uint64_t simulatedCycles = 0;
    uint64_t cyclesAvoided = 0;
    uint64_t copies = 0;
    uint64_t strideHits = 0;
    uint64_t strideResumeCycles = 0;
    uint64_t triggeredJobs = 0;
    uint64_t triggeredJobCycles = 0;
    uint64_t triggeredLeadCycles = 0;
    uint64_t cancelled = 0;
    uint64_t warmCopies = 0;
    uint64_t warmInserts = 0;
};

/** Lower @p target to @p value if it is smaller (atomic min). */
void
fetchMin(std::atomic<size_t> &target, size_t value)
{
    size_t cur = target.load(std::memory_order_acquire);
    while (value < cur &&
           !target.compare_exchange_weak(cur, value,
                                         std::memory_order_acq_rel)) {
    }
}

} // namespace

std::shared_ptr<const ReplayWarmCache::Entry>
ReplayWarmCache::find(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++lookups_;
    auto it = entries_.find(key);
    if (it == entries_.end())
        return nullptr;
    ++hits_;
    it->second.lastUse = ++clock_;
    return it->second.entry;
}

void
ReplayWarmCache::insert(std::shared_ptr<Entry> entry)
{
    if (!entry)
        return;
    size_t bytes = sizeof(Entry) + entry->key.size();
    for (const ChainLink &link : entry->chain)
        bytes += sizeof(ChainLink) + link.snapshot.size();
    entry->bytes = bytes;

    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.count(entry->key))
        return; // entries are immutable; the first insert wins
    if (bytes > budget_)
        return; // alone past the whole budget: not cacheable
    while (bytes_ + bytes > budget_ && !entries_.empty()) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        bytes_ -= victim->second.entry->bytes;
        entries_.erase(victim);
        ++evictions_;
    }
    bytes_ += bytes;
    ++inserts_;
    Slot &slot = entries_[entry->key];
    slot.entry = std::move(entry);
    slot.lastUse = ++clock_;
}

ReplayWarmCache::Stats
ReplayWarmCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s;
    s.lookups = lookups_;
    s.hits = hits_;
    s.inserts = inserts_;
    s.evictions = evictions_;
    s.bytes = bytes_;
    s.entries = entries_.size();
    return s;
}

std::vector<std::shared_ptr<const ReplayWarmCache::Entry>>
ReplayWarmCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::shared_ptr<const Entry>> out;
    out.reserve(entries_.size());
    for (const auto &[key, slot] : entries_)
        out.push_back(slot.entry);
    return out;
}

namespace
{

/** Warm-entry record format version (serializeEntry). */
constexpr uint32_t kWarmEntryVersion = 1;

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
packBytes(std::vector<uint8_t> &out, const void *data, size_t size)
{
    packU64(out, size);
    const uint8_t *p = static_cast<const uint8_t *>(data);
    out.insert(out.end(), p, p + size);
}

/** Bounds-checked little-endian record reader; any overrun flips
 *  ok and pins the cursor, so callers test once at the end. */
struct EntryReader
{
    const uint8_t *data;
    size_t size;
    size_t pos = 0;
    bool ok = true;

    uint32_t
    u32()
    {
        if (!ok || size - pos < 4) {
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
        if (!ok || size - pos < 8) {
            ok = false;
            return 0;
        }
        uint64_t value = 0;
        for (int i = 0; i < 8; ++i)
            value |= uint64_t(data[pos + i]) << (8 * i);
        pos += 8;
        return value;
    }

    bool
    bytes(std::vector<uint8_t> &out)
    {
        uint64_t n = u64();
        if (!ok || size - pos < n) {
            ok = false;
            return false;
        }
        out.assign(data + pos, data + pos + n);
        pos += n;
        return true;
    }

    bool
    str(std::string &out)
    {
        uint64_t n = u64();
        if (!ok || size - pos < n) {
            ok = false;
            return false;
        }
        out.assign(reinterpret_cast<const char *>(data + pos), n);
        pos += n;
        return true;
    }
};

} // namespace

std::vector<uint8_t>
ReplayWarmCache::serializeEntry(const Entry &entry)
{
    std::vector<uint8_t> out;
    packU32(out, kWarmEntryVersion);
    packBytes(out, entry.key.data(), entry.key.size());
    const PlayResult &donor = entry.donorResult;
    out.push_back(donor.diverged ? 1 : 0);
    packBytes(out, donor.diff.data(), donor.diff.size());
    packU64(out, donor.cycles);
    packU64(out, donor.instructions);
    packU64(out, donor.lockstepErrors);
    out.push_back(donor.drained ? 1 : 0);
    out.push_back(donor.skipped ? 1 : 0);
    packU32(out, static_cast<uint32_t>(rtl::numBugs));
    for (uint64_t trigger : entry.triggers)
        packU64(out, trigger);
    packU64(out, entry.chain.size());
    for (const ChainLink &link : entry.chain) {
        packU64(out, link.cycle);
        packBytes(out, link.snapshot.data(), link.snapshot.size());
    }
    return out;
}

std::shared_ptr<ReplayWarmCache::Entry>
ReplayWarmCache::deserializeEntry(const uint8_t *data, size_t size)
{
    EntryReader in{data, size};
    if (in.u32() != kWarmEntryVersion)
        return nullptr;
    auto entry = std::make_shared<Entry>();
    in.str(entry->key);
    PlayResult &donor = entry->donorResult;
    auto u8 = [&]() -> uint8_t {
        if (!in.ok || in.size - in.pos < 1) {
            in.ok = false;
            return 0;
        }
        return in.data[in.pos++];
    };
    donor.diverged = u8() != 0;
    in.str(donor.diff);
    donor.cycles = in.u64();
    donor.instructions = in.u64();
    donor.lockstepErrors = in.u64();
    donor.drained = u8() != 0;
    donor.skipped = u8() != 0;
    // A build with a different bug roster laid the triggers array
    // out differently; its records must not restore.
    if (in.u32() != static_cast<uint32_t>(rtl::numBugs))
        return nullptr;
    for (size_t i = 0; i < rtl::numBugs; ++i)
        entry->triggers[i] = in.u64();
    const uint64_t links = in.u64();
    if (!in.ok || links > in.size - in.pos)
        return nullptr; // lying count; each link needs >1 byte
    entry->chain.reserve(links);
    for (uint64_t i = 0; i < links; ++i) {
        ChainLink link;
        link.cycle = in.u64();
        in.bytes(link.snapshot);
        if (!in.ok)
            return nullptr;
        entry->chain.push_back(std::move(link));
    }
    if (!in.ok || in.pos != in.size)
        return nullptr; // trailing garbage is damage too
    return entry;
}

ReplayEngine::ReplayEngine(const rtl::PpConfig &config,
                           ReplayOptions options)
    : config_(config), options_(options)
{
    if (options_.numThreads == 0)
        fatal("ReplayEngine needs at least one worker");
}

std::vector<PlayResult>
ReplayEngine::playAll(const std::vector<vecgen::TestTrace> &traces,
                      const rtl::BugSet &bugs)
{
    return playAll(traces, std::vector<rtl::BugSet>{bugs});
}

std::vector<PlayResult>
ReplayEngine::playAll(const std::vector<vecgen::TestTrace> &traces,
                      const std::vector<rtl::BugSet> &bug_sets)
{
    stats_ = ReplayStats{};
    const size_t nt = traces.size();
    const size_t nb = bug_sets.size();
    std::vector<PlayResult> results(nt * nb);
    if (nt == 0 || nb == 0)
        return results;
    stats_.jobs = nt * nb;

    // Cross-batch warm cache: resolve each trace's entry up front by
    // its full serialized content (exact match, so a foreign trace
    // can never borrow a warm result). Keys of the misses are kept —
    // they become the insert keys when this batch's bug-free runs
    // populate the cache.
    ReplayWarmCache *warm = options_.warmCache.get();
    std::vector<std::shared_ptr<const ReplayWarmCache::Entry>>
        warm_entries(warm ? nt : 0);
    std::vector<std::string> warm_keys(warm ? nt : 0);
    if (warm) {
        stats_.warmLookups = nt;
        for (size_t t = 0; t < nt; ++t) {
            std::string key = vecgen::serializeTrace(traces[t]);
            warm_entries[t] = warm->find(key);
            if (warm_entries[t])
                ++stats_.warmHits;
            else
                warm_keys[t] = std::move(key);
        }
    }

    // Bug-set axis: when the batch contains the empty bug set, its
    // block runs first as the per-trace donor; jobs in other blocks
    // whose bugs never triggered on the donor run reuse its result
    // outright.
    size_t donor_set = nb;
    if (nb > 1) {
        for (size_t b = 0; b < nb; ++b) {
            if (bug_sets[b].none()) {
                donor_set = b;
                break;
            }
        }
    }
    const bool donor_active = donor_set < nb;
    std::vector<size_t> set_order(nb);
    std::iota(set_order.begin(), set_order.end(), size_t{0});
    if (donor_active)
        std::swap(set_order[0], set_order[donor_set]);

    // Jobs run block by block (the donor block first), traces in
    // batch order. Workers claim jobs in that order, so every wait in
    // DonorTable::wait is on a donor job that is already running or
    // done: no deadlock, any worker count.
    std::vector<Job> jobs;
    jobs.reserve(nt * nb);
    for (size_t b : set_order) {
        for (size_t t = 0; t < nt; ++t)
            jobs.push_back(Job{t, b});
    }

    DonorTable donors(donor_active ? nt : 0);
    std::atomic<size_t> next_job{0};
    std::vector<std::atomic<size_t>> first_div(nb);
    for (auto &fd : first_div)
        fd.store(nt, std::memory_order_relaxed);

    telemetry::ScopedSpan batch_span("replay.batch", "traces", nt,
                                     "bug_sets", nb);
    telemetry::Histogram &resume_depth = telemetry::histogram(
        "replay.resume_depth", telemetry::depthBounds());

    auto run_one = [&](const Job &job, LocalStats &ls) {
        telemetry::ScopedSpan job_span("replay.job", "trace",
                                       job.trace, "bug_set",
                                       job.bugSet);
        const vecgen::TestTrace &trace = traces[job.trace];
        const size_t len = trace.cycles.size();
        const bool is_donor = donor_active && job.bugSet == donor_set;

        const bool past_divergence =
            options_.stopOnDivergence &&
            first_div[job.bugSet].load(std::memory_order_acquire) <
                job.trace;
        const bool cancelled =
            !past_divergence && options_.cancelFlag &&
            options_.cancelFlag->load(std::memory_order_relaxed);
        if (past_divergence || cancelled) {
            // A trace earlier in the batch already diverged under
            // this bug set (or the batch was cancelled).
            if (is_donor)
                donors.fail(job.trace);
            results[job.bugSet * nt + job.trace].skipped = true;
            if (cancelled)
                ++ls.cancelled;
            return;
        }

        // The job's donor record: a warm entry deposited by an
        // earlier batch's bug-free run over a content-identical trace
        // (no wait), or this batch's donor block. Both hinge on the
        // same guarantee — fault effects are strictly trigger-guarded
        // and trigger cycles are recorded on the bug-free run — so
        // the donor's trajectory *is* the bugged trajectory below the
        // first trigger. A job none of whose bugs ever triggered
        // copies the donor result outright; a triggered one replays,
        // resuming from the warm chain below the first trigger when
        // it has one (selected further down).
        const ReplayWarmCache::Entry *warm_entry_hit =
            warm ? warm_entries[job.trace].get() : nullptr;
        const PlayResult *donor_result = nullptr;
        const std::array<uint64_t, rtl::numBugs> *donor_triggers =
            nullptr;
        if (warm_entry_hit) {
            donor_result = &warm_entry_hit->donorResult;
            donor_triggers = &warm_entry_hit->triggers;
        } else if (donor_active && !is_donor) {
            if (const DonorTable::Record *record =
                    donors.wait(job.trace)) {
                donor_result = &record->result;
                donor_triggers = &record->triggers;
            }
        }
        uint64_t first_trigger = UINT64_MAX;
        if (donor_result) {
            for (size_t i = 0; i < rtl::numBugs; ++i) {
                if (bug_sets[job.bugSet].test(i))
                    first_trigger =
                        std::min(first_trigger, (*donor_triggers)[i]);
            }
            if (first_trigger == UINT64_MAX) {
                ++(warm_entry_hit ? ls.warmCopies : ls.copies);
                ls.batchCycles += len;
                ls.cyclesAvoided += donor_result->cycles;
                results[job.bugSet * nt + job.trace] = *donor_result;
                // A warm donor-block job still feeds this batch's
                // consumers.
                if (is_donor)
                    donors.publish(job.trace, *donor_result,
                                   *donor_triggers);
                if (donor_result->diverged &&
                    options_.stopOnDivergence)
                    fetchMin(first_div[job.bugSet], job.trace);
                return;
            }
            ++ls.triggeredJobs;
            ls.triggeredJobCycles += len;
            // The avoidable pool: the bug-free lead up to the first
            // trigger (a trigger can fire during drain, so cap at the
            // forced-cycle length).
            ls.triggeredLeadCycles +=
                std::min<uint64_t>(first_trigger, len);
        }

        // Bug-free jobs of a warm-enabled batch deposit the entry
        // the next batch will hit: the in-batch donor when there is
        // one, or a single-bug-set batch's own empty-set jobs (the
        // service's warm-up shape).
        const bool populate =
            warm && !warm_entry_hit &&
            bug_sets[job.bugSet].none() && (is_donor || nb == 1);
        std::shared_ptr<ReplayWarmCache::Entry> warm_entry;
        if (populate)
            warm_entry = std::make_shared<ReplayWarmCache::Entry>();

        rtl::PpCore core(config_, rtl::CoreMode::Vector);
        VectorPlayer::primeCore(core, trace, bug_sets[job.bugSet]);

        size_t start = 0;
        if (warm_entry_hit) {
            // Warm-chain resume: greatest link strictly below the
            // first trigger (the cross-bug-set validity rule) and
            // within the trace. A serialized snapshot is
            // self-contained (the core owns its stream and inbox by
            // value, and the key guarantees identical content), so a
            // valid record restores as it is; a damaged
            // or foreign record degrades to from-reset replay.
            const ReplayWarmCache::ChainLink *link = nullptr;
            const auto &chain = warm_entry_hit->chain;
            for (size_t i = chain.size(); i-- > 0;) {
                if (chain[i].cycle < first_trigger &&
                    chain[i].cycle <= len) {
                    link = &chain[i];
                    break;
                }
            }
            if (link) {
                rtl::PpCore::Snapshot snap =
                    rtl::PpCore::deserializeSnapshot(
                        config_, rtl::CoreMode::Vector,
                        link->snapshot.data(), link->snapshot.size());
                if (snap.valid() && snap.cycles() <= len) {
                    core.restoreWithBugs(snap, bug_sets[job.bugSet]);
                    start = snap.cycles();
                    ++ls.strideHits;
                    ls.strideResumeCycles += start;
                    ls.cyclesAvoided += start;
                }
            }
        }

        resume_depth.record(double(start));

        // Drive to the end of the trace, pausing (warm-populating
        // runs) at every link-stride boundary to snapshot.
        const size_t snap_stride =
            populate ? options_.checkpointStride : 0;
        uint64_t stepped_from = core.cycles();
        size_t pos = start;
        size_t next_stride =
            snap_stride ? (start / snap_stride + 1) * snap_stride
                        : len + 1;
        // Warm-chain population stays under the cache's per-entry
        // byte cap by logarithmic thinning: when the next link would
        // overflow, drop every other kept link and double the link
        // stride. Coverage degrades gracefully — a long trace keeps
        // geometrically spaced resume points instead of none.
        size_t warm_link_stride = snap_stride;
        size_t warm_chain_bytes = 0;
        auto warm_add_link = [&](size_t cycle) {
            if (cycle % warm_link_stride != 0)
                return;
            std::vector<uint8_t> bytes = core.snapshot().serialize();
            const size_t cap = warm->chainBytesCap();
            const size_t cost = sizeof(ReplayWarmCache::ChainLink) +
                                bytes.size();
            auto &chain = warm_entry->chain;
            while (warm_chain_bytes + cost > cap && !chain.empty()) {
                warm_link_stride *= 2;
                size_t kept = 0;
                warm_chain_bytes = 0;
                for (size_t i = 0; i < chain.size(); ++i) {
                    if (chain[i].cycle % warm_link_stride != 0)
                        continue;
                    warm_chain_bytes +=
                        sizeof(ReplayWarmCache::ChainLink) +
                        chain[i].snapshot.size();
                    chain[kept++] = std::move(chain[i]);
                }
                chain.resize(kept);
            }
            if (cycle % warm_link_stride != 0 ||
                warm_chain_bytes + cost > cap)
                return;
            warm_chain_bytes += cost;
            chain.push_back(ReplayWarmCache::ChainLink{
                cycle, std::move(bytes)});
        };
        while (pos < len) {
            const size_t stop = std::min(len, next_stride);
            VectorPlayer::drive(core, trace, pos, stop);
            pos = stop;
            if (snap_stride && pos == next_stride) {
                if (pos < len)
                    warm_add_link(pos);
                next_stride += snap_stride;
            }
        }
        PlayResult result = VectorPlayer::finish(config_, core, trace);
        ls.simulatedCycles += core.cycles() - stepped_from;
        ls.batchCycles += len;
        results[job.bugSet * nt + job.trace] = result;

        if (is_donor || populate) {
            // Donor and populating runs never resume from a warm
            // link (neither has a warm entry), so these are the
            // trace's own trigger cycles from reset.
            std::array<uint64_t, rtl::numBugs> triggers{};
            for (size_t i = 0; i < rtl::numBugs; ++i)
                triggers[i] =
                    core.bugFirstTrigger(static_cast<rtl::BugId>(i));
            if (is_donor)
                donors.publish(job.trace, result, triggers);
            if (populate) {
                warm_entry->key = std::move(warm_keys[job.trace]);
                warm_entry->donorResult = result;
                warm_entry->triggers = triggers;
                warm->insert(std::move(warm_entry));
                ++ls.warmInserts;
            }
        }

        if (result.diverged && options_.stopOnDivergence)
            fetchMin(first_div[job.bugSet], job.trace);
    };

    unsigned workers = std::min<size_t>(options_.numThreads, jobs.size());
    std::vector<LocalStats> local(std::max(1u, workers));
    if (workers <= 1) {
        for (const Job &job : jobs)
            run_one(job, local[0]);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        // Worker spans must stay attributable to the service job
        // that spawned them, so the caller's correlation id travels
        // into each pool thread.
        const uint64_t job_id = telemetry::currentJobId();
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&, w, job_id] {
                telemetry::JobScope job_scope(job_id);
                if (telemetry::tracingEnabled()) {
                    telemetry::setThreadName(
                        formatString("replay.worker.%u", w));
                }
                while (true) {
                    size_t j = next_job.fetch_add(
                        1, std::memory_order_relaxed);
                    if (j >= jobs.size())
                        break;
                    run_one(jobs[j], local[w]);
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    // Normalize early-exit batches: everything after a bug set's
    // first divergence reads as skipped, whether or not a worker got
    // to it before the divergence was known. This makes the result
    // vector a pure function of the batch for any worker count.
    if (options_.stopOnDivergence) {
        for (size_t b = 0; b < nb; ++b) {
            size_t fd = first_div[b].load(std::memory_order_acquire);
            for (size_t t = fd + 1; t < nt; ++t) {
                PlayResult &r = results[b * nt + t];
                r = PlayResult{};
                r.skipped = true;
                ++stats_.jobsSkipped;
            }
        }
    }

    for (const LocalStats &ls : local) {
        stats_.batchCycles += ls.batchCycles;
        stats_.simulatedCycles += ls.simulatedCycles;
        stats_.cyclesAvoided += ls.cyclesAvoided;
        stats_.bugSetCopies += ls.copies;
        stats_.strideHits += ls.strideHits;
        stats_.strideResumeCycles += ls.strideResumeCycles;
        stats_.triggeredJobs += ls.triggeredJobs;
        stats_.triggeredJobCycles += ls.triggeredJobCycles;
        stats_.triggeredLeadCycles += ls.triggeredLeadCycles;
        stats_.jobsSkipped += ls.cancelled;
        stats_.warmCopies += ls.warmCopies;
        stats_.warmInserts += ls.warmInserts;
    }

    // Registry mirror of the batch stats: one add per batch keeps
    // the hot path free of shared-counter traffic.
    telemetry::counter("replay.jobs").add(stats_.jobs);
    telemetry::counter("replay.bug_set_copies")
        .add(stats_.bugSetCopies);
    telemetry::counter("replay.stride_hits").add(stats_.strideHits);
    telemetry::counter("replay.cycles_avoided")
        .add(stats_.cyclesAvoided);
    telemetry::counter("replay.cycles_simulated")
        .add(stats_.simulatedCycles);
    if (warm) {
        telemetry::counter("replay.warm_lookups")
            .add(stats_.warmLookups);
        telemetry::counter("replay.warm_hits").add(stats_.warmHits);
        telemetry::counter("replay.warm_copies")
            .add(stats_.warmCopies);
        telemetry::counter("replay.warm_inserts")
            .add(stats_.warmInserts);
    }
    return results;
}

} // namespace archval::harness
