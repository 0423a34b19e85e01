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

/** One replay job: a (trace, bug set) pair plus its plan. */
struct Job
{
    size_t trace = 0;        ///< index into the batch
    size_t bugSet = 0;       ///< index into the bug-set list
    int restoreSlot = -1;    ///< checkpoint to resume from
    int publishSlot = -1;    ///< checkpoint this job must produce
    size_t publishDepth = 0; ///< absolute cycle of the publish
};

/** Plan-time record of one checkpoint. */
struct SlotPlan
{
    size_t donorTrace = 0;
    size_t depth = 0;
    unsigned consumers = 0;
};

/** @return length of the common forced-cycle prefix of two traces. */
size_t
commonPrefix(const std::vector<rtl::ForcedSignals> &a,
             const std::vector<rtl::ForcedSignals> &b)
{
    size_t n = std::min(a.size(), b.size());
    size_t i = 0;
    while (i < n && a[i] == b[i])
        ++i;
    return i;
}

/**
 * Runtime checkpoint cache: the plan's prefix-tree snapshots, held
 * in memory under one byte budget.
 *
 * Each plan slot carries its exact consumer count; the last consumer
 * frees it. Eviction is LRU; an evicted slot is dropped, and its
 * consumers degrade to from-reset replay.
 *
 * One mutex guards everything — publishes and consumes are rare next
 * to the simulation they save.
 */
class CheckpointCache
{
  public:
    CheckpointCache(const std::vector<SlotPlan> &plans, size_t budget)
        : slots_(plans.size()), budget_(budget)
    {
        for (size_t i = 0; i < plans.size(); ++i)
            slots_[i].remaining = plans[i].consumers;
    }

    /** Store @p snap for plan slot @p slot (or drop it). */
    void publish(size_t slot, rtl::PpCore::Snapshot snap)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Slot &s = slots_[slot];
        const size_t bytes = snap.bytes();
        if (s.remaining == 0 || !makeRoom(bytes)) {
            // No consumer left, or too big for the whole memory
            // budget (mid-trace snapshots outgrow the reset-state
            // estimate).
            s.state = State::Dropped;
        } else {
            s.snap = std::move(snap);
            s.state = State::Ready;
            s.lastUse = ++useClock_;
            bytes_ += bytes;
            peakBytes_ = std::max(peakBytes_, bytes_);
            ++published_;
        }
        cv_.notify_all();
    }

    /** The producer will never publish @p slot (job skipped). */
    void abandon(size_t slot)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (slots_[slot].state == State::Pending)
            slots_[slot].state = State::Dropped;
        cv_.notify_all();
    }

    /**
     * Block until plan slot @p slot resolves; @return its snapshot,
     * or an invalid one when it was dropped or evicted. Decrements
     * the planned-consumer count (the last consumer frees the
     * entry).
     */
    rtl::PpCore::Snapshot consume(size_t slot)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        Slot &s = slots_[slot];
        cv_.wait(lock, [&] { return s.state != State::Pending; });
        rtl::PpCore::Snapshot out = snapshotOf(s);
        if (--s.remaining == 0)
            freeSlot(s);
        return out;
    }

    /** Drop a consumer claim without waiting (job skipped). */
    void release(size_t slot)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Slot &s = slots_[slot];
        if (--s.remaining == 0)
            freeSlot(s);
    }

    uint64_t published() const { return published_; }
    uint64_t evictions() const { return evictions_; }
    size_t peakBytes() const { return peakBytes_; }

  private:
    enum class State
    {
        Pending, ///< producer has not resolved the entry yet
        Ready,   ///< snapshot held in memory
        Dropped, ///< gone; consumers degrade
    };

    struct Slot
    {
        State state = State::Pending;
        rtl::PpCore::Snapshot snap;
        unsigned remaining = 0;
        uint64_t lastUse = 0;
    };

    /** Evict LRU entries until @p bytes fits the memory budget. */
    bool makeRoom(size_t bytes)
    {
        if (bytes > budget_)
            return false;
        while (bytes_ + bytes > budget_) {
            size_t victim = slots_.size();
            for (size_t i = 0; i < slots_.size(); ++i) {
                if (slots_[i].state != State::Ready)
                    continue;
                if (victim == slots_.size() ||
                    slots_[i].lastUse < slots_[victim].lastUse)
                    victim = i;
            }
            if (victim == slots_.size())
                return bytes_ + bytes <= budget_;
            freeSlot(slots_[victim]);
            ++evictions_;
        }
        return true;
    }

    /** @return @p s's snapshot, or an invalid one when it is gone. */
    rtl::PpCore::Snapshot snapshotOf(Slot &s)
    {
        if (s.state != State::Ready)
            return rtl::PpCore::Snapshot();
        s.lastUse = ++useClock_;
        return s.snap;
    }

    /** Drop @p s, freeing its snapshot. */
    void freeSlot(Slot &s)
    {
        if (s.state == State::Ready) {
            bytes_ -= s.snap.bytes();
            s.snap = rtl::PpCore::Snapshot();
        }
        s.state = State::Dropped;
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Slot> slots_;
    size_t budget_;
    size_t bytes_ = 0;
    size_t peakBytes_ = 0;
    uint64_t useClock_ = 0;
    uint64_t published_ = 0;
    uint64_t evictions_ = 0;
};

/**
 * Bug-set-axis donor records: one per trace, filled by the empty
 * bug set's job. Consumers (jobs for the same trace under a non-empty
 * bug set) block until the donor resolves; donor jobs precede every
 * consumer in plan order and are claimed in order, so a waited-on
 * donor is always running or done — the same no-deadlock argument as
 * CheckpointCache.
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
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t fallbacks = 0;
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

    // ------------------------------------------------------------------
    // Plan: the batch's prefix tree. Sorting traces lexicographically
    // by forced-cycle content makes every shared prefix a contiguous
    // run, and the LCP chain between sorted neighbours is exactly a
    // DFS of the prefix tree — a stack of live checkpoints mirrors
    // the DFS path. Each job publishes at most one checkpoint: the
    // deepest prefix it shares with its sorted successor.
    // ------------------------------------------------------------------
    std::vector<size_t> order(nt);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const auto &ca = traces[a].cycles;
        const auto &cb = traces[b].cycles;
        if (ca != cb)
            return std::lexicographical_compare(ca.begin(), ca.end(),
                                                cb.begin(), cb.end());
        return a < b;
    });
    std::vector<size_t> lcp(nt, 0);
    for (size_t i = 1; i < nt; ++i)
        lcp[i] = commonPrefix(traces[order[i - 1]].cycles,
                              traces[order[i]].cycles);

    // Plan-time byte accounting uses one footprint estimate for all
    // checkpoints (dmem dominates and is config-fixed), keeping the
    // plan a pure function of the batch.
    const size_t est =
        rtl::PpCore(config_, rtl::CoreMode::Vector).snapshotBytes();
    const size_t budget = options_.checkpointBudgetBytes;
    const size_t min_prefix = std::max<size_t>(1, options_.minPrefixCycles);

    // Bug-set axis: when the batch contains the empty bug set, its
    // block runs first as the per-trace donor; jobs in other blocks
    // whose bugs never triggered on the donor run reuse its result
    // outright.
    size_t donor_set = nb;
    if (budget > 0 && nb > 1) {
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

    std::vector<SlotPlan> slots;
    std::vector<Job> jobs;
    jobs.reserve(nt * nb);
    for (size_t bi = 0; bi < nb; ++bi) {
        size_t b = set_order[bi];
        std::vector<std::pair<size_t, int>> stack; // (depth, slot)
        size_t live_bytes = 0;
        for (size_t i = 0; i < nt; ++i) {
            Job job;
            job.trace = order[i];
            job.bugSet = b;
            size_t shared = (i == 0) ? 0 : lcp[i];
            while (!stack.empty() && stack.back().first > shared) {
                live_bytes -= est;
                stack.pop_back();
            }
            size_t start = 0;
            if (!stack.empty()) {
                job.restoreSlot = stack.back().second;
                start = stack.back().first;
                ++slots[static_cast<size_t>(job.restoreSlot)].consumers;
            }
            if (budget > 0 && i + 1 < nt) {
                size_t depth = lcp[i + 1];
                if (depth > start && depth >= min_prefix &&
                    live_bytes + est <= budget) {
                    job.publishSlot = static_cast<int>(slots.size());
                    job.publishDepth = depth;
                    slots.push_back(SlotPlan{job.trace, depth, 0});
                    stack.emplace_back(depth, job.publishSlot);
                    live_bytes += est;
                }
            }
            jobs.push_back(job);
        }
    }

    // ------------------------------------------------------------------
    // Execute. Workers claim jobs in plan order, so a checkpoint's
    // producer is always claimed before any of its consumers: every
    // wait in CheckpointCache::consume is on a job that is already
    // running (or done), and every running job publishes or abandons
    // its slot — no deadlock, any worker count.
    // ------------------------------------------------------------------
    CheckpointCache cache(slots, budget);
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
        // Drop this job's slot claims so planned waiters resolve
        // (they fall back to from-reset replay).
        auto release_slots = [&] {
            if (job.restoreSlot >= 0)
                cache.release(static_cast<size_t>(job.restoreSlot));
            if (job.publishSlot >= 0)
                cache.abandon(static_cast<size_t>(job.publishSlot));
        };

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
            release_slots();
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
                release_slots();
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
            // first trigger (the cross-bug-set validity rule), within
            // the trace, and — when this job still owes a planned
            // checkpoint — strictly below its publish depth so the
            // drive loop pauses there. A serialized snapshot is
            // self-contained (the core owns its stream and inbox by
            // value, and the key guarantees identical content), so a
            // valid record restores with nothing to rebind; a damaged
            // or foreign record degrades to from-reset replay.
            const ReplayWarmCache::ChainLink *link = nullptr;
            const auto &chain = warm_entry_hit->chain;
            for (size_t i = chain.size(); i-- > 0;) {
                if (chain[i].cycle < first_trigger &&
                    chain[i].cycle <= len &&
                    (job.publishSlot < 0 ||
                     chain[i].cycle < job.publishDepth)) {
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
                } else {
                    ++ls.misses;
                }
            }
        }
        if (warm_entry_hit && start > 0 && job.restoreSlot >= 0) {
            // The warm resume superseded the planned restore; drop
            // the claim so the slot can be freed.
            cache.release(static_cast<size_t>(job.restoreSlot));
        } else if (job.restoreSlot >= 0) {
            rtl::PpCore::Snapshot snap =
                cache.consume(static_cast<size_t>(job.restoreSlot));
            if (!snap.valid()) {
                ++ls.misses;
            } else {
                const vecgen::TestTrace &donor =
                    traces[slots[static_cast<size_t>(job.restoreSlot)]
                               .donorTrace];
                // Exact reuse condition: our stimulus prefix must
                // equal the donor's up to everything the checkpoint
                // consumed. On any mismatch, replay from reset —
                // correctness never rides on the plan being right.
                size_t depth = snap.cycles();
                size_t consumed = snap.streamConsumed();
                size_t popped =
                    donor.inbox.size() - snap.inboxRemaining();
                bool ok =
                    depth <= trace.cycles.size() &&
                    consumed <= trace.fetchStream.size() &&
                    popped <= trace.inbox.size() &&
                    std::equal(donor.cycles.begin(),
                               donor.cycles.begin() +
                                   static_cast<long>(depth),
                               trace.cycles.begin()) &&
                    std::equal(donor.fetchStream.begin(),
                               donor.fetchStream.begin() +
                                   static_cast<long>(consumed),
                               trace.fetchStream.begin()) &&
                    std::equal(donor.inbox.begin(),
                               donor.inbox.begin() +
                                   static_cast<long>(popped),
                               trace.inbox.begin());
                if (!ok) {
                    ++ls.fallbacks;
                } else {
                    core.restore(snap);
                    core.rebindStream(trace.fetchStream);
                    core.rebindInbox(trace.inbox, popped);
                    start = depth;
                    ++ls.hits;
                    ls.cyclesAvoided += depth;
                }
            }
        }

        resume_depth.record(double(start));

        // Drive to the end of the trace, pausing at this job's
        // planned publish depth and (warm-populating runs) at every
        // link-stride boundary to snapshot.
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
            size_t stop = len;
            if (job.publishSlot >= 0 && job.publishDepth > pos)
                stop = std::min(stop, job.publishDepth);
            if (next_stride > pos)
                stop = std::min(stop, next_stride);
            VectorPlayer::drive(core, trace, pos, stop);
            pos = stop;
            if (job.publishSlot >= 0 && pos == job.publishDepth)
                cache.publish(static_cast<size_t>(job.publishSlot),
                              core.snapshot());
            if (snap_stride && pos == next_stride) {
                if (pos < len)
                    warm_add_link(pos);
                next_stride += snap_stride;
            }
        }
        // The loop above always reaches publishDepth (the plan keeps
        // it in (start, len]); this guard only exists so a planning
        // bug could never strand waiters on a Pending slot.
        if (job.publishSlot >= 0 && job.publishDepth > len)
            cache.abandon(static_cast<size_t>(job.publishSlot));
        PlayResult result = VectorPlayer::finish(config_, core, trace);
        ls.simulatedCycles += core.cycles() - stepped_from;
        ls.batchCycles += len;
        results[job.bugSet * nt + job.trace] = result;

        if (is_donor || populate) {
            // Trigger cycles are exact even when this run resumed
            // from a checkpoint: the snapshot carries the donor
            // prefix's counters, and the verified-identical stimulus
            // makes that prefix's triggers this trace's triggers.
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
        stats_.checkpointHits += ls.hits;
        stats_.checkpointMisses += ls.misses;
        stats_.verifyFallbacks += ls.fallbacks;
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
    stats_.checkpointsPublished = cache.published();
    stats_.cacheEvictions = cache.evictions();
    stats_.peakCacheBytes = cache.peakBytes();

    // Registry mirror of the batch stats: one add per batch keeps
    // the hot path free of shared-counter traffic.
    telemetry::counter("replay.jobs").add(stats_.jobs);
    telemetry::counter("replay.checkpoint_hits")
        .add(stats_.checkpointHits);
    telemetry::counter("replay.checkpoint_misses")
        .add(stats_.checkpointMisses);
    telemetry::counter("replay.verify_fallbacks")
        .add(stats_.verifyFallbacks);
    telemetry::counter("replay.bug_set_copies")
        .add(stats_.bugSetCopies);
    telemetry::counter("replay.stride_hits").add(stats_.strideHits);
    telemetry::counter("replay.cycles_avoided")
        .add(stats_.cyclesAvoided);
    telemetry::counter("replay.cycles_simulated")
        .add(stats_.simulatedCycles);
    telemetry::gauge("replay.peak_cache_bytes")
        .set(static_cast<int64_t>(stats_.peakCacheBytes));
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
