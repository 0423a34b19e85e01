/**
 * @file
 * Batch replay — the perf core of steps 3–4.
 *
 * Replay jobs (trace × BugSet) fan out across a worker pool. Each job
 * plays one tour trace on a fresh core exactly as VectorPlayer::play
 * would; two sharing axes skip simulation that is provably redundant.
 *
 * Correctness contract: results are byte-identical to playing every
 * trace on a fresh core with VectorPlayer::play, for any worker
 * count and any warm-cache budget.
 *
 * The first axis covers the trace × bug-set matrix: every fault
 * effect in rtl::PpCore is strictly guarded by its trigger
 * conjunction, and the core records the first cycle each conjunction
 * held whether or not the bug is enabled (PpCore::bugFirstTrigger).
 * When a batch contains the empty bug set, its block runs first as
 * the donor: a job for (trace, B) whose bugs never triggered on the
 * trace's bug-free run reuses the donor's PlayResult outright — the
 * bugged run is provably bit-identical — and skips simulation
 * entirely. Since the Table 2.1 faults are rare multi-event
 * conjunctions, most bugged replays collapse to copies.
 *
 * The second axis (ReplayWarmCache, below) carries donor records
 * across batches. Jobs whose bugs *did* trigger on the donor run
 * replay, from reset or, when the trace is warm, from the donor's
 * periodic checkpoint chain below the first trigger cycle. That
 * restore is sound across bug sets: snapshots are bit-exact
 * whole-machine copies (cycle and retire counters included), and a
 * donor checkpoint whose cycle lies strictly below every
 * first-trigger cycle of a bug set is bit-identical to the state
 * that bugged run would have reached (fault effects are
 * trigger-guarded; trigger cycles are recorded regardless of
 * enablement), except for the enabled-bug mask itself, which the
 * restore re-arms (PpCore::restoreWithBugs).
 */

#ifndef ARCHVAL_HARNESS_REPLAY_ENGINE_HH
#define ARCHVAL_HARNESS_REPLAY_ENGINE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/vector_player.hh"

namespace archval::harness
{

/**
 * Cross-batch warm cache — the second sharing axis, across playAll()
 * calls (and across engines: the cache is shared by handle, so a
 * service session or a hunt loop keeps it alive between requests).
 *
 * Every bug-free donor run deposits an entry keyed by the trace's
 * *entire serialized content* (vecgen::serializeTrace — exact-match
 * lookup, so a foreign trace can never borrow a warm result): the
 * donor PlayResult, the first-trigger cycle of every bug, and the
 * donor's periodic checkpoint chain (one link every
 * ReplayOptions::checkpointStride cycles) as serialized core
 * snapshots. These chains are the engine's only periodic
 * checkpoints: a batch without a warm cache keeps none. A
 * later batch containing the same trace then reuses the warm entry
 * exactly like an in-batch donor block:
 *
 *  - a job whose bugs never triggered on the donor run copies the
 *    donor result outright (zero cycles simulated);
 *  - a job whose bugs did trigger resumes from the greatest warm
 *    checkpoint strictly below its first trigger cycle, with the bug
 *    mask re-armed on restore (PpCore::restoreWithBugs) — the
 *    cross-bug-set validity rule in the file comment.
 *
 * Snapshot records are config-fingerprinted; a record that fails to
 * deserialize degrades that job to from-reset replay, never to wrong
 * bytes. Entries are immutable once inserted and evicted whole, LRU,
 * under a byte budget. All operations are thread-safe.
 */
class ReplayWarmCache
{
  public:
    /** @param budget_bytes Whole-cache LRU byte budget.
     *  @param chain_cap_bytes Per-entry checkpoint-chain byte cap —
     *  populating runs thin their chain logarithmically (drop every
     *  other link, double the link stride) to stay under it, so one
     *  long trace cannot monopolize the cache with snapshots. */
    explicit ReplayWarmCache(size_t budget_bytes = 256ull << 20,
                             size_t chain_cap_bytes = 32ull << 20)
        : budget_(budget_bytes), chainCap_(chain_cap_bytes)
    {
    }

    /** Per-entry chain byte cap (see constructor). */
    size_t chainBytesCap() const { return chainCap_; }

    /** One periodic donor checkpoint (serialized core snapshot). */
    struct ChainLink
    {
        uint64_t cycle = 0;
        std::vector<uint8_t> snapshot;
    };

    /** One warm entry; immutable once inserted. */
    struct Entry
    {
        std::string key; ///< full serialized trace content
        PlayResult donorResult;
        /** First cycle each bug's trigger conjunction held on the
         *  bug-free run (UINT64_MAX = never). */
        std::array<uint64_t, rtl::numBugs> triggers{};
        std::vector<ChainLink> chain; ///< increasing cycle order
        size_t bytes = 0;             ///< filled by insert()
    };

    /** Cache observability (monotonic over the cache's lifetime). */
    struct Stats
    {
        uint64_t lookups = 0;
        uint64_t hits = 0;
        uint64_t inserts = 0;
        uint64_t evictions = 0;
        size_t bytes = 0;
        size_t entries = 0;
    };

    /** @return the entry whose key equals @p key, or null. */
    std::shared_ptr<const Entry> find(const std::string &key);

    /** Insert @p entry (an existing entry with the same key wins;
     *  LRU entries are evicted past the byte budget; an entry alone
     *  exceeding the budget is dropped). */
    void insert(std::shared_ptr<Entry> entry);

    /** @return a point-in-time snapshot of every entry (unordered).
     *  Entries are immutable, so the snapshot stays valid however
     *  long the caller holds it — this is the persistence walk. */
    std::vector<std::shared_ptr<const Entry>> entries() const;

    /**
     * @name Entry persistence
     * One warm entry to/from a self-contained byte record (for the
     * service's disk-backed session store). The record carries its
     * own version stamp and the build's bug count; deserializeEntry
     * returns null on any structural mismatch — a stale or foreign
     * record restores as "not warm", never as wrong bytes. Chain
     * snapshots are opaque here: they stay config-fingerprinted and
     * are re-validated by PpCore::deserializeSnapshot at use time.
     * @{
     */
    static std::vector<uint8_t> serializeEntry(const Entry &entry);
    static std::shared_ptr<Entry>
    deserializeEntry(const uint8_t *data, size_t size);
    /** @} */

    Stats stats() const;

  private:
    struct Slot
    {
        std::shared_ptr<Entry> entry;
        uint64_t lastUse = 0;
    };

    mutable std::mutex mutex_;
    size_t budget_;
    size_t chainCap_;
    size_t bytes_ = 0;
    uint64_t clock_ = 0;
    uint64_t lookups_ = 0;
    uint64_t hits_ = 0;
    uint64_t inserts_ = 0;
    uint64_t evictions_ = 0;
    std::unordered_map<std::string, Slot> entries_;
};

/** Engine tuning. */
struct ReplayOptions
{
    /** Worker threads replay jobs concurrently (1 = inline). */
    unsigned numThreads = 1;

    /**
     * Cycle stride of the warm cache's chain links (0 = no links).
     * Only meaningful with a warmCache: a run that populates it
     * snapshots the core every stride cycles, and a later (trace,
     * bug) job whose bugs triggered on that run resumes from the
     * greatest link strictly below its first trigger cycle, with the
     * bug mask re-armed at restore.
     */
    size_t checkpointStride = 1024;

    /**
     * Early exit for hunt loops: once a job diverges, jobs for later
     * traces (within the same bug set) are skipped and returned with
     * PlayResult::skipped set. The first divergence and every result
     * before it are still byte-identical to the sequential path for
     * any worker count.
     */
    bool stopOnDivergence = false;

    /**
     * Cross-batch warm cache (see ReplayWarmCache). When set, jobs
     * consult it before simulating and bug-free donor runs populate
     * it, so a later batch over the same traces skips the donor
     * simulation entirely. Shared: any number of engines (and
     * threads) may hold the same cache.
     */
    std::shared_ptr<ReplayWarmCache> warmCache;

    /**
     * Cooperative cancellation: when non-null and it reads true,
     * jobs not yet started are skipped (PlayResult::skipped) and
     * playAll returns early. Results produced before the flag was
     * observed are still exact. The flag is only read, never written.
     */
    const std::atomic<bool> *cancelFlag = nullptr;
};

/** Batch statistics (one playAll run). */
struct ReplayStats
{
    uint64_t jobs = 0;            ///< trace × bug-set jobs in the batch
    uint64_t jobsSkipped = 0;     ///< skipped after a divergence
    uint64_t batchCycles = 0;     ///< forced cycles the batch demands
    uint64_t simulatedCycles = 0; ///< core steps actually executed
    uint64_t cyclesAvoided = 0;   ///< cycles reused instead of stepped
    /** Jobs whose whole result was reused from the trace's bug-free
     *  donor run because none of their bugs ever triggered on it. */
    uint64_t bugSetCopies = 0;

    /** @name Prefix-checkpoint counters, always 0
     *  The in-batch prefix checkpoint tier that filled these is gone;
     *  they remain only because perfbench/bench_main.cc still reads
     *  them, and go together with that reader. @{ */
    uint64_t checkpointHits = 0;
    uint64_t verifyFallbacks = 0;
    size_t peakCacheBytes = 0;
    /** @} */

    /** @name Re-reaching a bug @{ */
    /** Triggered jobs resumed from a stride-spaced donor checkpoint
     *  (a warm chain link). */
    uint64_t strideHits = 0;
    uint64_t strideResumeCycles = 0; ///< cycles skipped by those resumes
    /** Non-donor jobs whose bug set triggered on the donor run (the
     *  jobs donor copies cannot serve). */
    uint64_t triggeredJobs = 0;
    uint64_t triggeredJobCycles = 0; ///< forced cycles those jobs demand
    /** Cycles standing between reset and the bug set's first trigger,
     *  summed over triggered jobs (capped at the trace length). This
     *  is the pool a donor checkpoint can address: everything past
     *  the trigger is the diverged run itself and must be re-stepped
     *  by any scheme. */
    uint64_t triggeredLeadCycles = 0;
    /** @} */

    /** @name Cross-batch warm cache (ReplayWarmCache) @{ */
    uint64_t warmLookups = 0; ///< traces looked up in the warm cache
    uint64_t warmHits = 0;    ///< traces found warm
    /** Jobs whose whole result was copied from a warm donor entry
     *  (zero cycles simulated). */
    uint64_t warmCopies = 0;
    uint64_t warmInserts = 0; ///< donor entries published
    /** @} */

    /** @return fraction of demanded forced cycles never stepped. */
    double avoidedFraction() const
    {
        return batchCycles ? double(cyclesAvoided) / double(batchCycles)
                           : 0.0;
    }

    /** @return fraction of the triggered jobs' reset-to-trigger lead
     *  cycles skipped by resuming from warm chain links (the bench
     *  gate metric). The lead is the avoidable pool — a
     *  checkpoint substitutes for re-stepping the bug-free prefix,
     *  never for the diverged suffix — so this is avoided/avoidable,
     *  the Table 3.3 "time to re-reach a bug" ratio. */
    double strideSavings() const
    {
        return triggeredLeadCycles
                   ? double(strideResumeCycles) /
                         double(triggeredLeadCycles)
                   : 0.0;
    }
};

/**
 * Replays batches of test traces against bug sets with donor sharing
 * and a worker pool. Reusable; stats() reflects the most recent
 * playAll().
 */
class ReplayEngine
{
  public:
    /** @param config Machine configuration (all cores share it). */
    explicit ReplayEngine(const rtl::PpConfig &config,
                          ReplayOptions options = {});

    /**
     * Play every trace against every bug set.
     * @return results indexed [b * traces.size() + t], each
     * byte-identical to VectorPlayer(config).play(traces[t],
     * bug_sets[b]).
     */
    std::vector<PlayResult>
    playAll(const std::vector<vecgen::TestTrace> &traces,
            const std::vector<rtl::BugSet> &bug_sets);

    /** Single-bug-set convenience overload. */
    std::vector<PlayResult>
    playAll(const std::vector<vecgen::TestTrace> &traces,
            const rtl::BugSet &bugs = {});

    /** @return statistics for the most recent playAll(). Simulation
     *  results are always exact; warm-cache counters can vary with
     *  thread timing when evictions occur. */
    const ReplayStats &stats() const { return stats_; }

    /** @return the engine's options. */
    const ReplayOptions &options() const { return options_; }

  private:
    rtl::PpConfig config_;
    ReplayOptions options_;
    ReplayStats stats_;
};

} // namespace archval::harness

#endif // ARCHVAL_HARNESS_REPLAY_ENGINE_HH
