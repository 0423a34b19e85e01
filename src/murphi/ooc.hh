/**
 * @file
 * Out-of-core support for the enumerator: CRC-guarded spill files
 * for the BFS frontier and the partitioned state table, plus the
 * forked expansion-worker pool.
 *
 * On-disk format (see DESIGN.md, "The enumeration engine"):
 * both file kinds are support::RecordFileWriter/Reader record files
 * — `[magic u32][version u32]` then `[size u64][crc u32][payload]`
 * records — written atomically (temp file + rename) and fully
 * CRC-verified on the way back in. A frontier file holds one BFS
 * level's packed state vectors; a shard file holds one table
 * partition's (state, canonical id) entries. The first record of
 * each file is a header naming what the file claims to be (level or
 * partition index, state width, entry count); a reader that finds
 * any mismatch or damage reports failure instead of returning bytes
 * it cannot vouch for, and the enumerator then either rebuilds the
 * content from the retained graph or fails the run with a typed
 * error — never a silently different graph.
 *
 * The ProcessPool forks stateless expansion workers that exchange
 * frontier batches over pipes using the same length-prefixed frame
 * discipline as src/service/protocol (4-byte little-endian length,
 * then payload — here with a CRC-32 ahead of the payload, since a
 * half-written pipe frame from a killed worker must read as damage).
 * Children only expand states; the parent does all interning and
 * canonical id assignment, which is what keeps the produced graph
 * bit-identical to the in-process search.
 *
 * Tracing crosses the fork boundary: each expand request carries the
 * parent's job correlation id, the child records its expansion spans
 * under that id, and every response ships the spans back so the
 * parent can fold them into its own trace (one synthetic trace
 * thread per child). A trace of a service job therefore accounts for
 * work done in forked workers too.
 */

#ifndef ARCHVAL_MURPHI_OOC_HH
#define ARCHVAL_MURPHI_OOC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/state_graph.hh"
#include "support/bitvec.hh"
#include "support/telemetry.hh"

namespace archval::fsm
{
class Model;
} // namespace archval::fsm

namespace archval::compile
{
struct Program;
} // namespace archval::compile

namespace archval::murphi::ooc
{

/** Interned state table (one partition's worth). */
using StateMap =
    std::unordered_map<BitVec, graph::StateId, BitVecHash>;

/** Frontier file identity: "AVF1" + format version. */
constexpr uint32_t kFrontierMagic = 0x31465641;
/** Shard (table partition) file identity: "AVP1". */
constexpr uint32_t kShardMagic = 0x31505641;
constexpr uint32_t kSpillVersion = 1;

/**
 * Fault-injection hooks (testing only). Null members are skipped;
 * production runs pass no hooks at all. They let the differential
 * battery damage spill files between write and read, and kill
 * worker processes mid-level, to prove every failure either
 * rebuilds correctly or surfaces a typed error.
 */
struct TestHooks
{
    /** After a shard file was committed: (path, partition). */
    std::function<void(const std::string &, size_t)> afterShardPageOut;
    /** After a frontier file was committed: (path). */
    std::function<void(const std::string &)> afterFrontierWrite;
    /** At the start of each BFS level: (level, worker pids — empty
     *  without a process pool). */
    std::function<void(size_t, const std::vector<int> &)> onLevelStart;
};

/**
 * Scratch directory for one enumeration run: a fresh mkdtemp
 * subdirectory under @p base (or $TMPDIR / /tmp when @p base is
 * empty), recursively removed on destruction. An uncreatable base
 * leaves ok() false — the caller degrades to in-memory.
 */
class SpillDir
{
  public:
    explicit SpillDir(const std::string &base);
    ~SpillDir();

    SpillDir(const SpillDir &) = delete;
    SpillDir &operator=(const SpillDir &) = delete;

    bool ok() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

  private:
    std::string path_; ///< empty when creation failed
};

/** @name Frontier spill files (one per BFS level)
 * Records: header `[level u64][stateBits u64][count u64]`, then
 * batches `[n u64][n × ceil(stateBits/64) words]`.
 * @{ */
/** @return the frontier file path for @p level under @p dir. */
std::string frontierPath(const std::string &dir, size_t level);

/** Write @p states as level @p level's frontier file (atomic).
 *  @return false on any write failure (target untouched); on
 *  success adds the file size to @p bytes_written. */
bool writeFrontierFile(const std::string &path, uint64_t level,
                       size_t state_bits,
                       const std::vector<BitVec> &states,
                       uint64_t *bytes_written);

/** Read a frontier file back, expecting exactly @p expect_count
 *  states of @p state_bits bits for @p level. @return false — with
 *  @p out cleared — on any damage or header mismatch. */
bool readFrontierFile(const std::string &path, uint64_t level,
                      size_t state_bits, size_t expect_count,
                      std::vector<BitVec> &out);
/** @} */

/** @name Shard (table partition) spill files
 * Records: header `[partition u64][stateBits u64][count u64]`, then
 * batches `[n u64][n × (id u32 + state words)]`.
 * @{ */
/** @return the shard file path for @p partition under @p dir. */
std::string shardPath(const std::string &dir, size_t partition);

/** Page @p table out to @p path (atomic). @return false on any
 *  write failure (target untouched, table intact). */
bool writeShardFile(const std::string &path, uint64_t partition,
                    size_t state_bits, const StateMap &table,
                    uint64_t *bytes_written);

/** Page a shard file back in, calling @p sink once per entry.
 *  @return false on any damage, header mismatch, or entry-count
 *  mismatch — the caller must then discard whatever the sink
 *  received and rebuild or fail. */
bool readShardFile(const std::string &path, uint64_t partition,
                   size_t state_bits,
                   const std::function<void(BitVec &&,
                                            graph::StateId)> &sink);
/** @} */

/**
 * Forked expansion workers. Each child owns one request and one
 * response pipe; a batch of packed frontier states goes out, the
 * child expands every state through its step kernel and streams the
 * raw transitions back (per-source counts + code/instrs/next-state
 * records, in exactly the callback order of the in-process kernels).
 * Any frame failure — child killed mid-level, short read, CRC
 * mismatch, oversize response — marks the worker dead and returns
 * false; the caller re-expands that slice in-process, which produces
 * the identical transitions.
 */
class ProcessPool
{
  public:
    /** Fork @p processes workers. @p program may be null (the
     *  interpreted step); @p bit_sliced selects the 64-lane kernel
     *  when a program is present. Fork failures leave the affected
     *  workers dead (alive() false) rather than failing the pool. */
    ProcessPool(const fsm::Model &model,
                std::shared_ptr<const compile::Program> program,
                bool bit_sliced, unsigned processes,
                size_t state_bits);
    ~ProcessPool();

    ProcessPool(const ProcessPool &) = delete;
    ProcessPool &operator=(const ProcessPool &) = delete;

    unsigned size() const
    {
        return static_cast<unsigned>(workers_.size());
    }
    bool alive(unsigned w) const { return workers_[w].alive; }

    /** @return the worker pids (−1 for dead slots), for test hooks
     *  and telemetry. */
    std::vector<int> pids() const;

    /** One worker's expansion of one frontier batch. perSource holds
     *  the raw (pre-dedup) transition count of each source, in
     *  order; codes/instrs/states are the flattened transitions. */
    struct Expansion
    {
        uint64_t fallbackLanes = 0;
        std::vector<uint64_t> perSource;
        std::vector<uint64_t> codes;
        std::vector<uint32_t> instrs;
        std::vector<BitVec> states;
        /** Spans the child recorded while expanding this batch
         *  (empty unless tracing is enabled). */
        std::vector<telemetry::ForeignSpan> spans;
    };

    /** Send a frontier batch to worker @p w, stamped with the
     *  calling thread's job correlation id. @return false (worker
     *  marked dead) on any write failure. */
    bool sendBatch(unsigned w, const BitVec *const *states,
                   size_t count);

    /** Receive worker @p w's expansion of its last batch. @return
     *  false (worker marked dead) on any frame damage. */
    bool recvBatch(unsigned w, Expansion &out);

  private:
    [[noreturn]] void childLoop(int in_fd, int out_fd);
    void markDead(unsigned w);

    const fsm::Model &model_;
    std::shared_ptr<const compile::Program> program_;
    bool bitSliced_;
    size_t stateBits_;

    struct Worker
    {
        int pid = -1;
        int toChild = -1;
        int fromChild = -1;
        bool alive = false;
    };
    std::vector<Worker> workers_;
};

} // namespace archval::murphi::ooc

#endif // ARCHVAL_MURPHI_OOC_HH
