/**
 * @file
 * Seed corpus for the coverage-guided fuzzer.
 *
 * A corpus entry is one reset-rooted trace through the enumerated
 * state graph plus the operand-randomness seed used to concretize it
 * into vectors. Entries carry an energy: the scheduler draws entries
 * with probability proportional to energy, and energy decays as an
 * entry is picked, so fresh inputs (which covered new arcs or new
 * architectural behaviour when admitted) get mutated first — the
 * AFL-style priority scheme mapped onto transition traces.
 */

#ifndef ARCHVAL_FUZZ_CORPUS_HH
#define ARCHVAL_FUZZ_CORPUS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/tour.hh"
#include "support/rng.hh"

namespace archval::fuzz
{

/** One fuzz candidate: an abstract walk plus concretization seed. */
struct Candidate
{
    graph::Trace trace;      ///< reset-rooted walk in the state graph
    uint64_t vecgenSeed = 1; ///< operand/opcode randomness seed
};

/** One scheduled corpus entry. */
struct CorpusEntry
{
    /** Immutable once admitted, so copies of the entry (a campaign
     *  broadcasts each admitted entry to every corpus) share it. */
    std::shared_ptr<const Candidate> candidate;
    uint64_t energy = 0;   ///< scheduling weight (decays on pick)
    uint64_t newArcs = 0;  ///< arcs first covered when admitted
    bool newState = false; ///< admitted for a new architectural hash
};

/**
 * Energy-weighted collection of fuzz seeds. Deterministic: selection
 * consumes only the caller-supplied Rng, and iteration order is
 * insertion order.
 */
class Corpus
{
  public:
    /** @param max_entries Oldest low-energy entries are evicted past
     *         this bound (0 = unbounded). */
    explicit Corpus(size_t max_entries = 0)
        : maxEntries_(max_entries)
    {
    }

    /**
     * Admit @p candidate with @p energy (clamped to at least 1).
     * @return index of the new entry, or nullopt when the corpus was
     * full and the new entry had the lowest energy, so it was the
     * one evicted.
     */
    std::optional<size_t> add(Candidate candidate, uint64_t energy,
                              uint64_t new_arcs = 0,
                              bool new_state = false);

    /**
     * Admit a copy of @p entry (another corpus's entry; the candidate
     * is shared), clamping its energy to at least 1.
     * @return as add().
     */
    std::optional<size_t> adopt(const CorpusEntry &entry);

    /**
     * Draw an entry with probability proportional to energy and
     * halve the winner's energy (floor 1).
     * @return the drawn index; corpus must be non-empty.
     */
    size_t pick(Rng &rng);

    /** @return entry @p index. */
    const CorpusEntry &entry(size_t index) const
    {
        return entries_[index];
    }

    /** @return number of entries. */
    size_t size() const { return entries_.size(); }

    /** @return true when no entries are held. */
    bool empty() const { return entries_.empty(); }

    /** @return all entries (insertion order). */
    const std::vector<CorpusEntry> &entries() const { return entries_; }

  private:
    /** Evict the lowest-energy entry (ties: oldest).
     *  @return the evicted entry's index. */
    size_t evictOne();

    std::vector<CorpusEntry> entries_;
    size_t maxEntries_;
};

} // namespace archval::fuzz

#endif // ARCHVAL_FUZZ_CORPUS_HH
