/**
 * @file
 * Test vector generation — step 3 of the methodology (Figure 3.1).
 *
 * Converts a transition tour of the enumerated PP state graph into
 * simulation stimulus: per-cycle forced interface-signal values (the
 * paper's Verilog "force/release" commands) plus a concrete
 * instruction stream where the instruction class of each fetch is
 * fixed by the tour edge and everything that does not impact the
 * control logic — operands, data values, the precise operation within
 * a class — is chosen (biased-)randomly, exactly as Section 3.3
 * describes.
 *
 * Two details require care:
 *
 *  - Squash filtering: with the branch extension, a taken branch
 *    squashes the packet in RD, so the generator tracks pipeline
 *    occupancy along the tour and removes squashed packets from the
 *    *retired* stream that the executable specification runs.
 *  - Address constraints: the abstract "same_line" choice at a
 *    split-store conflict check must be honoured by the concrete
 *    load/store addresses, or a forced bypass over a pending store to
 *    the same word would produce a false architectural divergence.
 *    The generator records the constraint active at each load's
 *    completing probe and materializes addresses in a second pass.
 *
 * The walk reads a few control facts per tour edge (EdgeFacts).
 * Tours traverse each edge many times, so generateAll computes the
 * facts once per graph edge into an EdgeFactTable and walks every
 * trace against it. The table is read-only once built, so a fuzz
 * campaign builds one and every generator it creates (one per
 * candidate, each with its own seed) walks against it. The inline
 * generate() computes the facts per traversal, which is cheaper for
 * the few one-off traces bug hunts convert.
 */

#ifndef ARCHVAL_VECGEN_VECTOR_GEN_HH
#define ARCHVAL_VECGEN_VECTOR_GEN_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/state_graph.hh"
#include "graph/tour.hh"
#include "pp/isa.hh"
#include "rtl/pp_core.hh"
#include "rtl/pp_fsm_model.hh"
#include "support/rng.hh"

namespace archval::vecgen
{

/** One runnable test trace (a tour component turned into stimulus). */
struct TestTrace
{
    /** Forced interface-signal values, one entry per clock cycle. */
    std::vector<rtl::ForcedSignals> cycles;

    /** Instruction words in fetch order (consumed by the RTL core's
     *  abstract I-cache). */
    std::vector<uint32_t> fetchStream;

    /** Instruction words in retire order (squash-filtered); the
     *  program the executable specification runs in stream mode. */
    std::vector<uint32_t> retiredStream;

    /** Inbox words, one per SWITCH that reaches execution. */
    std::deque<uint32_t> inbox;

    /** Instructions in the fetch stream (tour accounting). */
    uint64_t instructions = 0;

    /** Index of the source tour trace. */
    size_t traceIndex = 0;
};

/** Generator statistics. */
struct VecGenStats
{
    uint64_t traces = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t squashedPackets = 0;
    uint64_t constrainedLoads = 0;
};

/**
 * What the tour walk reads of one graph edge: the forced signals and
 * the control's outputs for (source state, choice). Kept to 8 bytes
 * because an EdgeFactTable holds one per graph edge.
 */
struct EdgeFacts
{
    uint32_t tuple;            ///< index of the forced-signal tuple
    pp::InstrClass fetchClass; ///< class of the fetched packet
    uint8_t fetchCount;        ///< instructions fetched (0-2)
    bool fetch : 1;            ///< a packet enters RD
    bool advance : 1;          ///< pipeline registers shift
    bool branchTaken : 1;      ///< EX branch squashes RD
    bool storeCommit : 1;      ///< pending store data written
    bool storeIssued : 1;      ///< a store's probe or critical word
    bool exBranch : 1;         ///< EX holds a branch
    bool conflictChecked : 1;  ///< SameLine examined for MEM's load
    bool sameLine : 1;         ///< the SameLine choice
};
static_assert(sizeof(EdgeFacts) == 8);

/**
 * Computes the EdgeFacts of graph edges of one model. Numbers the
 * distinct forced-signal tuples (choice codes) in first-sight order;
 * an edge's facts refer to its tuple by that number.
 */
class EdgeFactBuilder
{
  public:
    explicit EdgeFactBuilder(const rtl::PpFsmModel &model);

    /** @return the number of @p choice_code's tuple, adding it on
     *  first sight. Not safe to call concurrently. */
    uint32_t tupleFor(uint64_t choice_code);

    /** @return the facts of @p edge, whose choice code tupleFor()
     *  numbered @p tuple. Only reads, so concurrent calls are safe
     *  while no tupleFor() runs. */
    EdgeFacts factsFor(const graph::StateGraph &graph,
                       graph::EdgeId edge, uint32_t tuple) const;

    /** @return the forced-signal vector of tuple @p tuple. */
    const rtl::ForcedSignals &signals(uint32_t tuple) const
    {
        return tuples_[tuple].signals;
    }

  private:
    /** A distinct choice tuple: the forced-signal vector recorded per
     *  cycle, and the decoded choice the control reads. */
    struct ForcedTuple
    {
        rtl::ForcedSignals signals;
        fsm::Choice choice;
    };

    const rtl::PpFsmModel &model_;
    fsm::ChoiceCodec codec_;
    /** ConflictDropsLoadCheck is set: the control never examines
     *  SameLine, so no load gets an address constraint. */
    bool conflictCheckDropped_;
    std::vector<ForcedTuple> tuples_;
    std::unordered_map<uint64_t, uint32_t> tupleOfCode_;
};

/**
 * The facts of every edge of one graph. Read-only once filled, so one
 * table serves any number of generators on any number of threads.
 */
class EdgeFactTable
{
  public:
    /**
     * Number the tuple of every edge of @p graph in edge-id order;
     * fill() then computes the facts. Both must outlive the table.
     */
    EdgeFactTable(const rtl::PpFsmModel &model,
                  const graph::StateGraph &graph);

    /**
     * Compute the facts of part @p part of @p parts disjoint edge
     * ranges (span `vecgen.edge_facts`). Distinct parts may be filled
     * concurrently; the table is the same for any split.
     */
    void fill(unsigned part = 0, unsigned parts = 1);

    /** @return the facts of edge @p edge (after fill()). */
    const EdgeFacts &operator[](graph::EdgeId edge) const
    {
        return facts_[edge];
    }

    /** @return the forced-signal vector of tuple @p tuple. */
    const rtl::ForcedSignals &signals(uint32_t tuple) const
    {
        return builder_.signals(tuple);
    }

    /** @return the graph the table describes. */
    const graph::StateGraph &graph() const { return graph_; }

  private:
    const graph::StateGraph &graph_;
    EdgeFactBuilder builder_;
    std::vector<EdgeFacts> facts_;
};

/**
 * Generates test traces from tour components over a PP state graph.
 */
class VectorGenerator
{
  public:
    /**
     * @param model The enumerated PP FSM model (provides the choice
     *              codec, state unpacking and per-edge outputs).
     * @param seed Seed for all biased-random operand choices.
     */
    VectorGenerator(const rtl::PpFsmModel &model, uint64_t seed = 1);

    /** Convert one tour component, computing each edge's control
     *  facts as it walks. */
    TestTrace generate(const graph::StateGraph &graph,
                       const graph::Trace &trace, size_t trace_index = 0);

    /** Convert one tour component of the graph @p table describes,
     *  reading each edge's facts from @p table; the output equals
     *  generate() on that graph. */
    TestTrace generate(const EdgeFactTable &table,
                       const graph::Trace &trace, size_t trace_index = 0);

    /** Convert every tour component. Builds an EdgeFactTable of
     *  @p graph, walks all traces against it, and frees it on
     *  return; the output equals calling generate() on each trace in
     *  order. */
    std::vector<TestTrace> generateAll(
        const graph::StateGraph &graph,
        const std::vector<graph::Trace> &traces);

    /** @return accumulated statistics. */
    const VecGenStats &stats() const { return stats_; }

    /**
     * Render a trace as a human-readable force/release script — the
     * artifact the paper compiles with the Verilog model.
     */
    std::string renderForceScript(const TestTrace &trace) const;

  private:
    /** Convert one trace, reading edge facts from @p table or, when
     *  it is null, computing them per edge with inline_. */
    TestTrace walk(const graph::StateGraph &graph,
                   const graph::Trace &trace, size_t trace_index,
                   const EdgeFactTable *table);

    const rtl::PpFsmModel &model_;
    /** Computes facts for generate() without a table. */
    EdgeFactBuilder inline_;
    /**
     * Operand draws are seeded per packet from a hash of (seed_,
     * tour-edge prefix), not from one sequential stream: traces that
     * share a reset-rooted prefix then materialize byte-identical
     * stimulus for it, which is what makes checkpoint reuse across
     * traces (harness::ReplayEngine) actually hit.
     */
    uint64_t seed_;
    VecGenStats stats_;
};

} // namespace archval::vecgen

#endif // ARCHVAL_VECGEN_VECTOR_GEN_HH
