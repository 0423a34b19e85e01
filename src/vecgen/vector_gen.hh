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
 * facts once per graph edge into a table and walks every trace
 * against it; generate() computes them per traversal, which is
 * cheaper for the short single traces fuzzing and bug hunts convert.
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

    /** Convert every tour component. Computes the control facts of
     *  every graph edge once, walks all traces against that table,
     *  and frees it on return; the output equals calling generate()
     *  on each trace in order. */
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
    /**
     * What the tour walk reads of one graph edge: the forced signals
     * and the control's outputs for (source state, choice). Kept to
     * 8 bytes because generateAll holds one per graph edge.
     */
    struct EdgeFacts
    {
        uint32_t tuple;            ///< index into tuples_
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

    /** A distinct choice tuple: the forced-signal vector recorded per
     *  cycle, and the decoded choice the control reads. */
    struct ForcedTuple
    {
        rtl::ForcedSignals signals;
        fsm::Choice choice;
    };

    /** @return the control facts of graph edge @p edge. */
    EdgeFacts factsFor(const graph::StateGraph &graph,
                       graph::EdgeId edge);

    /** @return the index in tuples_ of @p choice_code, adding it on
     *  first sight. */
    uint32_t tupleFor(uint64_t choice_code);

    /** Convert one trace, reading edge facts from @p table (indexed
     *  by edge id) or, when it is null, computing them per edge. */
    TestTrace walk(const graph::StateGraph &graph,
                   const graph::Trace &trace, size_t trace_index,
                   const EdgeFacts *table);

    const rtl::PpFsmModel &model_;
    fsm::ChoiceCodec codec_;
    /** ConflictDropsLoadCheck is set: the control never examines
     *  SameLine, so no load gets an address constraint. */
    bool conflictCheckDropped_;
    std::vector<ForcedTuple> tuples_;
    std::unordered_map<uint64_t, uint32_t> tupleOfCode_;
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
