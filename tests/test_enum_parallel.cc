/**
 * @file
 * Determinism and equivalence suite for the enumerator's worker
 * threads: for each HDL example design and the PP FSM model, the
 * search at worker counts {1, 2, 8} must produce a graph
 * byte-identical to the reference BFS (enum_reference.hh) — same
 * ids, same packed states, same edges in the same order — in both
 * edge-recording modes. Also pins the mid-preset PP graph's
 * fingerprint. Registered under the ctest label `enum`.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "enum_reference.hh"
#include "fsm/built_model.hh"
#include "hdl/translate.hh"
#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"

namespace archval
{
namespace
{

/**
 * Enumerate @p model at worker counts {1, 2, 8} and compare each
 * graph with the reference BFS, and each run's search statistics
 * with the one-worker run.
 */
void
expectIdenticalAcrossWorkerCounts(const fsm::Model &model,
                                  murphi::EdgeRecording recording,
                                  bool retain_states = true)
{
    const graph::StateGraph baseline =
        test::referenceEnumerate(model, recording, retain_states);
    const std::string expected = test::fingerprintBytes(baseline);
    ASSERT_GT(baseline.numStates(), 0u);

    murphi::EnumOptions options;
    options.recording = recording;
    options.retainStates = retain_states;
    options.numThreads = 1;
    murphi::Enumerator one_worker(model, options);
    one_worker.runOrThrow();
    const murphi::EnumStats &want = one_worker.stats();

    for (unsigned threads : {1u, 2u, 8u}) {
        options.numThreads = threads;
        murphi::Enumerator parallel(model, options);
        auto graph = parallel.runOrThrow();

        // Byte-identical, and state-for-state / edge-for-edge equal.
        EXPECT_EQ(test::fingerprintBytes(graph), expected)
            << model.name() << " diverges at " << threads
            << " threads";
        ASSERT_EQ(graph.numStates(), baseline.numStates());
        ASSERT_EQ(graph.numEdges(), baseline.numEdges());
        for (graph::StateId s = 0; s < graph.numStates(); ++s) {
            if (retain_states) {
                ASSERT_EQ(graph.packedState(s),
                          baseline.packedState(s))
                    << "state " << s << " at " << threads
                    << " threads";
            }
            ASSERT_EQ(graph.outEdges(s), baseline.outEdges(s));
        }
        for (graph::EdgeId e = 0; e < graph.numEdges(); ++e) {
            const graph::Edge &got = graph.edge(e);
            const graph::Edge &edge = baseline.edge(e);
            ASSERT_EQ(got.src, edge.src) << "edge " << e;
            ASSERT_EQ(got.dst, edge.dst) << "edge " << e;
            ASSERT_EQ(got.choiceCode, edge.choiceCode)
                << "edge " << e;
            ASSERT_EQ(got.instrCount, edge.instrCount)
                << "edge " << e;
        }

        // Search-shape statistics are scheduling-independent too.
        const murphi::EnumStats &stats = parallel.stats();
        EXPECT_EQ(stats.numStates, baseline.numStates());
        EXPECT_EQ(stats.numEdges, baseline.numEdges());
        EXPECT_EQ(stats.transitionsTried, want.transitionsTried);
        EXPECT_EQ(stats.transitionsValid, want.transitionsValid);
        ASSERT_EQ(stats.levels.size(), want.levels.size());
        for (size_t i = 0; i < stats.levels.size(); ++i) {
            EXPECT_EQ(stats.levels[i].frontierWidth,
                      want.levels[i].frontierWidth);
            EXPECT_EQ(stats.levels[i].newStates,
                      want.levels[i].newStates);
            EXPECT_EQ(stats.levels[i].newEdges,
                      want.levels[i].newEdges);
        }
    }
}

void
expectIdenticalInBothModes(const fsm::Model &model)
{
    expectIdenticalAcrossWorkerCounts(
        model, murphi::EdgeRecording::FirstCondition);
    expectIdenticalAcrossWorkerCounts(
        model, murphi::EdgeRecording::AllConditions);
}

/** The HDL example designs from the end-to-end design suite. */
const char *elevator = R"(
module elevator(clk, req0, req1);
  input clk;
  input req0;
  input req1;
  reg floor;        // vfsm state floor reset 0
  reg [1:0] mode;   // vfsm state mode reset 0
  reg [1:0] timer;  // vfsm state timer reset 0
  reg pend0;        // vfsm state pend0 reset 0
  reg pend1;        // vfsm state pend1 reset 0

  wire want_here;
  wire want_there;
  assign want_here = (floor == 1'b0 && pend0) ||
                     (floor == 1'b1 && pend1);
  assign want_there = (floor == 1'b0 && pend1) ||
                      (floor == 1'b1 && pend0);

  always @(posedge clk) begin
    if (req0) pend0 <= 1'b1;
    if (req1) pend1 <= 1'b1;
    case (mode)
      2'd0: begin
        if (want_here) begin
          mode <= 2'd2;
          timer <= 2'd0;
        end else if (want_there)
          mode <= 2'd1;
      end
      2'd1: begin
        floor <= !floor;
        mode <= 2'd2;
        timer <= 2'd0;
      end
      2'd2: begin
        if (timer == 2'd1) begin
          if (floor == 1'b0) pend0 <= 1'b0;
          else pend1 <= 1'b0;
          mode <= 2'd0;
        end else
          timer <= timer + 2'd1;
      end
      default: mode <= 2'd0;
    endcase
  end
endmodule
)";

const char *creditSender = R"(
module credit_sender(clk, want_send, credit_return);
  input clk;
  input want_send;
  input credit_return;
  parameter MAX = 3;
  reg [1:0] credits;  // vfsm state credits reset 3
  wire can_send;
  assign can_send = credits != 2'd0;  // vfsm instr sent
  wire sent;
  assign sent = want_send && can_send;

  always @(posedge clk) begin
    if (sent && !credit_return)
      credits <= credits - 2'd1;
    else if (!sent && credit_return && credits != MAX)
      credits <= credits + 2'd1;
  end
endmodule
)";

TEST(EnumParallel, ElevatorIdenticalAcrossWorkerCounts)
{
    auto result = hdl::translateSource(elevator, "elevator");
    ASSERT_TRUE(result.ok()) << result.errorMessage();
    expectIdenticalInBothModes(*result.value().model);
}

TEST(EnumParallel, CreditSenderIdenticalAcrossWorkerCounts)
{
    auto result = hdl::translateSource(creditSender, "credit_sender");
    ASSERT_TRUE(result.ok()) << result.errorMessage();
    expectIdenticalInBothModes(*result.value().model);
}

TEST(EnumParallel, PpFsmModelIdenticalAcrossWorkerCounts)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    expectIdenticalInBothModes(model);
}

TEST(EnumParallel, PpFsmModelLargerConfigIdentical)
{
    // A mid-size PP configuration by default; set ARCHVAL_ENUM_SOAK
    // to run the paper-scale full preset (adds ~10s). FirstCondition
    // only to keep the suite fast (AllConditions is covered above).
    rtl::PpConfig config = rtl::PpConfig::smallPreset();
    config.lineWords = 4;
    config.dualIssue = true;
    if (std::getenv("ARCHVAL_ENUM_SOAK"))
        config = rtl::PpConfig::fullPreset();
    rtl::PpFsmModel model(config);
    expectIdenticalAcrossWorkerCounts(
        model, murphi::EdgeRecording::FirstCondition);
}

TEST(EnumParallel, UnretainedGraphsIdenticalToo)
{
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    expectIdenticalAcrossWorkerCounts(
        model, murphi::EdgeRecording::FirstCondition,
        /*retain_states=*/false);
}

TEST(EnumParallel, WideShallowModelExercisesSlicing)
{
    // One root fanning out to 256 states in a single level: the
    // level barrier must assign ids in canonical order even when
    // every worker owns a disjoint slice of a single wide level.
    auto model = std::make_unique<fsm::LambdaModel>(
        "wide",
        std::vector<fsm::StateVarInfo>{{"s", 9, 0}},
        std::vector<fsm::ChoiceVarInfo>{{"c", 256}},
        [](const BitVec &state, const fsm::Choice &choice)
            -> std::optional<BitVec> {
            BitVec next(9);
            uint64_t v = state.getField(0, 9);
            next.setField(0, 9, v == 0 ? 256 + choice[0] - 255 : v);
            return next;
        });
    expectIdenticalInBothModes(*model);
}

TEST(EnumParallel, MidPresetPpGoldenFingerprint)
{
    // Pinned figures of the mid PP (the full preset without model
    // alignment). The differentials above compare the engine with the
    // reference BFS; this catches a change that moves both at once.
    rtl::PpConfig config = rtl::PpConfig::fullPreset();
    config.modelAlignment = false;
    rtl::PpFsmModel model(config);
    murphi::EnumOptions options;
    options.numThreads = 2;
    murphi::Enumerator enumerator(model, options);
    auto graph = enumerator.runOrThrow();
    EXPECT_EQ(graph.numStates(), 81356u);
    EXPECT_EQ(graph.numEdges(), 693946u);
    EXPECT_EQ(graph::fingerprint(graph), 0x6ab972164c87dcbcull);
}

} // namespace
} // namespace archval
