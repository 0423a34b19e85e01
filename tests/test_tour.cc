/**
 * @file
 * Unit tests for the Figure 3.3 tour generator: coverage, reset
 * rooting, instruction limits, trace splitting.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fsm/built_model.hh"
#include "graph/state_graph.hh"
#include "graph/tour.hh"
#include "murphi/enumerator.hh"

namespace archval::graph
{
namespace
{

/** Build a small graph by hand. Edges get instrCount 1 by default. */
StateGraph
ringGraph(unsigned n)
{
    StateGraph g;
    for (unsigned i = 0; i < n; ++i)
        g.addStateUnretained();
    for (unsigned i = 0; i < n; ++i)
        g.addEdge(i, (i + 1) % n, i, 1);
    return g;
}

TEST(Tour, SingleRingIsOneTrace)
{
    auto graph = ringGraph(5);
    TourGenerator generator(graph);
    auto traces = generator.run();
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].edges.size(), 5u);
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
    EXPECT_EQ(generator.stats().totalEdgeTraversals, 5u);
    EXPECT_EQ(generator.stats().totalInstructions, 5u);
}

TEST(Tour, EmptyGraphYieldsNoTraces)
{
    StateGraph graph;
    graph.addStateUnretained();
    TourGenerator generator(graph);
    auto traces = generator.run();
    EXPECT_TRUE(traces.empty());
}

TEST(Tour, ResetOnlyEdgesForceMultipleTraces)
{
    // Reset (0) has two edges into a ring that never returns to 0:
    // both edges can only be covered by separate traces — the paper's
    // "edges that can only be reached from reset" lower bound.
    StateGraph graph;
    for (int i = 0; i < 3; ++i)
        graph.addStateUnretained();
    graph.addEdge(0, 1, 0, 1);
    graph.addEdge(0, 2, 1, 1);
    graph.addEdge(1, 2, 2, 1);
    graph.addEdge(2, 1, 3, 1);

    TourGenerator generator(graph);
    auto traces = generator.run();
    EXPECT_EQ(traces.size(), 2u);
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
}

TEST(Tour, BfsBridgesDisconnectedCoverage)
{
    // Two loops joined at reset; DFS exhausts one loop, BFS must
    // route back through covered edges to reach the other.
    StateGraph graph;
    for (int i = 0; i < 5; ++i)
        graph.addStateUnretained();
    // Loop A: 0 -> 1 -> 0
    graph.addEdge(0, 1, 0, 1);
    graph.addEdge(1, 0, 1, 1);
    // Loop B: 0 -> 2 -> 3 -> 4 -> 0
    graph.addEdge(0, 2, 2, 1);
    graph.addEdge(2, 3, 3, 1);
    graph.addEdge(3, 4, 4, 1);
    graph.addEdge(4, 0, 5, 1);

    TourGenerator generator(graph);
    auto traces = generator.run();
    EXPECT_EQ(traces.size(), 1u);
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
}

TEST(Tour, RevisitsStatesWithRemainingEdges)
{
    // Diamond with parallel edges: 0->1 (x2), 1->0 (x2).
    StateGraph graph;
    graph.addStateUnretained();
    graph.addStateUnretained();
    graph.addEdge(0, 1, 0, 1);
    graph.addEdge(0, 1, 1, 1);
    graph.addEdge(1, 0, 2, 1);
    graph.addEdge(1, 0, 3, 1);

    TourGenerator generator(graph);
    auto traces = generator.run();
    EXPECT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].edges.size(), 4u);
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
}

TEST(Tour, InstructionLimitSplitsTraces)
{
    auto graph = ringGraph(30);
    TourOptions options;
    options.maxInstructionsPerTrace = 10;
    TourGenerator generator(graph, options);
    auto traces = generator.run();
    EXPECT_GT(traces.size(), 1u);
    // The limit is approximate (a trace may exceed it by its
    // reset-connecting prefix plus one edge) but every limited trace
    // must have reached it, and each trace must make progress.
    for (const auto &t : traces) {
        if (t.limitTerminated) {
            EXPECT_GE(t.instructions, 10u);
        }
        EXPECT_FALSE(t.edges.empty());
    }
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
    EXPECT_GT(generator.stats().tracesTerminatedByLimit, 0u);
}

TEST(Tour, LimitCountsInstructionsNotEdges)
{
    // Ring where only every third edge carries an instruction: the
    // limit should allow ~3x the edges.
    StateGraph graph;
    const unsigned n = 30;
    for (unsigned i = 0; i < n; ++i)
        graph.addStateUnretained();
    for (unsigned i = 0; i < n; ++i)
        graph.addEdge(i, (i + 1) % n, i, i % 3 == 0 ? 1 : 0);

    TourOptions options;
    options.maxInstructionsPerTrace = 5;
    TourGenerator generator(graph, options);
    auto traces = generator.run();
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
    EXPECT_GT(traces.size(), 1u);
    // Zero-instruction edges must not count toward the limit: the
    // first trace walks 5 instruction-carrying edges, which in this
    // ring means well over 5 edges traversed.
    EXPECT_GT(traces[0].edges.size(), 5u);
    EXPECT_EQ(traces[0].instructions, 5u);
}

TEST(Tour, StatsConsistentWithTraces)
{
    auto graph = ringGraph(12);
    TourGenerator generator(graph);
    auto traces = generator.run();
    uint64_t edges = 0, instrs = 0, longest = 0;
    for (const auto &t : traces) {
        edges += t.edges.size();
        instrs += t.instructions;
        longest = std::max<uint64_t>(longest, t.edges.size());
    }
    EXPECT_EQ(generator.stats().totalEdgeTraversals, edges);
    EXPECT_EQ(generator.stats().totalInstructions, instrs);
    EXPECT_EQ(generator.stats().longestTraceEdges, longest);
    EXPECT_EQ(generator.stats().numTraces, traces.size());
}

TEST(Tour, CoverageCheckerDetectsGap)
{
    auto graph = ringGraph(4);
    TourGenerator generator(graph);
    auto traces = generator.run();
    ASSERT_EQ(traces.size(), 1u);
    traces[0].instructions -=
        graph.edge(traces[0].edges.back()).instrCount;
    traces[0].edges.pop_back();
    EXPECT_NE(checkTourCoverage(graph, traces), "");
}

TEST(Tour, CoverageCheckerDetectsDiscontinuity)
{
    auto graph = ringGraph(4);
    std::vector<Trace> traces(1);
    traces[0].edges = {0, 2}; // skips edge 1: walk breaks at state 1
    traces[0].instructions = 2;
    EXPECT_NE(checkTourCoverage(graph, traces), "");
}

TEST(Tour, WorksOnEnumeratedModel)
{
    // End-to-end: enumerate a counter model, tour it, verify.
    fsm::LambdaModel model(
        "counter",
        std::vector<fsm::StateVarInfo>{{"count", 5, 0}},
        std::vector<fsm::ChoiceVarInfo>{{"delta", 3}},
        [](const BitVec &state, const fsm::Choice &choice)
            -> std::optional<BitVec> {
            BitVec next(5);
            next.setField(0, 5,
                          (state.getField(0, 5) + choice[0]) & 31);
            return next;
        },
        [](const BitVec &, const fsm::Choice &choice) -> unsigned {
            return choice[0] > 0 ? 1 : 0;
        });
    murphi::Enumerator enumerator(model);
    auto graph = enumerator.runOrThrow();
    TourGenerator generator(graph);
    auto traces = generator.run();
    EXPECT_EQ(checkTourCoverage(graph, traces), "");
    EXPECT_GE(generator.stats().totalEdgeTraversals, graph.numEdges());
}

TEST(GraphAnalysis, SccOnRing)
{
    auto graph = ringGraph(6);
    auto scc = stronglyConnectedComponents(graph);
    EXPECT_EQ(scc.numComponents, 1u);
}

TEST(GraphAnalysis, SccSeparatesDag)
{
    StateGraph graph;
    for (int i = 0; i < 3; ++i)
        graph.addStateUnretained();
    graph.addEdge(0, 1, 0, 0);
    graph.addEdge(1, 2, 0, 0);
    auto scc = stronglyConnectedComponents(graph);
    EXPECT_EQ(scc.numComponents, 3u);
}

TEST(GraphAnalysis, ReachabilityFromReset)
{
    StateGraph graph;
    for (int i = 0; i < 4; ++i)
        graph.addStateUnretained();
    graph.addEdge(0, 1, 0, 0);
    graph.addEdge(2, 3, 0, 0); // island
    auto reach = reachableFrom(graph, 0);
    EXPECT_TRUE(reach[0]);
    EXPECT_TRUE(reach[1]);
    EXPECT_FALSE(reach[2]);
    EXPECT_FALSE(reach[3]);
}

TEST(GraphAnalysis, SummaryCounts)
{
    auto graph = ringGraph(6);
    auto summary = summarize(graph);
    EXPECT_EQ(summary.numStates, 6u);
    EXPECT_EQ(summary.numEdges, 6u);
    EXPECT_EQ(summary.maxOutDegree, 1u);
    EXPECT_EQ(summary.numSinkStates, 0u);
    EXPECT_EQ(summary.largestScc, 6u);
}

} // namespace
} // namespace archval::graph
