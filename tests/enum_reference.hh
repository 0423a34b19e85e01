/**
 * @file
 * Test-only reference for the enumerator differential suites: the
 * paper's Section 3.2 search written as plainly as possible (one
 * hash map, states expanded in id order, fsm::Model::forEachTransition)
 * with no step kernels, partitions, paging, workers or telemetry.
 * Comparing murphi::Enumerator against it means an engine change
 * cannot move both sides of a differential at once.
 */

#ifndef ARCHVAL_TESTS_ENUM_REFERENCE_HH
#define ARCHVAL_TESTS_ENUM_REFERENCE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fsm/model.hh"
#include "graph/state_graph.hh"
#include "murphi/enumerator.hh"
#include "support/bitvec.hh"

namespace archval::test
{

/**
 * Breadth-first search from reset. Ids are handed out in discovery
 * order, so expanding states in id order is BFS order. FirstCondition
 * keeps the first edge per (src, dst); AllConditions keeps every one.
 */
inline graph::StateGraph
referenceEnumerate(const fsm::Model &model,
                   murphi::EdgeRecording recording,
                   bool retain_states = true)
{
    graph::StateGraph graph;
    std::unordered_map<BitVec, graph::StateId, BitVecHash> ids;
    std::vector<BitVec> states;
    auto intern = [&](const BitVec &state) {
        auto [it, inserted] = ids.try_emplace(
            state, static_cast<graph::StateId>(states.size()));
        if (inserted) {
            states.push_back(state);
            if (retain_states)
                graph.addState(state);
            else
                graph.addStateUnretained();
        }
        return it->second;
    };

    intern(model.resetState());
    for (graph::StateId src = 0; src < states.size(); ++src) {
        const BitVec packed = states[src]; // states may reallocate
        std::unordered_set<graph::StateId> seen;
        model.forEachTransition(
            packed, [&](uint64_t code, fsm::Transition &&transition) {
                const graph::StateId dst = intern(transition.next);
                if (recording == murphi::EdgeRecording::FirstCondition &&
                    !seen.insert(dst).second) {
                    return;
                }
                graph.addEdge(src, dst, code, transition.instructions);
            });
    }
    return graph;
}

/**
 * Serialize every observable byte of a graph: per state the packed
 * vector and adjacency list, per edge (in id order) all four fields.
 * Two graphs with equal bytes are interchangeable for every
 * downstream consumer (tours, vectors, fuzzing, coverage).
 */
inline std::string
fingerprintBytes(const graph::StateGraph &graph)
{
    std::string bytes;
    auto put64 = [&bytes](uint64_t value) {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(char(value >> (8 * i)));
    };
    put64(graph.numStates());
    put64(graph.numEdges());
    put64(graph.statesRetained());
    for (graph::StateId s = 0; s < graph.numStates(); ++s) {
        if (graph.statesRetained()) {
            const BitVec &packed = graph.packedState(s);
            put64(packed.numBits());
            bytes += packed.toString();
        }
        for (graph::EdgeId e : graph.outEdges(s))
            put64(e);
    }
    for (graph::EdgeId e = 0; e < graph.numEdges(); ++e) {
        const graph::Edge &edge = graph.edge(e);
        put64(edge.src);
        put64(edge.dst);
        put64(edge.choiceCode);
        put64(edge.instrCount);
    }
    return bytes;
}

} // namespace archval::test

#endif // ARCHVAL_TESTS_ENUM_REFERENCE_HH
