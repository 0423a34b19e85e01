/**
 * @file
 * Transition-tour generation over a state graph (paper Section 3.3).
 *
 * Implements the Figure 3.3 algorithm verbatim: a greedy depth-first
 * traversal that marks edges covered as it goes; when no untraversed
 * edge leaves the current state, a breadth-first "explore" finds the
 * nearest state that still has one and the shortest path to it is
 * appended to the tour (re-traversing edges is cheap in simulation,
 * backtracking is not). When nothing is reachable, a new trace is
 * started from reset. An optional per-trace instruction limit splits
 * long traces so any bug can be re-reached quickly (Table 3.3).
 */

#ifndef ARCHVAL_GRAPH_TOUR_HH
#define ARCHVAL_GRAPH_TOUR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/state_graph.hh"

namespace archval::graph
{

/** One reset-rooted trace: a walk in the graph starting at reset. */
struct Trace
{
    std::vector<EdgeId> edges; ///< edges in traversal order
    uint64_t instructions = 0; ///< total instructions in the trace
    bool limitTerminated = false; ///< cut by the per-trace limit
};

/** Tour generation options. */
struct TourOptions
{
    /** Per-trace instruction limit; 0 disables (paper compares
     *  unlimited vs a 10,000-instruction limit). */
    uint64_t maxInstructionsPerTrace = 0;
};

/** Statistics matching the paper's Table 3.3 rows. */
struct TourStats
{
    uint64_t numTraces = 0;
    uint64_t totalEdgeTraversals = 0;
    uint64_t totalInstructions = 0;
    uint64_t longestTraceEdges = 0;
    uint64_t longestTraceInstructions = 0;
    uint64_t tracesTerminatedByLimit = 0;
    double generationSeconds = 0.0;

    /** Render as an aligned table next to the paper's values. */
    std::string render() const;
};

/**
 * Generates a covering set of reset-rooted traces whose union
 * traverses every edge of the graph at least once.
 */
class TourGenerator
{
  public:
    /**
     * @param graph Graph to cover (must outlive the generator).
     * @param options Generation options.
     */
    explicit TourGenerator(const StateGraph &graph,
                           TourOptions options = {});

    /**
     * Run the Figure 3.3 algorithm.
     * @return traces whose union covers every edge.
     */
    std::vector<Trace> run();

    /** @return statistics of the completed run. */
    const TourStats &stats() const { return stats_; }

  private:
    /** Greedy DFS from @p state; appends covered edges to @p trace.
     *  @return the state where no untraversed edge was available. */
    StateId traverseDfs(StateId state, Trace &trace);

    /** Explore phase: route from @p state to a state that still has
     *  an untraversed out-edge, appending the connecting path to
     *  @p trace.
     *
     *  Figure 3.3 breadth-first-searches from every stuck point; on
     *  large graphs that is quadratic (very plausibly the dominant
     *  term in the paper's 161,159-second generation time). This
     *  implementation instead routes *via reset* along two static
     *  trees computed once — a reverse-BFS in-tree toward reset and
     *  a forward-BFS tree from reset — consuming work states in
     *  increasing depth order. Paths are a constant factor longer
     *  (bounded by twice the graph's BFS depth) but re-traversal is
     *  exactly the cost the paper calls cheap, and generation
     *  becomes linear in the graph size.
     *
     *  @return the reached state, or invalidState when reset cannot
     *  be re-reached from @p state (a new trace must start). */
    StateId traverseBfs(StateId state, Trace &trace);

    /** Build the two static routing trees (once per run). */
    void buildStaticRoutes();

    /** @return the shallowest state that still has untraversed
     *  out-edges, or invalidState when none remain. */
    StateId nextWorkState();

    /** @return true when @p state has an untraversed out-edge
     *  (advances its scan pointer past covered edges). */
    bool hasUncovered(StateId state);

    /** Mark @p edge traversed; update coverage bookkeeping. */
    void coverEdge(EdgeId edge);

    /** Append @p edge to @p trace, covering it if still uncovered. */
    void takeEdge(EdgeId edge, Trace &trace);

    /** @return true when @p trace is at or past the instruction
     *  limit. */
    bool atLimit(const Trace &trace) const;

    const StateGraph &graph_;
    TourOptions options_;
    TourStats stats_;

    std::vector<bool> covered_;
    /** Per-state index of the first possibly-uncovered out-edge
     *  (advances monotonically; makes repeated DFS linear). */
    std::vector<uint32_t> nextUncovered_;
    uint64_t remainingUncovered_ = 0;

    /** Static routing (built once per run). @{ */
    std::vector<EdgeId> toResetEdge_;   ///< first hop toward reset
    std::vector<EdgeId> fromResetEdge_; ///< BFS-tree edge into state
    std::vector<StateId> depthOrder_;   ///< states by BFS depth
    size_t workCursor_ = 0;             ///< scan position
    /** @} */

    static constexpr EdgeId invalidEdge = UINT32_MAX;
};

/**
 * Verify that @p traces cover every edge of @p graph, are connected
 * walks, and start at reset. @return empty string on success, else a
 * description of the first violation (used by tests and benches).
 */
std::string checkTourCoverage(const StateGraph &graph,
                              const std::vector<Trace> &traces);

} // namespace archval::graph

#endif // ARCHVAL_GRAPH_TOUR_HH
