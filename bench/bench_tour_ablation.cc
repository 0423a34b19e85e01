/**
 * @file
 * Ablation of the Figure 3.3 tour-generation design choices.
 *
 *  - Greedy DFS+BFS (the paper's algorithm) vs the optimal
 *    resettable Chinese Postman tour [EJ72]: how much re-traversal
 *    overhead does avoiding backtracking cost? (Section 3.3 argues
 *    re-traversal is cheap in simulation and near-optimality is not
 *    required.)
 *  - Trace-limit sweep: the Table 3.3 trade-off between the longest
 *    single trace (time to re-reach a bug) and total overhead,
 *    across several per-trace instruction limits.
 *
 * `--json <path>` additionally writes every measured row as JSON
 * (CI uses BENCH_tour_ablation.json; see tools/bench_diff.py).
 */

#include <cstdio>

#include "bench_util.hh"
#include "graph/postman.hh"
#include "graph/tour.hh"
#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"
#include "support/strings.hh"
#include "support/timer.hh"

using namespace archval;

int
main(int argc, char **argv)
{
    bench::banner("Tour ablation",
                  "Greedy DFS+BFS vs Chinese Postman; trace-limit "
                  "sweep");

    rtl::PpConfig config = bench::benchSimConfig();
    rtl::PpFsmModel model(config);
    murphi::Enumerator enumerator(model);
    auto graph = enumerator.runOrThrow();
    std::printf("\ngraph: %s states, %s edges\n",
                withCommas(graph.numStates()).c_str(),
                withCommas(graph.numEdges()).c_str());

    // --- optimal baseline -------------------------------------------------
    WallTimer postman_timer;
    auto postman = graph::solveResettablePostman(graph);
    auto euler = graph::hierholzerTour(graph, postman);
    double postman_secs = postman_timer.seconds();
    if (auto err = graph::checkPostmanTour(graph, postman, euler);
        !err.empty()) {
        std::fprintf(stderr, "postman check failed: %s\n",
                     err.c_str());
        return 1;
    }

    WallTimer greedy_timer;
    graph::TourGenerator greedy(graph);
    auto greedy_traces = greedy.run();
    double greedy_secs = greedy_timer.seconds();

    std::printf("\n%-28s %16s %16s\n", "", "greedy DFS+BFS",
                "Chinese Postman");
    std::printf("%-28s %16s %16s\n", "edge traversals",
                withCommas(greedy.stats().totalEdgeTraversals).c_str(),
                withCommas(postman.totalTraversals).c_str());
    std::printf("%-28s %16s %16s\n", "trace restarts",
                withCommas(greedy.stats().numTraces - 1).c_str(),
                withCommas(postman.resetReturns).c_str());
    std::printf("%-28s %16.2f %16.2f\n", "generation time (s)",
                greedy_secs, postman_secs);
    double overhead =
        postman.tourLength
            ? (double(greedy.stats().totalEdgeTraversals +
                      greedy.stats().numTraces - 1) /
                   double(postman.tourLength) -
               1.0) * 100.0
            : 0.0;
    std::printf("%-28s %15.1f%%\n",
                "greedy overhead vs optimal", overhead);

    bench::JsonWriter json("tour_ablation");
    json.beginRow();
    json.add("section", "postman");
    json.add("greedy_traversals",
             greedy.stats().totalEdgeTraversals);
    json.add("greedy_restarts",
             (uint64_t)(greedy.stats().numTraces - 1));
    json.add("postman_traversals", postman.totalTraversals);
    json.add("postman_restarts", postman.resetReturns);
    json.add("greedy_overhead_pct", overhead);
    json.add("greedy_seconds", greedy_secs);
    json.add("postman_seconds", postman_secs);

    // --- trace-limit sweep -------------------------------------------------
    std::printf("\ntrace-limit sweep (Table 3.3 trade-off):\n");
    std::printf("%12s %10s %16s %16s %18s\n", "limit", "traces",
                "instructions", "longest trace",
                "est. re-run @100Hz");
    for (uint64_t limit : {uint64_t(0), uint64_t(100'000),
                           uint64_t(10'000), uint64_t(1'000)}) {
        graph::TourOptions options;
        options.maxInstructionsPerTrace = limit;
        graph::TourGenerator generator(graph, options);
        auto traces = generator.run();
        if (auto err = graph::checkTourCoverage(graph, traces);
            !err.empty()) {
            std::fprintf(stderr, "coverage check failed: %s\n",
                         err.c_str());
            return 1;
        }
        const auto &stats = generator.stats();
        std::printf("%12s %10s %16s %16s %18s\n",
                    limit ? withCommas(limit).c_str() : "none",
                    withCommas(stats.numTraces).c_str(),
                    withCommas(stats.totalInstructions).c_str(),
                    withCommas(stats.longestTraceEdges).c_str(),
                    humanSeconds(double(stats.longestTraceEdges) /
                                 100.0)
                        .c_str());
        json.beginRow();
        json.add("section", "limit_sweep");
        json.add("limit", limit);
        json.add("traces", (uint64_t)stats.numTraces);
        json.add("instructions", stats.totalInstructions);
        json.add("longest_trace_edges", stats.longestTraceEdges);
    }
    std::printf("\nshape: tighter limits multiply trace count but "
                "barely change total cost,\nwhile slashing the "
                "longest trace — the paper's argument for splitting "
                "tours\n(\"extremely helpful in reducing the time "
                "needed to rerun a simulation to\nreach a bug\").\n");

    std::string path = bench::jsonPath(argc, argv);
    if (!json.write(path)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    return 0;
}
