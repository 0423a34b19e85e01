/**
 * @file
 * Table 2.1 — The six Protocol Processor bugs.
 *
 * Injects each published PP bug into the RTL model and reports which
 * stimulus source exposes it: the generated transition-tour vectors,
 * random legal stimulus at the same interfaces, and the hand-written
 * directed-test suite. The paper's finding — these multiple-event
 * bugs are found by the generated vectors but not (or only at great
 * cost) by the other methods — is the headline result.
 *
 * `--json <path>` additionally writes the per-bug detection table as
 * JSON (CI uses BENCH_table2_1.json; see tools/bench_diff.py).
 */

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_util.hh"
#include "harness/bug_hunt.hh"
#include "murphi/enumerator.hh"
#include "support/strings.hh"

using namespace archval;

int
main(int argc, char **argv)
{
    bench::banner("Table 2.1", "Synopsis of discovered bugs");

    rtl::PpConfig config = bench::benchSimConfig();
    rtl::PpFsmModel model(config);
    murphi::Enumerator enumerator(model);
    auto graph = enumerator.runOrThrow();
    // The 10,000-instruction trace limit of Table 3.3: short traces
    // localize a divergence to a small re-runnable test.
    graph::TourOptions tour_options;
    tour_options.maxInstructionsPerTrace = 10'000;
    graph::TourGenerator tour_gen(graph, tour_options);
    auto tours = tour_gen.run();
    vecgen::VectorGenerator generator(model, 2024);
    auto vectors = generator.generateAll(graph, tours);

    std::printf("\ngraph: %s states, %s edges; %s tour trace(s), "
                "%s instructions\n",
                withCommas(graph.numStates()).c_str(),
                withCommas(graph.numEdges()).c_str(),
                withCommas(tours.size()).c_str(),
                withCommas(tour_gen.stats().totalInstructions)
                    .c_str());

    // Random budget: 4x the tour's instruction cost.
    const uint64_t random_budget =
        4 * tour_gen.stats().totalInstructions;

    // The tour and random arms replay through the batch replay
    // engine on all available cores. Results are byte-identical to
    // the sequential player by contract.
    harness::ReplayOptions replay;
    replay.numThreads =
        std::max(1u, std::thread::hardware_concurrency());
    harness::BugHunt hunt(config, model, graph, vectors, replay);
    std::vector<harness::HuntResult> results;
    for (size_t b = 0; b < rtl::numBugs; ++b) {
        rtl::BugId bug = static_cast<rtl::BugId>(b);
        std::printf("\nBug %zu: %s\n", b + 1, rtl::bugSummary(bug));
        results.push_back(hunt.hunt(bug, random_budget, 99 + b));
    }

    std::printf("\n%s", harness::renderHuntTable(results).c_str());

    bench::JsonWriter json("table2_1");
    unsigned tour_found = 0, random_found = 0, directed_found = 0;
    for (const auto &r : results) {
        tour_found += r.tour.detected;
        random_found += r.random.detected;
        directed_found += r.directed.detected;
        json.beginRow();
        json.add("bug", (uint64_t)(size_t(r.bug) + 1));
        json.add("tour_detected", r.tour.detected);
        json.add("tour_instructions", r.tour.instructions);
        json.add("tour_cycles", r.tour.cycles);
        json.add("random_detected", r.random.detected);
        json.add("random_instructions", r.random.instructions);
        json.add("directed_detected", r.directed.detected);
    }
    std::string path = bench::jsonPath(argc, argv);
    if (!json.write(path)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    std::printf(
        "\nsummary: tour vectors found %u/6 bugs; biased-random "
        "stimulus (4x budget)\nfound %u/6; directed tests found "
        "%u/6. (paper: all six found by generated\nvectors, none by "
        "the hand-written or random vectors used previously)\n",
        tour_found, random_found, directed_found);
    return tour_found == rtl::numBugs ? 0 : 1;
}
