/**
 * @file
 * Batch-replay scaling — worker-count sweep of the replay engine.
 *
 * The batch is the hunt workload: every trace of the 10k-limit tour
 * replayed against the bug-free machine and each of the six Table
 * 2.1 faults. The engine's in-batch sharing axis is bug-free donor
 * reuse: a fault that never triggers on a trace provably cannot
 * change its replay, so the bugged job reuses the bug-free result
 * without stepping a cycle. This bench reports, per worker count:
 * wall time, cycles actually stepped, the fraction of demanded
 * cycles avoided, donor copies, and whether the results stayed
 * byte-identical to the sequential VectorPlayer (they must).
 *
 * A second section measures re-reaching a bug through the warm
 * cache: for each chain-link stride the same batch plays cold
 * (populating a fresh ReplayWarmCache) and then warm, where every
 * triggered job resumes from the donor's greatest link below its
 * first trigger.
 *
 * `--json <path>` additionally writes the table as JSON (see
 * README; CI uses BENCH_replay.json).
 */

#include <cstdio>
#include <optional>

#include "bench_util.hh"
#include "harness/replay_engine.hh"
#include "murphi/enumerator.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "support/timer.hh"

using namespace archval;

namespace
{

/** FNV-1a over every observable field of a result batch. */
uint64_t
fingerprint(const std::vector<harness::PlayResult> &results)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            h ^= (value >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const harness::PlayResult &r : results) {
        mix(r.diverged);
        mix(r.cycles);
        mix(r.instructions);
        mix(r.lockstepErrors);
        mix(r.drained);
        mix(r.skipped);
        mix(r.diff.size());
        for (char c : r.diff)
            mix(static_cast<unsigned char>(c));
    }
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Replay scaling",
                  "Batch replay: workers x donor reuse, warm-chain "
                  "re-reach");

    telemetry::setThreadName("main");
    std::optional<telemetry::ScopedSpan> phase;
    phase.emplace("bench.setup");

    rtl::PpConfig config = bench::benchSimConfig();
    rtl::PpFsmModel model(config);
    murphi::Enumerator enumerator(model);
    auto graph = enumerator.runOrThrow();
    // The Table 3.3 trace limit: plain reset-rooted cuts.
    graph::TourOptions tour_options;
    tour_options.maxInstructionsPerTrace = 10'000;
    graph::TourGenerator tour_gen(graph, tour_options);
    auto tours = tour_gen.run();
    vecgen::VectorGenerator generator(model, 2024);
    auto vectors = generator.generateAll(graph, tours);

    // The hunt workload: bug-free (the donor block) plus every
    // Table 2.1 fault, each as its own bug set.
    std::vector<rtl::BugSet> bug_sets;
    bug_sets.emplace_back();
    for (size_t b = 0; b < rtl::numBugs; ++b) {
        rtl::BugSet set;
        set.set(b);
        bug_sets.push_back(set);
    }

    uint64_t batch_cycles = 0;
    for (const auto &trace : vectors)
        batch_cycles += trace.cycles.size();
    std::printf("\nbatch: %s traces x %zu bug sets, %s forced "
                "cycles (graph: %s states, %s edges)\n\n",
                withCommas(vectors.size()).c_str(), bug_sets.size(),
                withCommas(batch_cycles * bug_sets.size()).c_str(),
                withCommas(graph.numStates()).c_str(),
                withCommas(graph.numEdges()).c_str());

    // Sequential reference: the plain per-trace player path the
    // engine must match byte-for-byte, in the engine's result order.
    phase.emplace("bench.seq_reference");
    harness::VectorPlayer player(config);
    std::vector<harness::PlayResult> reference;
    reference.reserve(vectors.size() * bug_sets.size());
    WallTimer seq_timer;
    for (const rtl::BugSet &bugs : bug_sets)
        for (const auto &trace : vectors)
            reference.push_back(player.play(trace, bugs));
    double seq_seconds = seq_timer.seconds();
    const uint64_t base_fingerprint = fingerprint(reference);

    bench::JsonWriter json("replay_scaling");
    std::printf("%8s %8s %9s %16s %10s %7s %10s\n", "workers",
                "wall s", "speedup", "sim cycles", "avoided",
                "copies", "identical");

    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        phase.emplace("bench.sweep_point", "workers", threads);
        harness::ReplayOptions options;
        options.numThreads = threads;
        harness::ReplayEngine engine(config, options);
        WallTimer timer;
        auto results = engine.playAll(vectors, bug_sets);
        double seconds = timer.seconds();
        const auto &stats = engine.stats();
        bool identical = fingerprint(results) == base_fingerprint;

        std::printf("%8u %8.2f %8.2fx %16s %9.1f%% %7s %10s\n",
                    threads, seconds,
                    seconds > 0.0 ? seq_seconds / seconds : 0.0,
                    withCommas(stats.simulatedCycles).c_str(),
                    100.0 * stats.avoidedFraction(),
                    withCommas(stats.bugSetCopies).c_str(),
                    identical ? "yes" : "NO");

        json.beginRow();
        json.add("section", "scaling");
        json.add("workers", threads);
        json.add("wall_seconds", seconds);
        json.add("simulated_cycles", stats.simulatedCycles);
        json.add("batch_cycles", stats.batchCycles);
        json.add("cycles_avoided", stats.cyclesAvoided);
        json.add("avoided_fraction", stats.avoidedFraction());
        json.add("bug_set_copies", stats.bugSetCopies);
        json.add("identical", identical);
        if (!identical)
            return 1;
    }

    // ------------------------------------------------------------------
    // Re-reaching a bug: warm-chain rows. The jobs this targets are
    // the ones donor copying cannot touch — (trace, bug) pairs whose
    // fault *did* trigger on the bug-free run. A cold run deposits
    // each trace's donor result and a checkpoint chain (one link
    // every `stride` cycles) in a fresh warm cache; on the warm
    // repeat each triggered job resumes from the greatest link
    // strictly below its first trigger cycle (bug mask re-armed at
    // restore). "Savings" is avoided/avoidable: the fraction of the
    // jobs' reset-to-trigger lead cycles never re-stepped. The lead
    // is the right denominator — everything past the trigger is the
    // diverged run itself, which any scheme must simulate — and it is
    // the Table 3.3 quantity, the time to rerun a simulation to
    // reach a bug.
    // ------------------------------------------------------------------
    std::printf("\nwarm-chain re-reach (cold, then warm):\n");
    std::printf("%8s %9s %6s %6s %9s %12s %12s %10s\n", "stride",
                "chain MB", "trig", "hits", "savings", "cold cycles",
                "warm cycles", "identical");

    double best_savings = 0.0;
    for (size_t stride : {size_t{256}, size_t{1024}, size_t{4096}}) {
        phase.emplace("bench.warm_chain_point", "stride",
                      (uint64_t)stride);
        harness::ReplayOptions options;
        options.numThreads = 4;
        options.checkpointStride = stride;
        options.warmCache = std::make_shared<harness::ReplayWarmCache>();
        harness::ReplayEngine cold(config, options);
        auto cold_results = cold.playAll(vectors, bug_sets);
        harness::ReplayEngine engine(config, options);
        WallTimer timer;
        auto results = engine.playAll(vectors, bug_sets);
        double seconds = timer.seconds();
        const auto &stats = engine.stats();
        const size_t chain_bytes = options.warmCache->stats().bytes;
        bool identical =
            fingerprint(cold_results) == base_fingerprint &&
            fingerprint(results) == base_fingerprint;
        if (stats.strideSavings() > best_savings)
            best_savings = stats.strideSavings();

        std::printf("%8zu %9.1f %6s %6s %8.1f%% %12s %12s %10s\n",
                    stride, double(chain_bytes) / double(1 << 20),
                    withCommas(stats.triggeredJobs).c_str(),
                    withCommas(stats.strideHits).c_str(),
                    100.0 * stats.strideSavings(),
                    withCommas(cold.stats().simulatedCycles).c_str(),
                    withCommas(stats.simulatedCycles).c_str(),
                    identical ? "yes" : "NO");

        json.beginRow();
        json.add("section", "warm_chain");
        json.add("stride", (uint64_t)stride);
        json.add("wall_seconds", seconds);
        json.add("warm_cache_bytes", (uint64_t)chain_bytes);
        json.add("warm_hits", stats.warmHits);
        json.add("triggered_jobs", stats.triggeredJobs);
        json.add("triggered_job_cycles", stats.triggeredJobCycles);
        json.add("triggered_lead_cycles", stats.triggeredLeadCycles);
        json.add("stride_hits", stats.strideHits);
        json.add("stride_resume_cycles", stats.strideResumeCycles);
        json.add("stride_savings", stats.strideSavings());
        json.add("cold_simulated_cycles",
                 cold.stats().simulatedCycles);
        json.add("simulated_cycles", stats.simulatedCycles);
        json.add("identical", identical);
        if (!identical)
            return 1;
    }

    std::printf("\nsummary: warm chain links skip %.1f%% of the cycles "
                "between reset and the\nbugs' first triggers at the "
                "best stride (the time to re-reach a bug); results\n"
                "stay byte-identical throughout.\n",
                100.0 * best_savings);

    phase.reset();
    std::string path = bench::jsonPath(argc, argv);
    if (!json.write(path)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    return best_savings > 0.30 ? 0 : 1;
}
