/**
 * @file
 * Checkpointed-replay scaling — worker-count sweep with the prefix
 * checkpoint cache on and off.
 *
 * The batch is the hunt workload: every tour trace replayed against
 * the bug-free machine and each of the six Table 2.1 faults. The
 * engine exploits two redundancy axes — cross-trace shared stimulus
 * prefixes (checkpoint cache) and, dominating here, bug-free donor
 * reuse: a fault that never triggers on a trace provably cannot
 * change its replay, so the bugged job reuses the bug-free result
 * without stepping a cycle. This bench reports, per (workers, cache)
 * point: wall time, cycles actually stepped, the fraction of
 * demanded cycles avoided, donor copies, and whether the results
 * stayed byte-identical to the sequential player (they must — the
 * cache is a pure accelerator).
 *
 * A second section measures re-reaching a bug through the warm
 * cache: for each chain-link stride the plain 10k batch plays cold
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
                  "Checkpointed batch replay: workers x prefix "
                  "cache");

    telemetry::setThreadName("main");
    std::optional<telemetry::ScopedSpan> phase;
    phase.emplace("bench.setup");

    rtl::PpConfig config = bench::benchSimConfig();
    rtl::PpFsmModel model(config);
    murphi::Enumerator enumerator(model);
    auto graph = enumerator.runOrThrow();
    // The Table 3.3 trace limit, applied as nested prefix splits:
    // consecutive traces share their whole stem, which is the shape
    // the checkpoint cache exploits (each stem simulates once).
    graph::TourOptions tour_options;
    tour_options.maxInstructionsPerTrace = 10'000;
    tour_options.nestedPrefixSplits = true;
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
    // engine must match byte-for-byte.
    phase.emplace("bench.seq_reference");
    harness::ReplayOptions seq_options;
    seq_options.numThreads = 1;
    seq_options.checkpointBudgetBytes = 0;
    harness::ReplayEngine sequential(config, seq_options);
    WallTimer seq_timer;
    auto reference = sequential.playAll(vectors, bug_sets);
    double seq_seconds = seq_timer.seconds();
    const uint64_t base_fingerprint = fingerprint(reference);
    const uint64_t base_cycles = sequential.stats().simulatedCycles;

    bench::JsonWriter json("replay_scaling");
    std::printf("%8s %7s %8s %9s %16s %10s %7s %9s %10s\n",
                "workers", "cache", "wall s", "speedup",
                "sim cycles", "avoided", "copies", "hit rate",
                "identical");

    double best_reduction = 0.0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        for (bool cache : {false, true}) {
            phase.emplace("bench.sweep_point", "workers", threads,
                          "cache", (uint64_t)cache);
            harness::ReplayOptions options;
            options.numThreads = threads;
            options.checkpointBudgetBytes =
                cache ? (256ull << 20) : 0;
            harness::ReplayEngine engine(config, options);
            WallTimer timer;
            auto results = engine.playAll(vectors, bug_sets);
            double seconds = timer.seconds();
            const auto &stats = engine.stats();
            bool identical =
                fingerprint(results) == base_fingerprint;
            double reduction =
                base_cycles
                    ? 1.0 - double(stats.simulatedCycles) /
                                double(base_cycles)
                    : 0.0;
            if (cache && reduction > best_reduction)
                best_reduction = reduction;

            std::printf(
                "%8u %7s %8.2f %8.2fx %16s %9.1f%% %7s %8.1f%% "
                "%10s\n",
                threads, cache ? "on" : "off", seconds,
                seconds > 0.0 ? seq_seconds / seconds : 0.0,
                withCommas(stats.simulatedCycles).c_str(),
                100.0 * stats.avoidedFraction(),
                withCommas(stats.bugSetCopies).c_str(),
                100.0 * stats.hitRate(), identical ? "yes" : "NO");

            json.beginRow();
            json.add("section", "scaling");
            json.add("workers", threads);
            json.add("cache", cache);
            json.add("wall_seconds", seconds);
            json.add("simulated_cycles", stats.simulatedCycles);
            json.add("batch_cycles", stats.batchCycles);
            json.add("cycles_avoided", stats.cyclesAvoided);
            json.add("avoided_fraction", stats.avoidedFraction());
            json.add("hit_rate", stats.hitRate());
            json.add("checkpoints_published",
                     stats.checkpointsPublished);
            json.add("checkpoint_hits", stats.checkpointHits);
            json.add("bug_set_copies", stats.bugSetCopies);
            json.add("verify_fallbacks", stats.verifyFallbacks);
            json.add("cache_evictions", stats.cacheEvictions);
            json.add("peak_cache_bytes",
                     (uint64_t)stats.peakCacheBytes);
            json.add("identical", identical);
            if (!identical)
                return 1;
        }
    }

    std::printf("\nsummary: prefix sharing removes %.1f%% of the "
                "simulated cycles on this batch\n(cache on vs off); "
                "results stay byte-identical to the sequential "
                "player at\nevery point.\n",
                100.0 * best_reduction);

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
    //
    // The rows run on the *plain* 10k-limit batch (the Table 2.1
    // hunt workload). On the nested batch above, every trace re-walks
    // the same stem, so the fault conjunctions fire within that
    // stem's first few hundred cycles of every trace, below the first
    // link of any useful stride. Plain traces cover disjoint graph
    // regions, so trigger cycles spread across the whole trace
    // length.
    // ------------------------------------------------------------------
    phase.emplace("bench.plain_setup");
    graph::TourOptions plain_options;
    plain_options.maxInstructionsPerTrace = 10'000;
    graph::TourGenerator plain_gen(graph, plain_options);
    auto plain_tours = plain_gen.run();
    auto plain_vectors = generator.generateAll(graph, plain_tours);

    harness::ReplayEngine plain_seq(config, seq_options);
    auto plain_reference = plain_seq.playAll(plain_vectors, bug_sets);
    const uint64_t plain_fingerprint = fingerprint(plain_reference);

    std::printf("\nwarm-chain re-reach (plain 10k-limit batch, %s "
                "traces; cold, then warm):\n",
                withCommas(plain_vectors.size()).c_str());
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
        auto cold_results = cold.playAll(plain_vectors, bug_sets);
        harness::ReplayEngine engine(config, options);
        WallTimer timer;
        auto results = engine.playAll(plain_vectors, bug_sets);
        double seconds = timer.seconds();
        const auto &stats = engine.stats();
        const size_t chain_bytes = options.warmCache->stats().bytes;
        bool identical =
            fingerprint(cold_results) == plain_fingerprint &&
            fingerprint(results) == plain_fingerprint;
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
    return best_reduction > 0.30 && best_savings > 0.30 ? 0 : 1;
}
