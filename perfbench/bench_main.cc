/**
 * @file
 * archval benchmark binary: runs one named workload of the paper's
 * pipeline (enumerate -> tour -> vecgen -> simulate against the
 * reference) in this process and times each layer from outside, by
 * wrapping the calls into that layer's public functions.
 *
 * Usage:
 *   archval_bench --workload NAME --seed N --seconds S
 *                 [--launched-at T]
 *
 * setup_s is the time from process launch to the first timed call:
 * the first set-up pass counts from T, a CLOCK_MONOTONIC reading in
 * seconds taken by the caller just before it started this process
 * (or from static initialization when T is absent). Workloads whose
 * set-up takes seconds, not minutes, set up three times and report
 * the median pass. The timed part then repeats until S seconds of it
 * have run, at least once; run_s is the median repetition. Output
 * checks and digests run between passes, outside both timers.
 *
 * Every layer call is wrapped in a telemetry span named after the
 * layer, so a run with ARCHVAL_TRACE=<file> writes a trace whose
 * spans cover the whole run (tools/trace_summary.py reads it). A
 * traced run also times its repetitions untraced, after writing the
 * trace, and reports the difference as the tracing overhead.
 *
 * Output: one "name value unit" line per metric, then one JSON
 * object on the last line with the verdict counts, the metrics and
 * the output digests. The exit code is 0 whenever the workload ran;
 * wrong verdicts are counted in "failed", not signalled by the exit
 * code, so the caller can report them.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/validation_flow.hh"
#include "fuzz/campaign.hh"
#include "graph/tour.hh"
#include "harness/replay_engine.hh"
#include "murphi/enumerator.hh"
#include "support/memusage.hh"
#include "support/telemetry.hh"
#include "support/timer.hh"
#include "vecgen/vector_gen.hh"

using namespace archval;

namespace
{

double
monotonicSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/** Process launch time on CLOCK_MONOTONIC: the start of the first
 *  set-up pass (see file comment). */
double launchedAt = monotonicSeconds();

/** Worker threads for every parallel layer (the benchmark's cap). */
constexpr unsigned benchThreads = 4;

/** The Table 3.3 per-trace instruction limit. */
constexpr uint64_t traceLimit = 10'000;

double
peakRssMb()
{
    return double(peakRssBytes()) / double(1 << 20);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double value : values)
        total += value;
    return total;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** FNV-1a, fed 64-bit words byte by byte (graph::fingerprint's
 *  mixing, so digests read alike). */
class Fnv
{
  public:
    void
    mix(uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (value >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    mix(const std::string &text)
    {
        mix(text.size());
        for (char c : text) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** FNV-style hash folding a whole word per step, for the bulk
 *  digests (tens of millions of values, where byte-wise FNV would
 *  cost seconds). */
class WordHash
{
  public:
    void
    fold(uint64_t value)
    {
        h_ = (h_ ^ value) * 0x100000001b3ull;
        h_ ^= h_ >> 29;
    }

    template <typename Words>
    void
    foldAll(const Words &words)
    {
        fold(words.size());
        for (uint64_t word : words)
            fold(word);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Vector-set hash: every field vecgen::serializeTrace writes, taken
 * from the TestTrace directly (rendering 55M cycles as text would
 * cost more than generating them).
 */
uint64_t
vectorSetHash(const std::vector<vecgen::TestTrace> &traces)
{
    WordHash hash;
    hash.fold(traces.size());
    for (const vecgen::TestTrace &trace : traces) {
        hash.fold(trace.traceIndex);
        hash.fold(trace.instructions);
        hash.fold(trace.cycles.size());
        for (const rtl::ForcedSignals &signals : trace.cycles) {
            for (uint32_t value : signals)
                hash.fold(value);
        }
        hash.foldAll(trace.fetchStream);
        hash.foldAll(trace.retiredStream);
        hash.foldAll(trace.inbox);
    }
    return hash.value();
}

/** Hash of a tour set: every trace's edge sequence. */
uint64_t
tourHash(const std::vector<graph::Trace> &tours)
{
    WordHash hash;
    hash.fold(tours.size());
    for (const graph::Trace &trace : tours)
        hash.foldAll(trace.edges);
    return hash.value();
}

/** FNV-1a over every observable field of a replay result batch (the
 *  same fields bench_replay_scaling fingerprints). */
uint64_t
playResultHash(const std::vector<harness::PlayResult> &results)
{
    Fnv fnv;
    for (const harness::PlayResult &r : results) {
        fnv.mix(r.diverged);
        fnv.mix(r.cycles);
        fnv.mix(r.instructions);
        fnv.mix(r.lockstepErrors);
        fnv.mix(r.drained);
        fnv.mix(r.skipped);
        fnv.mix(r.diff);
    }
    return fnv.value();
}

/**
 * Everything one run measures: set-up passes, timed repetitions,
 * per-stage call times and peak-RSS rises, the last counts each
 * layer reported, verdict counts and output digests.
 */
class Ledger
{
  public:
    /** @name Timed part bookkeeping @{ */
    void
    beginRep()
    {
        measuring = true;
        repTimer_.reset();
        repCpu_.reset();
    }

    /** @return the repetition's wall time. */
    double
    endRep()
    {
        double seconds = repTimer_.seconds();
        if (recording) {
            runSeconds.push_back(seconds);
            runCpuSeconds.push_back(repCpu_.seconds());
        } else {
            untracedRunSeconds.push_back(seconds);
        }
        measuring = false;
        return seconds;
    }
    /** @} */

    /** Record one layer call (LayerCall's destructor). */
    void
    recordStage(const std::string &stage, double seconds,
                double rss_delta_mb)
    {
        if (!recording)
            return;
        stageSeconds[stage].push_back(seconds);
        if (measuring)
            measuredStageSeconds[stage] += seconds;
        double &delta = rssDeltaMb[stage];
        delta = std::max(delta, rss_delta_mb);
    }

    /** Count one verdict; @p ok false counts a failed operation. */
    void
    verdict(bool ok, const std::string &what, uint64_t operations = 1,
            uint64_t failures = 0)
    {
        attempted += operations;
        failures = ok ? failures : std::max<uint64_t>(failures, 1);
        failed += failures;
        if (failures && failureNotes.size() < 8)
            failureNotes.push_back(what);
    }

    /** Record an output digest; a repeat with another value is a
     *  failed operation (same seed, same program, different output). */
    void
    digest(const std::string &name, uint64_t value)
    {
        auto it = digests.find(name);
        if (it == digests.end()) {
            digests[name] = value;
            return;
        }
        verdict(it->second == value, "digest " + name + " differs");
    }

    /** True inside a set-up pass or a timed repetition (not while
     *  outputs are checked). */
    bool measuring = false;
    /** False while the untraced repetitions of a traced run time the
     *  tracing overhead: they leave the layer figures alone. */
    bool recording = true;
    std::map<std::string, std::vector<double>> stageSeconds;
    /** Stage time spent inside set-up passes and repetitions. */
    std::map<std::string, double> measuredStageSeconds;
    std::map<std::string, double> rssDeltaMb;
    std::map<std::string, double> counts;
    std::map<std::string, uint64_t> digests;
    std::vector<double> setupSeconds;
    std::vector<double> runSeconds;
    std::vector<double> runCpuSeconds;
    std::vector<double> untracedRunSeconds;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failureNotes;

  private:
    WallTimer repTimer_;
    CpuTimer repCpu_;
};

/**
 * RAII wrapper around one call into a layer: a telemetry span named
 * after the layer, wall time and the rise in peak RSS across the
 * call, recorded under @p stage when the scope ends.
 */
class LayerCall
{
  public:
    LayerCall(Ledger &ledger, const char *span, const char *stage)
        : span_(span), ledger_(ledger), stage_(stage),
          peakBefore_(peakRssMb())
    {
    }

    ~LayerCall()
    {
        ledger_.recordStage(stage_, timer_.seconds(),
                            peakRssMb() - peakBefore_);
    }

    LayerCall(const LayerCall &) = delete;
    LayerCall &operator=(const LayerCall &) = delete;

  private:
    telemetry::ScopedSpan span_;
    Ledger &ledger_;
    const char *stage_;
    double peakBefore_;
    WallTimer timer_;
};

/** Set up @p passes times; the first pass counts from launch.
 *  @p verify runs untimed after each pass. */
template <typename Body, typename Verify>
void
timedSetup(Ledger &ledger, int passes, Body &&body, Verify &&verify)
{
    for (int pass = 0; pass < passes; ++pass) {
        {
            telemetry::ScopedSpan span("bench.setup");
            double start = pass == 0 ? launchedAt : monotonicSeconds();
            ledger.measuring = true;
            body();
            ledger.measuring = false;
            ledger.setupSeconds.push_back(monotonicSeconds() - start);
        }
        telemetry::ScopedSpan span("bench.verify");
        verify();
    }
}

/**
 * Repeat the timed part until @p seconds of it have run: @p verify
 * runs untimed after each @p body repetition (it checks the outputs
 * body left behind and records the counts). When tracing, the trace
 * is then written and the repetitions run again untraced, in the
 * same process on the same inputs; the difference between the two
 * medians is the tracing overhead.
 */
template <typename Body, typename Verify>
void
timedReps(Ledger &ledger, double seconds, Body &&body, Verify &&verify)
{
    auto repeat = [&] {
        double timed = 0.0;
        do {
            ledger.beginRep();
            body();
            timed += ledger.endRep();
            telemetry::ScopedSpan span("bench.verify");
            verify();
        } while (timed < seconds);
    };
    repeat();
    if (telemetry::tracingEnabled()) {
        telemetry::shutdownTelemetry();
        ledger.recording = false;
        repeat();
        ledger.recording = true;
    }
}

// ---------------------------------------------------------------------
// Layer calls shared by the workloads
// ---------------------------------------------------------------------

/** Clean tour coverage check, as the benchmark's own verdict. */
void
checkCoverage(Ledger &ledger, const graph::StateGraph &graph,
              const std::vector<graph::Trace> &tours)
{
    std::string problem;
    {
        LayerCall call(ledger, "graph.coverage_check",
                       "tour.coverage_check");
        problem = graph::checkTourCoverage(graph, tours);
    }
    ledger.verdict(problem.empty(), "tour coverage: " + problem);
}

void
noteEnum(Ledger &ledger, const murphi::EnumStats &stats)
{
    ledger.counts["enum.states"] = double(stats.numStates);
    ledger.counts["enum.edges"] = double(stats.numEdges);
    ledger.counts["enum.choice_product"] = double(stats.transitionsTried);
}

void
noteTours(Ledger &ledger, const graph::TourStats &stats,
          uint64_t graph_edges)
{
    ledger.counts["tour.traces"] = double(stats.numTraces);
    ledger.counts["tour.traversals"] = double(stats.totalEdgeTraversals);
    ledger.counts["tour.edge_reuse"] =
        ratio(double(stats.totalEdgeTraversals), double(graph_edges));
}

void
noteVectors(Ledger &ledger, const vecgen::VecGenStats &stats)
{
    ledger.counts["vecgen.cycles"] = double(stats.cycles);
    ledger.counts["vecgen.instructions"] = double(stats.instructions);
    ledger.counts["vecgen.constrained_loads"] =
        double(stats.constrainedLoads);
}

void
noteReplay(Ledger &ledger, const harness::ReplayStats &stats)
{
    ledger.counts["replay.jobs"] = double(stats.jobs);
    ledger.counts["replay.demanded_cycles"] = double(stats.batchCycles);
    ledger.counts["replay.simulated_cycles"] = double(stats.simulatedCycles);
    ledger.counts["replay.avoided_ratio"] = stats.avoidedFraction();
    ledger.counts["replay.bugset_copies"] = double(stats.bugSetCopies);
    ledger.counts["replay.checkpoint_hits"] = double(stats.checkpointHits);
    ledger.counts["replay.stride_hits"] = double(stats.strideHits);
    ledger.counts["replay.verify_fallbacks"] =
        double(stats.verifyFallbacks);
    ledger.counts["replay.peak_cache_mb"] =
        double(stats.peakCacheBytes) / double(1 << 20);
}

graph::StateGraph
enumerate(Ledger &ledger, const fsm::Model &model, unsigned threads)
{
    murphi::EnumOptions options;
    options.numThreads = threads;
    murphi::Enumerator enumerator(model, options);
    graph::StateGraph graph = [&] {
        LayerCall call(ledger, "murphi.enumerate", "enum");
        return enumerator.runOrThrow();
    }();
    noteEnum(ledger, enumerator.stats());
    return graph;
}

std::vector<graph::Trace>
makeTours(Ledger &ledger, const graph::StateGraph &graph,
          uint64_t limit)
{
    graph::TourOptions options;
    options.maxInstructionsPerTrace = limit;
    graph::TourGenerator generator(graph, options);
    std::vector<graph::Trace> tours = [&] {
        LayerCall call(ledger, "graph.tour", "tour");
        return generator.run();
    }();
    noteTours(ledger, generator.stats(), graph.numEdges());
    return tours;
}

void
digestGraph(Ledger &ledger, const graph::StateGraph &graph,
            const std::vector<graph::Trace> &tours)
{
    ledger.digest("graph_fingerprint", graph::fingerprint(graph));
    ledger.digest("tour_hash", tourHash(tours));
}

/** fullPreset() without fetch alignment: the mid-size PP. */
rtl::PpConfig
midPreset()
{
    rtl::PpConfig config = rtl::PpConfig::fullPreset();
    config.modelAlignment = false;
    return config;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * The paper's pipeline at paper scale. Stages 1-3
 * (PpValidationFlow::enumerate, makeTours, makeVectors) are set-up
 * and stage 4, simulating the vectors against the reference, is the
 * timed part, run by the replay engine on the benchmark's threads.
 * PpValidationFlow::simulate (sequential VectorPlayer) plays the same
 * vectors once, untimed, as the reference the engine must match.
 *
 * Why this split: the first three stages and sequential simulation
 * are single-threaded and memory-bound, and on a shared host their
 * wall time drifts by up to a third between runs minutes apart (see
 * README.md). Set-up is compared between commits by its median only,
 * so it can hold them; run_s also has its spread bounded, so it gets
 * the steady, parallel replay.
 */
void
runFlowFull(Ledger &ledger, uint64_t seed, double seconds)
{
    rtl::PpConfig config = rtl::PpConfig::fullPreset();
    core::FlowOptions options;
    options.vectorSeed = seed;
    options.tour.maxInstructionsPerTrace = traceLimit;

    std::unique_ptr<core::PpValidationFlow> flow;
    core::FlowReport reference;
    timedSetup(
        ledger, 1,
        [&] {
            flow = std::make_unique<core::PpValidationFlow>(config, options);
            LayerCall call(ledger, "core.flow", "core");
            {
                LayerCall stage(ledger, "murphi.enumerate", "enum");
                flow->enumerate();
            }
            {
                LayerCall stage(ledger, "graph.tour", "tour");
                flow->makeTours();
            }
            LayerCall stage(ledger, "vecgen.generate", "vecgen");
            flow->makeVectors();
        },
        [&] {
            const graph::StateGraph &states = flow->enumerate();
            const auto &tours = flow->makeTours();
            noteEnum(ledger, flow->enumStats());
            noteTours(ledger, flow->tourStats(), states.numEdges());
            noteVectors(ledger, flow->vecStats());
            checkCoverage(ledger, states, tours);
            digestGraph(ledger, states, tours);
            ledger.digest("vector_hash", vectorSetHash(flow->makeVectors()));
            {
                LayerCall call(ledger, "core.flow", "core");
                LayerCall stage(ledger, "harness.simulate", "sim");
                reference = flow->simulate();
            }
            ledger.counts["sim.cycles"] = double(reference.cyclesSimulated);
            ledger.counts["sim.instructions"] =
                double(reference.instructionsSimulated);
            ledger.verdict(reference.tracesPlayed == tours.size(),
                           "not every trace was played");
            ledger.verdict(true, "clean trace diverged",
                           reference.tracesPlayed,
                           reference.divergingTraces +
                               reference.lockstepErrors);
        });

    harness::ReplayOptions replay;
    replay.numThreads = benchThreads;
    std::vector<harness::PlayResult> results;
    harness::ReplayStats stats;
    timedReps(
        ledger, seconds,
        [&] {
            LayerCall call(ledger, "harness.replay", "replay");
            harness::ReplayEngine engine(config, replay);
            results = engine.playAll(flow->makeVectors());
            stats = engine.stats();
        },
        [&] {
            uint64_t diverged = 0, cycles = 0, instructions = 0;
            for (const harness::PlayResult &r : results) {
                diverged += r.diverged || r.lockstepErrors > 0;
                cycles += r.cycles;
                instructions += r.instructions;
            }
            ledger.verdict(true, "clean trace diverged in replay",
                           results.size(), diverged);
            ledger.verdict(diverged == reference.divergingTraces &&
                               cycles == reference.cyclesSimulated &&
                               instructions ==
                                   reference.instructionsSimulated,
                           "replay differs from sequential simulate");
            noteReplay(ledger, stats);
            ledger.digest("replay_hash", playResultHash(results));
        });
}

/** Table 2.1 regression: the mid-preset tours x {clean, bug1..6}
 *  through the replay engine. */
void
runBugMatrix(Ledger &ledger, uint64_t seed, double seconds)
{
    rtl::PpConfig config = midPreset();
    std::unique_ptr<rtl::PpFsmModel> model;
    std::unique_ptr<graph::StateGraph> states;
    std::vector<graph::Trace> tours;
    std::vector<vecgen::TestTrace> vectors;
    timedSetup(
        ledger, 3,
        [&] {
            vectors.clear();
            tours.clear();
            states.reset();
            model = std::make_unique<rtl::PpFsmModel>(config);
            states = std::make_unique<graph::StateGraph>(
                enumerate(ledger, *model, 1));
            tours = makeTours(ledger, *states, traceLimit);
            vecgen::VectorGenerator generator(*model, seed);
            {
                LayerCall call(ledger, "vecgen.generate", "vecgen");
                vectors = generator.generateAll(*states, tours);
            }
            noteVectors(ledger, generator.stats());
        },
        [&] {
            checkCoverage(ledger, *states, tours);
            digestGraph(ledger, *states, tours);
            ledger.digest("vector_hash", vectorSetHash(vectors));
        });

    std::vector<rtl::BugSet> bug_sets(1);
    for (size_t b = 0; b < rtl::numBugs; ++b) {
        rtl::BugSet set;
        set.set(b);
        bug_sets.push_back(set);
    }
    harness::ReplayOptions options;
    options.numThreads = benchThreads;

    std::vector<harness::PlayResult> results;
    harness::ReplayStats stats;
    timedReps(
        ledger, seconds,
        [&] {
            LayerCall call(ledger, "harness.replay", "replay");
            harness::ReplayEngine engine(config, options);
            results = engine.playAll(vectors, bug_sets);
            stats = engine.stats();
        },
        [&] {
            const size_t n = vectors.size();
            uint64_t clean_diverged = 0;
            for (size_t t = 0; t < n; ++t)
                clean_diverged += results[t].diverged ||
                                  results[t].lockstepErrors > 0;
            ledger.verdict(true, "clean trace diverged", n,
                           clean_diverged);
            uint64_t found = 0;
            for (size_t b = 1; b < bug_sets.size(); ++b) {
                bool detected = false;
                for (size_t t = 0; t < n; ++t)
                    detected |= results[b * n + t].diverged;
                found += detected;
                ledger.verdict(detected, "bug " + std::to_string(b) +
                                             " undetected");
            }
            noteReplay(ledger, stats);
            ledger.counts["replay.bugs_found"] = double(found);
            ledger.digest("replay_hash", playResultHash(results));
        });
}

/**
 * Fixed-length clean fuzz campaigns on the mid preset. How fast a
 * campaign runs depends on the corpus its seed grows, so one
 * repetition runs several shorter campaigns with seeds derived from
 * the run seed: the same total rounds as one 64-round campaign, with
 * less of its time set by a single seed.
 */
void
runFuzzClean(Ledger &ledger, uint64_t seed, double seconds)
{
    constexpr unsigned campaigns = 4;
    constexpr unsigned rounds = 16;

    rtl::PpConfig config = midPreset();
    std::unique_ptr<rtl::PpFsmModel> model;
    std::unique_ptr<graph::StateGraph> states;
    std::vector<graph::Trace> tours;
    timedSetup(
        ledger, 3,
        [&] {
            tours.clear();
            states.reset();
            model = std::make_unique<rtl::PpFsmModel>(config);
            states = std::make_unique<graph::StateGraph>(
                enumerate(ledger, *model, benchThreads));
            tours = makeTours(ledger, *states, traceLimit);
        },
        [&] {
            checkCoverage(ledger, *states, tours);
            digestGraph(ledger, *states, tours);
        });

    fuzz::CampaignOptions options;
    options.workers = benchThreads;
    options.maxRounds = rounds;
    options.replay.numThreads = benchThreads;

    std::vector<fuzz::CampaignResult> results;
    timedReps(
        ledger, seconds,
        [&] {
            results.clear();
            for (unsigned c = 0; c < campaigns; ++c) {
                LayerCall call(ledger, "fuzz.campaign", "fuzz");
                options.seed = seed * campaigns + c;
                fuzz::CampaignRunner runner(config, *model, *states,
                                            options);
                results.push_back(runner.run({}, tours));
            }
        },
        [&] {
            double iterations = 0, instructions = 0, coverage = 0,
                   corpus = 0;
            Fnv fnv;
            for (const fuzz::CampaignResult &result : results) {
                ledger.verdict(!result.detected && !result.cancelled,
                               "clean campaign reported a divergence: " +
                                   result.detail);
                iterations += double(result.iterations);
                instructions += double(result.totalInstructions);
                coverage += result.coverageFraction;
                corpus += double(result.corpusSize);
                fnv.mix(result.iterations);
                fnv.mix(result.totalInstructions);
                fnv.mix(result.totalCycles);
                fnv.mix(result.coveredEdges);
                fnv.mix(result.corpusSize);
            }
            // Per-campaign means, to match fuzz.s (one campaign call).
            ledger.counts["fuzz.iterations"] = iterations / campaigns;
            ledger.counts["fuzz.instructions"] = instructions / campaigns;
            ledger.counts["fuzz.coverage"] = coverage / campaigns;
            ledger.counts["fuzz.corpus_size"] = corpus / campaigns;
            ledger.digest("fuzz_hash", fnv.value());
        });
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

double
stageMedian(const Ledger &ledger, const std::string &stage)
{
    auto it = ledger.stageSeconds.find(stage);
    return it == ledger.stageSeconds.end() ? 0.0 : median(it->second);
}

double
count(const Ledger &ledger, const std::string &name)
{
    auto it = ledger.counts.find(name);
    return it == ledger.counts.end() ? 0.0 : it->second;
}

double
stageTotal(const Ledger &ledger, const std::string &stage)
{
    auto it = ledger.stageSeconds.find(stage);
    return it == ledger.stageSeconds.end() ? 0.0 : sum(it->second);
}

std::vector<Metric>
collectMetrics(const Ledger &ledger)
{
    auto s = [&](const char *stage) { return stageMedian(ledger, stage); };
    auto c = [&](const char *name) { return count(ledger, name); };
    auto rss = [&](const char *stage) {
        auto it = ledger.rssDeltaMb.find(stage);
        return it == ledger.rssDeltaMb.end() ? 0.0 : it->second;
    };

    std::vector<Metric> m = {
        {"setup_s", median(ledger.setupSeconds), "s"},
        {"run_s", median(ledger.runSeconds), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},

        {"enum.s", s("enum"), "s"},
        {"enum.states", c("enum.states"), "count"},
        {"enum.edges", c("enum.edges"), "count"},
        {"enum.states_per_s", ratio(c("enum.states"), s("enum")),
         "states/s"},
        {"enum.edges_per_s", ratio(c("enum.edges"), s("enum")),
         "edges/s"},
        {"enum.choice_product", c("enum.choice_product"), "count"},
        {"enum.rss_delta_mb", rss("enum"), "MB"},

        {"tour.s", s("tour"), "s"},
        {"tour.traces", c("tour.traces"), "count"},
        {"tour.traversals", c("tour.traversals"), "count"},
        {"tour.traversals_per_s", ratio(c("tour.traversals"), s("tour")),
         "edges/s"},
        {"tour.edge_reuse", c("tour.edge_reuse"), "ratio"},
        {"tour.coverage_check_s", s("tour.coverage_check"), "s"},

        {"vecgen.s", s("vecgen"), "s"},
        {"vecgen.cycles", c("vecgen.cycles"), "count"},
        {"vecgen.cycles_per_s", ratio(c("vecgen.cycles"), s("vecgen")),
         "cycles/s"},
        {"vecgen.instructions", c("vecgen.instructions"), "count"},
        {"vecgen.constrained_loads", c("vecgen.constrained_loads"),
         "count"},
        {"vecgen.rss_delta_mb", rss("vecgen"), "MB"},

        {"sim.s", s("sim"), "s"},
        {"sim.cycles", c("sim.cycles"), "count"},
        {"sim.instructions", c("sim.instructions"), "count"},
        {"sim.cycles_per_s", ratio(c("sim.cycles"), s("sim")), "cycles/s"},
        {"sim.ipc", ratio(c("sim.instructions"), c("sim.cycles")),
         "ratio"},

        {"replay.s", s("replay"), "s"},
        {"replay.jobs", c("replay.jobs"), "count"},
        {"replay.demanded_cycles", c("replay.demanded_cycles"), "count"},
        {"replay.simulated_cycles", c("replay.simulated_cycles"), "count"},
        {"replay.avoided_ratio", c("replay.avoided_ratio"), "ratio"},
        {"replay.simulated_cycles_per_s",
         ratio(c("replay.simulated_cycles"), s("replay")), "cycles/s"},
        {"replay.bugset_copies", c("replay.bugset_copies"), "count"},
        {"replay.checkpoint_hits", c("replay.checkpoint_hits"), "count"},
        {"replay.stride_hits", c("replay.stride_hits"), "count"},
        {"replay.verify_fallbacks", c("replay.verify_fallbacks"), "count"},
        {"replay.peak_cache_mb", c("replay.peak_cache_mb"), "MB"},
        {"replay.bugs_found", c("replay.bugs_found"), "count"},

        {"fuzz.s", s("fuzz"), "s"},
        {"fuzz.iterations", c("fuzz.iterations"), "count"},
        {"fuzz.iterations_per_s", ratio(c("fuzz.iterations"), s("fuzz")),
         "iters/s"},
        {"fuzz.instructions_per_s",
         ratio(c("fuzz.instructions"), s("fuzz")), "instr/s"},
        {"fuzz.coverage", c("fuzz.coverage"), "ratio"},
        {"fuzz.corpus_size", c("fuzz.corpus_size"), "count"},

        // Every stage call of flow_full runs inside a core.flow call.
        {"core.flow_self_s",
         ledger.stageSeconds.count("core")
             ? stageTotal(ledger, "core") - stageTotal(ledger, "enum") -
                   stageTotal(ledger, "tour") -
                   stageTotal(ledger, "vecgen") - stageTotal(ledger, "sim")
             : 0.0,
         "s"},
        {"process.cpu_s", median(ledger.runCpuSeconds), "s"},
    };
    const double untraced = median(ledger.untracedRunSeconds);
    const double overhead =
        untraced > 0.0 ? median(ledger.runSeconds) - untraced : 0.0;
    m.push_back({"trace.overhead_s", overhead, "s"});
    m.push_back({"trace.overhead_ratio", ratio(overhead, untraced), "ratio"});
    // Share of the run's measured time (set-up passes plus timed
    // repetitions; output checks excluded) spent in each stage.
    const double measured =
        sum(ledger.setupSeconds) + sum(ledger.runSeconds);
    for (const char *stage :
         {"enum", "tour", "vecgen", "sim", "replay", "fuzz"}) {
        auto it = ledger.measuredStageSeconds.find(stage);
        double seconds =
            it == ledger.measuredStageSeconds.end() ? 0.0 : it->second;
        m.push_back({std::string("stage_share.") + stage,
                     ratio(seconds, measured), "ratio"});
    }
    return m;
}

void
report(const Ledger &ledger, const std::string &workload, uint64_t seed)
{
    std::vector<Metric> metrics = collectMetrics(ledger);
    for (const Metric &metric : metrics)
        std::printf("%-32s %.9g %s\n", metric.name.c_str(), metric.value,
                    metric.unit);
    for (const auto &[name, value] : ledger.digests)
        std::printf("digest %-25s %016" PRIx64 "\n", name.c_str(), value);
    for (const std::string &note : ledger.failureNotes)
        std::printf("FAILED: %s\n", note.c_str());

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"setup_passes\": %zu"
                ", \"run_reps\": %zu, \"metrics\": {",
                workload.c_str(), seed, ledger.attempted, ledger.failed,
                ledger.setupSeconds.size(), ledger.runSeconds.size());
    const char *sep = "";
    for (const Metric &metric : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    metric.name.c_str(), metric.value, metric.unit);
        sep = ", ";
    }
    std::printf("}, \"digests\": {");
    sep = "";
    for (const auto &[name, value] : ledger.digests) {
        std::printf("%s\"%s\": \"%016" PRIx64 "\"", sep, name.c_str(),
                    value);
        sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: archval_bench --workload "
                 "{flow_full|bug_matrix|fuzz_clean} "
                 "--seed N --seconds S [--launched-at T]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0.0;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--workload") == 0)
            workload = argv[i + 1];
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (std::strcmp(argv[i], "--seconds") == 0)
            seconds = std::strtod(argv[i + 1], nullptr);
        else if (std::strcmp(argv[i], "--launched-at") == 0)
            launchedAt = std::strtod(argv[i + 1], nullptr);
        else
            return usage();
    }

    std::map<std::string, std::function<void(Ledger &)>> workloads = {
        {"flow_full",
         [&](Ledger &l) { runFlowFull(l, seed, seconds); }},
        {"bug_matrix",
         [&](Ledger &l) { runBugMatrix(l, seed, seconds); }},
        {"fuzz_clean",
         [&](Ledger &l) { runFuzzClean(l, seed, seconds); }},
    };
    auto it = workloads.find(workload);
    if (it == workloads.end())
        return usage();

    if (const char *trace = std::getenv("ARCHVAL_TRACE");
        trace && *trace) {
        telemetry::TelemetryOptions options;
        options.tracePath = trace;
        options.spanRingCapacity = 1 << 20;
        telemetry::initTelemetry(options);
    }
    telemetry::setThreadName("bench.main");

    Ledger ledger;
    try {
        it->second(ledger);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "workload %s failed: %s\n", workload.c_str(),
                     error.what());
        return 1;
    }
    telemetry::shutdownTelemetry();
    report(ledger, workload, seed);
    return 0;
}
