/**
 * @file
 * Coverage-guided fuzzing subsystem tests: corpus scheduling, trace
 * mutation validity, engine feedback behaviour, campaign determinism
 * across worker threads, and CoverageTracker merge/reset.
 *
 * Budgets honour ARCHVAL_FUZZ_SMOKE=1 (set by ctest) so the whole
 * file runs in seconds under the tier-1 suite; unset the variable
 * for a longer soak.
 */

#include <cstdlib>
#include <iterator>

#include <gtest/gtest.h>

#include "fuzz/campaign.hh"
#include "fuzz/corpus.hh"
#include "fuzz/engine.hh"
#include "fuzz/mutator.hh"
#include "harness/bug_hunt.hh"
#include "murphi/enumerator.hh"

namespace archval::fuzz
{
namespace
{

using rtl::BugId;
using rtl::BugSet;
using rtl::PpConfig;
using rtl::PpFsmModel;

bool
smokeMode()
{
    const char *env = std::getenv("ARCHVAL_FUZZ_SMOKE");
    return env && env[0] == '1';
}

uint64_t
engineBudget()
{
    return smokeMode() ? 6'000 : 60'000;
}

CampaignOptions
campaignOptions()
{
    CampaignOptions options;
    options.workers = 4;
    options.roundInstructions = smokeMode() ? 2'000 : 10'000;
    options.maxRounds = smokeMode() ? 3 : 8;
    options.seed = 7;
    return options;
}

class FuzzFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        config_ = new PpConfig(PpConfig::smallPreset());
        model_ = new PpFsmModel(*config_);
        murphi::Enumerator enumerator(*model_);
        graph_ = new graph::StateGraph(enumerator.runOrThrow());
        facts_ = new vecgen::EdgeFactTable(*model_, *graph_);
        facts_->fill();
        graph::TourGenerator tour_gen(*graph_);
        tours_ = new std::vector<graph::Trace>(tour_gen.run());
    }

    static void
    TearDownTestSuite()
    {
        delete tours_;
        delete facts_;
        delete graph_;
        delete model_;
        delete config_;
        tours_ = nullptr;
        facts_ = nullptr;
        graph_ = nullptr;
        model_ = nullptr;
        config_ = nullptr;
    }

    static PpConfig *config_;
    static PpFsmModel *model_;
    static graph::StateGraph *graph_;
    static vecgen::EdgeFactTable *facts_;
    static std::vector<graph::Trace> *tours_;
};

PpConfig *FuzzFixture::config_ = nullptr;
PpFsmModel *FuzzFixture::model_ = nullptr;
graph::StateGraph *FuzzFixture::graph_ = nullptr;
vecgen::EdgeFactTable *FuzzFixture::facts_ = nullptr;
std::vector<graph::Trace> *FuzzFixture::tours_ = nullptr;

TEST_F(FuzzFixture, CoverageTrackerMergeUnionsArcs)
{
    harness::CoverageTracker a(*graph_), b(*graph_);
    const auto &tour = tours_->front();
    size_t half = tour.edges.size() / 2;

    graph::Trace front, back;
    front.edges.assign(tour.edges.begin(),
                       tour.edges.begin() + half);
    back.edges.assign(tour.edges.begin() + half, tour.edges.end());
    a.addTrace(front);
    b.addTrace(back);

    uint64_t union_size = 0;
    {
        harness::CoverageTracker both(*graph_);
        both.addTrace(front);
        both.addTrace(back);
        union_size = both.coveredEdges();
    }

    uint64_t a_instr = a.instructions(), b_instr = b.instructions();
    a.merge(b);
    EXPECT_EQ(a.coveredEdges(), union_size);
    EXPECT_EQ(a.instructions(), a_instr + b_instr);

    // Merging again must not double-count arcs.
    a.merge(b);
    EXPECT_EQ(a.coveredEdges(), union_size);
}

TEST_F(FuzzFixture, CoverageTrackerResetClears)
{
    harness::CoverageTracker tracker(*graph_);
    tracker.addTrace(tours_->front());
    tracker.samplePoint();
    ASSERT_GT(tracker.coveredEdges(), 0u);

    tracker.reset();
    EXPECT_EQ(tracker.coveredEdges(), 0u);
    EXPECT_EQ(tracker.instructions(), 0u);
    EXPECT_EQ(tracker.cycles(), 0u);
    EXPECT_TRUE(tracker.curve().empty());
    EXPECT_DOUBLE_EQ(tracker.fraction(), 0.0);
}

/** A chain of @p edges edges, the last word of its coverage bitmap
 *  partly used; edge e carries e % 3 instructions. */
graph::StateGraph
chainGraph(size_t edges)
{
    graph::StateGraph graph;
    graph.addStatesUnretained(edges + 1);
    for (size_t e = 0; e < edges; ++e)
        graph.addEdge(static_cast<graph::StateId>(e),
                      static_cast<graph::StateId>(e + 1), 0,
                      static_cast<uint32_t>(e % 3));
    return graph;
}

/** Expect @p tracker to cover exactly the edges set in @p oracle. */
void
expectCoverage(const harness::CoverageTracker &tracker,
               const std::vector<bool> &oracle)
{
    uint64_t count = 0;
    for (size_t e = 0; e < oracle.size(); ++e) {
        EXPECT_EQ(tracker.covered(static_cast<graph::EdgeId>(e)),
                  oracle[e])
            << "edge " << e;
        count += oracle[e];
    }
    EXPECT_EQ(tracker.coveredEdges(), count);
}

TEST(CoverageTrackerWords, BoundaryEdgesAndPartialLastWord)
{
    constexpr size_t edges = 150; // two full words and 22 bits
    const graph::StateGraph graph = chainGraph(edges);
    harness::CoverageTracker a(graph), b(graph);
    std::vector<bool> in_a(edges), in_b(edges);

    graph::Trace trace_a, trace_b;
    for (graph::EdgeId e : {0u, 63u, 64u, 65u, 63u, 149u}) {
        trace_a.edges.push_back(e);
        in_a[e] = true;
    }
    for (graph::EdgeId e : {62u, 63u, 127u, 128u, 148u, 149u}) {
        trace_b.edges.push_back(e);
        in_b[e] = true;
    }
    a.addTrace(trace_a);
    b.addTrace(trace_b);
    expectCoverage(a, in_a);
    expectCoverage(b, in_b);
    EXPECT_EQ(a.cycles(), trace_a.edges.size());
    EXPECT_EQ(a.instructions(), 0u + 0 + 1 + 2 + 0 + 2);

    std::vector<bool> both(edges);
    for (size_t e = 0; e < edges; ++e)
        both[e] = in_a[e] || in_b[e];
    a.merge(b);
    expectCoverage(a, both);
    a.merge(b); // re-merge adds no arcs
    expectCoverage(a, both);
    EXPECT_EQ(a.cycles(), trace_a.edges.size() + 2 * trace_b.edges.size());

    a.reset();
    expectCoverage(a, std::vector<bool>(edges));
    a.addEdge(149, 0);
    std::vector<bool> last(edges);
    last[149] = true;
    expectCoverage(a, last);
}

TEST(CoverageTrackerWords, MergeOfDifferentGraphsIsFatal)
{
    const graph::StateGraph graph = chainGraph(130);
    const graph::StateGraph other = chainGraph(129); // same word count
    harness::CoverageTracker a(graph), b(other);
    EXPECT_THROW(a.merge(b), FatalError);
}

TEST_F(FuzzFixture, CorpusPicksAreEnergyWeightedAndDeterministic)
{
    Corpus corpus;
    Candidate candidate;
    candidate.trace = tours_->front();
    corpus.add(candidate, 1);
    corpus.add(candidate, 1'000'000);

    Rng rng(3);
    size_t heavy_picks = 0;
    for (int i = 0; i < 20; ++i) {
        if (corpus.pick(rng) == 1)
            ++heavy_picks;
    }
    // The heavy entry dominates even as its energy halves.
    EXPECT_GE(heavy_picks, 15u);

    // Same seed, same pick sequence (fresh corpora: picks decay
    // energy, so state must match too).
    Corpus fresh_a, fresh_b;
    for (Corpus *c : {&fresh_a, &fresh_b}) {
        c->add(candidate, 1);
        c->add(candidate, 1'000'000);
    }
    Rng rng_a(99), rng_b(99);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(fresh_a.pick(rng_a), fresh_b.pick(rng_b));
}

TEST_F(FuzzFixture, CorpusEvictsLowestEnergyPastBound)
{
    Corpus corpus(3);
    Candidate candidate;
    candidate.trace = tours_->front();
    corpus.add(candidate, 10);
    corpus.add(candidate, 2); // victim
    corpus.add(candidate, 30);
    corpus.add(candidate, 20);
    ASSERT_EQ(corpus.size(), 3u);
    for (const CorpusEntry &entry : corpus.entries())
        EXPECT_NE(entry.energy, 2u);
}

TEST_F(FuzzFixture, CorpusReportsNewcomerItEvicts)
{
    // A full corpus evicts its lowest-energy entry; when that is the
    // newcomer, add() and adopt() must say so instead of returning
    // the index of an entry that was already there.
    Corpus corpus(2);
    Corpus adopter(2);
    for (uint64_t seed = 0; seed < 2; ++seed) {
        Candidate candidate;
        candidate.trace = tours_->front();
        candidate.vecgenSeed = seed;
        EXPECT_EQ(corpus.add(candidate, 10),
                  std::optional<size_t>(seed));
        EXPECT_EQ(adopter.adopt(corpus.entry(seed)),
                  std::optional<size_t>(seed));
    }
    Candidate weak;
    weak.trace = tours_->front();
    weak.vecgenSeed = 2;
    EXPECT_EQ(corpus.add(weak, 1), std::nullopt);
    CorpusEntry weak_entry;
    weak_entry.candidate = std::make_shared<const Candidate>(weak);
    weak_entry.energy = 1;
    EXPECT_EQ(adopter.adopt(weak_entry), std::nullopt);
    for (const Corpus *c : {&corpus, &adopter}) {
        ASSERT_EQ(c->size(), 2u);
        EXPECT_EQ(c->entry(0).candidate->vecgenSeed, 0u);
        EXPECT_EQ(c->entry(1).candidate->vecgenSeed, 1u);
    }

    // A newcomer that outlives the evicted entry gets its own,
    // post-eviction index.
    Candidate strong = weak;
    strong.vecgenSeed = 3;
    EXPECT_EQ(corpus.add(strong, 20), std::optional<size_t>(1));
    EXPECT_EQ(corpus.entry(1).candidate->vecgenSeed, 3u);
}

TEST_F(FuzzFixture, CorpusAdoptSharesCandidateAndEvictsLikeAdd)
{
    // A campaign broadcasts admitted entries with adopt(): the
    // adopting corpus must keep exactly what add() of the same
    // candidates keeps (energy ties evict the oldest, energy 0 is
    // clamped to 1) while sharing the source's candidates.
    const uint64_t energies[] = {10, 0, 30, 2, 2, 20, 1, 30};
    Corpus source;
    Corpus via_add(4);
    Corpus via_adopt(4);
    for (uint64_t i = 0; i < std::size(energies); ++i) {
        Candidate candidate;
        candidate.trace = tours_->front();
        candidate.vecgenSeed = i;
        via_add.add(candidate, energies[i]);
        source.add(candidate, energies[i]);
        via_adopt.adopt(source.entry(i));
    }
    ASSERT_EQ(via_add.size(), 4u);
    ASSERT_EQ(via_adopt.size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
        const CorpusEntry &added = via_add.entry(i);
        const CorpusEntry &adopted = via_adopt.entry(i);
        EXPECT_EQ(adopted.energy, added.energy) << i;
        EXPECT_EQ(adopted.candidate->vecgenSeed,
                  added.candidate->vecgenSeed)
            << i;
        EXPECT_EQ(adopted.candidate,
                  source.entry(adopted.candidate->vecgenSeed).candidate)
            << i;
    }
    // Survivors, oldest first: 10, 30, 20, 30.
    EXPECT_EQ(via_add.entry(0).candidate->vecgenSeed, 0u);
    EXPECT_EQ(via_add.entry(1).candidate->vecgenSeed, 2u);
    EXPECT_EQ(via_add.entry(2).candidate->vecgenSeed, 5u);
    EXPECT_EQ(via_add.entry(3).candidate->vecgenSeed, 7u);
}

TEST_F(FuzzFixture, EveryMutationOperatorPreservesWalkValidity)
{
    TraceMutator mutator(*graph_, 600);
    Rng rng(11);

    Candidate base, donor;
    base.trace = tours_->front();
    donor.trace = tours_->size() > 1 ? (*tours_)[1] : tours_->front();

    for (size_t op = 0;
         op < static_cast<size_t>(MutationOp::NumOps); ++op) {
        for (int i = 0; i < 40; ++i) {
            Candidate mutant =
                mutator.apply(static_cast<MutationOp>(op), base,
                              donor, rng);
            EXPECT_EQ(checkTraceValid(*graph_, mutant.trace), "")
                << mutationOpName(static_cast<MutationOp>(op))
                << " iteration " << i;
            EXPECT_FALSE(mutant.trace.edges.empty());
        }
    }
}

TEST_F(FuzzFixture, MutantsOfMutantsStayValid)
{
    // Chained mutation is the actual fuzz-loop workload.
    TraceMutator mutator(*graph_, 600);
    Rng rng(23);
    Candidate current;
    current.trace = tours_->front();
    for (int i = 0; i < 120; ++i) {
        current = mutator.mutate(current, current, rng);
        ASSERT_EQ(checkTraceValid(*graph_, current.trace), "")
            << "generation " << i;
    }
}

TEST_F(FuzzFixture, ClassResampleKeepsWalkChangesSeed)
{
    TraceMutator mutator(*graph_, 600);
    Rng rng(5);
    Candidate base;
    base.trace = tours_->front();
    base.vecgenSeed = 1234;
    Candidate mutant = mutator.apply(MutationOp::ClassResample, base,
                                     base, rng);
    EXPECT_EQ(mutant.trace.edges, base.trace.edges);
    EXPECT_NE(mutant.vecgenSeed, base.vecgenSeed);
}

TEST_F(FuzzFixture, EngineIsDeterministicForFixedSeed)
{
    FuzzEngine a(*config_, *model_, *facts_, 42);
    FuzzEngine b(*config_, *model_, *facts_, 42);
    a.seedCorpus(*tours_);
    b.seedCorpus(*tours_);
    FuzzDetection da = a.run(BugSet{}, engineBudget() / 4);
    FuzzDetection db = b.run(BugSet{}, engineBudget() / 4);
    EXPECT_EQ(da.detected, db.detected);
    EXPECT_EQ(a.stats().iterations, b.stats().iterations);
    EXPECT_EQ(a.stats().instructions, b.stats().instructions);
    EXPECT_EQ(a.stats().cycles, b.stats().cycles);
    EXPECT_EQ(a.coverage().coveredEdges(),
              b.coverage().coveredEdges());
    EXPECT_EQ(a.corpus().size(), b.corpus().size());
}

TEST_F(FuzzFixture, EngineNeverDivergesBugFree)
{
    FuzzEngine engine(*config_, *model_, *facts_, 17);
    engine.seedCorpus(*tours_);
    FuzzDetection detection =
        engine.run(BugSet{}, engineBudget() / 2);
    EXPECT_FALSE(detection.detected) << detection.detail;
    EXPECT_GT(engine.stats().iterations, 0u);
}

TEST_F(FuzzFixture, EngineCoverageFeedbackGrowsCorpus)
{
    FuzzOptions options;
    options.seedTours = 1;
    options.seedWalks = 1;
    options.maxTraceInstructions = 300;
    FuzzEngine engine(*config_, *model_, *facts_, 19, options);
    engine.seedCorpus(*tours_);
    size_t seeded = engine.corpus().size();
    engine.run(BugSet{}, engineBudget() / 2);
    // The mutation loop must have admitted interesting candidates
    // and credited them to a feedback signal.
    EXPECT_GT(engine.corpus().size(), seeded);
    EXPECT_GT(engine.stats().arcNovel + engine.stats().stateNovel,
              0u);
    EXPECT_GT(engine.coverage().coveredEdges(), 0u);
}

TEST_F(FuzzFixture, EngineDetectsInjectedBug)
{
    BugSet bugs;
    bugs.set(static_cast<size_t>(BugId::Bug3ConflictAddr));
    FuzzEngine engine(*config_, *model_, *facts_, 2024);
    engine.seedCorpus(*tours_);
    FuzzDetection detection = engine.run(bugs, engineBudget());
    EXPECT_TRUE(detection.detected) << "fuzz engine missed bug3";
    EXPECT_GT(detection.instructions, 0u);
    EXPECT_FALSE(detection.detail.empty());
}

TEST_F(FuzzFixture, CampaignIsBitDeterministicForFixedSeedAndWorkers)
{
    BugSet bugs;
    bugs.set(static_cast<size_t>(BugId::Bug3ConflictAddr));
    CampaignOptions options = campaignOptions();

    // Run b walks the fixture's table (filled in one part), as a
    // fuzz arm's campaigns share one; run a builds its own on four
    // workers.
    CampaignRunner runner_a(*config_, *model_, *graph_, options);
    CampaignRunner runner_b(*config_, *model_, *graph_, options);
    CampaignResult a = runner_a.run(bugs, *tours_);
    CampaignResult b = runner_b.run(bugs, *tours_, *facts_);

    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(a.detectionRound, b.detectionRound);
    EXPECT_EQ(a.detectionWorker, b.detectionWorker);
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.coveredEdges, b.coveredEdges);
    EXPECT_EQ(a.corpusSize, b.corpusSize);
}

TEST_F(FuzzFixture, CampaignRejectsTableOfAnotherGraph)
{
    murphi::Enumerator enumerator(*model_);
    const graph::StateGraph other = enumerator.runOrThrow();
    CampaignRunner runner(*config_, *model_, other, campaignOptions());
    EXPECT_THROW(runner.run(BugSet{}, *tours_, *facts_), FatalError);
}

TEST_F(FuzzFixture, CampaignDetectsInjectedBug)
{
    BugSet bugs;
    bugs.set(static_cast<size_t>(BugId::Bug3ConflictAddr));
    CampaignRunner runner(*config_, *model_, *graph_,
                          campaignOptions());
    CampaignResult result = runner.run(bugs, *tours_);
    EXPECT_TRUE(result.detected) << "campaign missed bug3";
    EXPECT_GT(result.instructions, 0u);
}

TEST_F(FuzzFixture, CampaignMergesWorkerCoverage)
{
    CampaignOptions options = campaignOptions();
    CampaignRunner runner(*config_, *model_, *graph_, options);
    CampaignResult merged = runner.run(BugSet{}, *tours_);

    CampaignOptions solo = options;
    solo.workers = 1;
    CampaignRunner solo_runner(*config_, *model_, *graph_, solo);
    CampaignResult single = solo_runner.run(BugSet{}, *tours_);

    // Four workers spend ~4x the simulation and pool their feedback,
    // so merged coverage cannot trail a single worker's.
    EXPECT_GE(merged.coveredEdges, single.coveredEdges);
    EXPECT_GT(merged.totalInstructions, single.totalInstructions);
}

TEST_F(FuzzFixture, GoldenCleanCampaign)
{
    // Fixed budgets (independent of ARCHVAL_FUZZ_SMOKE), clean RTL.
    // The determinism test above compares two runs of the same code;
    // these pins catch a change that moves every run at once.
    struct Pin
    {
        unsigned workers;
        uint64_t iterations;
        uint64_t totalInstructions;
        uint64_t totalCycles;
        uint64_t coveredEdges;
        size_t corpusSize;
    };
    const Pin golden[] = {
        {1, 36, 17661, 53212, 5243, 34},
        {4, 113, 70875, 233182, 7919, 109},
    };
    for (const Pin &pin : golden) {
        CampaignOptions options;
        options.workers = pin.workers;
        options.roundInstructions = 4'000;
        options.maxRounds = 4;
        options.seed = 7;
        CampaignRunner runner(*config_, *model_, *graph_, options);
        CampaignResult result = runner.run(BugSet{}, *tours_);
        SCOPED_TRACE(testing::Message() << "workers " << pin.workers);
        EXPECT_FALSE(result.detected);
        EXPECT_EQ(result.detail, "");
        EXPECT_EQ(result.iterations, pin.iterations);
        EXPECT_EQ(result.totalInstructions, pin.totalInstructions);
        EXPECT_EQ(result.totalCycles, pin.totalCycles);
        EXPECT_EQ(result.coveredEdges, pin.coveredEdges);
        EXPECT_EQ(result.corpusSize, pin.corpusSize);
    }
}

TEST_F(FuzzFixture, GoldenDetectingCampaign)
{
    // Bug3 is caught by a seed in round 0, so this pins the seed
    // conversion and the detection report; the clean pins above
    // cover the mutation rounds and the barrier merges.
    struct Pin
    {
        unsigned workers;
        uint64_t instructions;
        uint64_t cycles;
        uint64_t iterations;
        uint64_t totalInstructions;
        uint64_t totalCycles;
        uint64_t coveredEdges;
        const char *detail;
    };
    const Pin golden[] = {
        {1, 1601, 5534, 2, 1601, 5534, 2376,
         "round 0 worker 0: seed candidate 2 (2495 edges): "
         "dmem[104]: 0xc354f800 vs 0x00000000"},
        {4, 1600, 5383, 15, 9494, 31473, 5355,
         "round 0 worker 0: seed candidate 2 (2345 edges): "
         "r9: 0xbb8ee2a9 vs 0xfec5c5a6"},
    };
    BugSet bugs;
    bugs.set(static_cast<size_t>(BugId::Bug3ConflictAddr));
    for (const Pin &pin : golden) {
        CampaignOptions options;
        options.workers = pin.workers;
        options.roundInstructions = 4'000;
        options.maxRounds = 4;
        options.seed = 7;
        CampaignRunner runner(*config_, *model_, *graph_, options);
        CampaignResult result = runner.run(bugs, *tours_);
        SCOPED_TRACE(testing::Message() << "workers " << pin.workers);
        EXPECT_TRUE(result.detected);
        EXPECT_EQ(result.detail, pin.detail);
        EXPECT_EQ(result.detectionRound, 0u);
        EXPECT_EQ(result.detectionWorker, 0u);
        EXPECT_EQ(result.instructions, pin.instructions);
        EXPECT_EQ(result.cycles, pin.cycles);
        EXPECT_EQ(result.iterations, pin.iterations);
        EXPECT_EQ(result.totalInstructions, pin.totalInstructions);
        EXPECT_EQ(result.totalCycles, pin.totalCycles);
        EXPECT_EQ(result.coveredEdges, pin.coveredEdges);
        EXPECT_EQ(result.corpusSize, 5u);
    }
}

TEST_F(FuzzFixture, FuzzArmPlugsIntoBugHunt)
{
    vecgen::VectorGenerator generator(*model_, 42);
    std::vector<vecgen::TestTrace> vectors =
        generator.generateAll(*graph_, *tours_);
    harness::BugHunt hunt(*config_, *model_, *graph_, vectors);
    hunt.setFuzzArm(makeCampaignFuzzArm(*config_, *model_, *graph_,
                                        *tours_, campaignOptions()));
    harness::HuntResult result =
        hunt.hunt(BugId::Bug3ConflictAddr, 2'000);
    EXPECT_TRUE(result.fuzzRan);
    EXPECT_TRUE(result.fuzz.detected);
    std::string table = harness::renderHuntTable({result});
    EXPECT_NE(table.find("fuzz campaign"), std::string::npos);
}

} // namespace
} // namespace archval::fuzz
