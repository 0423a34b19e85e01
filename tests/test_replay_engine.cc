/**
 * @file
 * Replay tests (ctest label `replay`): value-semantics snapshots
 * must be bit-exact against fresh-from-reset replay at every cycle,
 * and ReplayEngine must return byte-identical PlayResults to the
 * sequential VectorPlayer for any worker count — while its bug-free
 * donor block actually spares untriggered jobs their simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/replay_engine.hh"
#include "harness/vector_player.hh"
#include "murphi/enumerator.hh"

namespace archval::harness
{
namespace
{

using rtl::BugId;
using rtl::BugSet;
using rtl::PpConfig;
using rtl::PpFsmModel;

class ReplayFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        config_ = new PpConfig(PpConfig::smallPreset());
        model_ = new PpFsmModel(*config_);
        murphi::Enumerator enumerator(*model_);
        graph_ = new graph::StateGraph(enumerator.runOrThrow());
        // Split the tour into many reset-rooted traces (the paper's
        // 10k-instruction limit, scaled down): the worker pool needs
        // many jobs, and the round-trip test is O(n^2) in the
        // shortest trace's cycle count.
        graph::TourOptions tour_options;
        tour_options.maxInstructionsPerTrace = 1'000;
        graph::TourGenerator tour_gen(*graph_, tour_options);
        tours_ = new std::vector<graph::Trace>(tour_gen.run());
        vecgen::VectorGenerator generator(*model_, 42);
        traces_ = new std::vector<vecgen::TestTrace>(
            generator.generateAll(*graph_, *tours_));
    }

    static void
    TearDownTestSuite()
    {
        delete traces_;
        delete tours_;
        delete graph_;
        delete model_;
        delete config_;
        traces_ = nullptr;
        tours_ = nullptr;
        graph_ = nullptr;
        model_ = nullptr;
        config_ = nullptr;
    }

    static PpConfig *config_;
    static PpFsmModel *model_;
    static graph::StateGraph *graph_;
    static std::vector<graph::Trace> *tours_;
    static std::vector<vecgen::TestTrace> *traces_;
};

PpConfig *ReplayFixture::config_ = nullptr;
PpFsmModel *ReplayFixture::model_ = nullptr;
graph::StateGraph *ReplayFixture::graph_ = nullptr;
std::vector<graph::Trace> *ReplayFixture::tours_ = nullptr;
std::vector<vecgen::TestTrace> *ReplayFixture::traces_ = nullptr;

/** Field-by-field PlayResult equality with a readable message. */
void
expectSameResult(const PlayResult &expected, const PlayResult &actual,
                 const std::string &what)
{
    EXPECT_EQ(expected.diverged, actual.diverged) << what;
    EXPECT_EQ(expected.diff, actual.diff) << what;
    EXPECT_EQ(expected.cycles, actual.cycles) << what;
    EXPECT_EQ(expected.instructions, actual.instructions) << what;
    EXPECT_EQ(expected.lockstepErrors, actual.lockstepErrors) << what;
    EXPECT_EQ(expected.drained, actual.drained) << what;
    EXPECT_EQ(expected.skipped, actual.skipped) << what;
}

TEST_F(ReplayFixture, PpCoreSnapshotRoundTripEqualsFreshReplay)
{
    // For the shortest tour trace: checkpoint a run at *every* cycle,
    // resume each checkpoint in a separate core, and require the
    // resumed run's outcome to be bit-identical to the uninterrupted
    // one — with and without an injected bug.
    const vecgen::TestTrace &trace = *std::min_element(
        traces_->begin(), traces_->end(),
        [](const auto &a, const auto &b) {
            return a.cycles.size() < b.cycles.size();
        });
    ASSERT_FALSE(trace.cycles.empty());

    std::vector<BugSet> bug_sets(2);
    bug_sets[1].set(static_cast<size_t>(BugId::Bug3ConflictAddr));

    for (const BugSet &bugs : bug_sets) {
        VectorPlayer player(*config_);
        PlayResult fresh = player.play(trace, bugs);

        rtl::PpCore walker(*config_, rtl::CoreMode::Vector);
        VectorPlayer::primeCore(walker, trace, bugs);
        for (size_t c = 0; c <= trace.cycles.size(); ++c) {
            rtl::PpCore::Snapshot snap = walker.snapshot();
            EXPECT_EQ(snap.cycles(), c);
            EXPECT_TRUE(snap.valid());

            rtl::PpCore resumed(*config_, rtl::CoreMode::Vector);
            VectorPlayer::primeCore(resumed, trace, bugs);
            resumed.restore(snap);
            VectorPlayer::drive(resumed, trace, c,
                                trace.cycles.size());
            PlayResult result =
                VectorPlayer::finish(*config_, resumed, trace);
            expectSameResult(
                fresh, result,
                "checkpoint at cycle " + std::to_string(c) +
                    (bugs.any() ? " (bug3)" : " (bug-free)"));

            if (c < trace.cycles.size())
                VectorPlayer::drive(walker, trace, c, c + 1);
        }
    }
}

TEST_F(ReplayFixture, RefSimSnapshotRoundTrip)
{
    const vecgen::TestTrace &trace = traces_->front();
    pp::RefSim fresh(config_->machine);
    fresh.setStreamMode(true);
    fresh.loadProgram(trace.retiredStream);
    fresh.setInbox(trace.inbox);

    // Snapshot halfway, run both the original and a restored copy to
    // completion, and compare everything observable.
    uint64_t half = trace.retiredStream.size() / 2;
    fresh.run(half);
    pp::RefSim::Snapshot snap = fresh.snapshot();
    EXPECT_EQ(snap.instructionsRetired(), fresh.instructionsRetired());
    EXPECT_GT(snap.bytes(), 0u);
    fresh.run(trace.retiredStream.size() + 8);

    pp::RefSim resumed(config_->machine);
    resumed.restore(snap);
    resumed.run(trace.retiredStream.size() + 8);

    EXPECT_EQ(fresh.archState(), resumed.archState());
    EXPECT_EQ(fresh.pc(), resumed.pc());
    EXPECT_EQ(fresh.instructionsRetired(),
              resumed.instructionsRetired());
    EXPECT_EQ(fresh.stopReason(), resumed.stopReason());
}

TEST_F(ReplayFixture, EngineMatchesSequentialPlayerEverywhere)
{
    // The acceptance matrix: worker counts {1,2,8}, bug-free and with
    // a bug injected (so the donor block runs first and copies its
    // untriggered jobs). Every cell must reproduce the sequential
    // player byte-for-byte.
    std::vector<BugSet> bug_sets(2);
    bug_sets[1].set(static_cast<size_t>(BugId::Bug5MembusGlitch));

    VectorPlayer player(*config_);
    std::vector<PlayResult> expected;
    for (const BugSet &bugs : bug_sets)
        for (const auto &trace : *traces_)
            expected.push_back(player.play(trace, bugs));

    for (unsigned nw : {1u, 2u, 8u}) {
        ReplayOptions options;
        options.numThreads = nw;
        ReplayEngine engine(*config_, options);
        std::vector<PlayResult> actual =
            engine.playAll(*traces_, bug_sets);
        ASSERT_EQ(actual.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
            expectSameResult(expected[i], actual[i],
                             "job " + std::to_string(i) +
                                 " workers=" + std::to_string(nw));
        }
        EXPECT_EQ(engine.stats().jobs,
                  traces_->size() * bug_sets.size());
    }
}

TEST_F(ReplayFixture, BugFreeDonorCopiesUntriggeredJobs)
{
    // The bug-set axis: every fault effect is strictly guarded by its
    // trigger conjunction, and PpCore records the first cycle each
    // conjunction held on the bug-free run. A (trace, bug) job whose
    // bug never triggered must copy the donor result without
    // simulating — and the engine's copy count must equal exactly the
    // number of such jobs, computed here independently.
    std::vector<BugSet> bug_sets(1 + rtl::numBugs);
    for (size_t b = 0; b < rtl::numBugs; ++b)
        bug_sets[1 + b].set(b);

    uint64_t expected_copies = 0;
    for (const auto &trace : *traces_) {
        rtl::PpCore core(*config_, rtl::CoreMode::Vector);
        VectorPlayer::primeCore(core, trace, BugSet{});
        VectorPlayer::drive(core, trace, 0, trace.cycles.size());
        VectorPlayer::finish(*config_, core, trace);
        for (size_t b = 0; b < rtl::numBugs; ++b) {
            if (core.bugFirstTrigger(static_cast<BugId>(b)) ==
                UINT64_MAX)
                ++expected_copies;
        }
    }
    ASSERT_GT(expected_copies, 0u)
        << "batch exercises every bug on every trace; the copy "
           "path is untestable at this scale";

    VectorPlayer player(*config_);
    std::vector<PlayResult> expected;
    for (const BugSet &bugs : bug_sets)
        for (const auto &trace : *traces_)
            expected.push_back(player.play(trace, bugs));

    for (unsigned nw : {1u, 2u, 8u}) {
        ReplayOptions options;
        options.numThreads = nw;
        ReplayEngine engine(*config_, options);
        std::vector<PlayResult> actual =
            engine.playAll(*traces_, bug_sets);
        ASSERT_EQ(actual.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
            expectSameResult(expected[i], actual[i],
                             "job " + std::to_string(i) +
                                 " workers=" + std::to_string(nw));
        }
        EXPECT_EQ(engine.stats().bugSetCopies, expected_copies)
            << "workers=" << nw;
    }
}

TEST_F(ReplayFixture, StopOnDivergenceMatchesSequentialBreak)
{
    // The early-exit mode must reproduce the sequential
    // play-until-divergence loop exactly: identical results up to
    // and including the first divergence, everything after skipped —
    // for any worker count.
    BugSet bugs;
    bugs.set(static_cast<size_t>(BugId::Bug3ConflictAddr));

    VectorPlayer player(*config_);
    std::vector<PlayResult> expected;
    size_t first_div = traces_->size();
    for (size_t t = 0; t < traces_->size(); ++t) {
        expected.push_back(player.play((*traces_)[t], bugs));
        if (expected.back().diverged) {
            first_div = t;
            break;
        }
    }
    ASSERT_LT(first_div, traces_->size()) << "bug3 not detected";

    for (unsigned nw : {1u, 2u, 8u}) {
        ReplayOptions options;
        options.numThreads = nw;
        options.stopOnDivergence = true;
        ReplayEngine engine(*config_, options);
        std::vector<PlayResult> actual = engine.playAll(*traces_, bugs);
        for (size_t t = 0; t < traces_->size(); ++t) {
            if (t <= first_div) {
                expectSameResult(expected[t], actual[t],
                                 "pre-divergence trace " +
                                     std::to_string(t) + " workers=" +
                                     std::to_string(nw));
            } else {
                EXPECT_TRUE(actual[t].skipped)
                    << "trace " << t << " workers=" << nw;
            }
        }
        EXPECT_EQ(engine.stats().jobsSkipped,
                  traces_->size() - first_div - 1);
    }
}

TEST_F(ReplayFixture, EmptyBatchesAreHarmless)
{
    ReplayEngine engine(*config_);
    EXPECT_TRUE(engine.playAll({}, BugSet{}).empty());
    EXPECT_TRUE(
        engine.playAll(*traces_, std::vector<BugSet>{}).empty());
}

} // namespace
} // namespace archval::harness
