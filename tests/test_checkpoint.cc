/**
 * @file
 * Tiered in-trace checkpointing tests (ctest label `checkpoint`).
 *
 * Checkpointed replay rides on three claims, each attacked here:
 *
 *  1. Snapshot serialization is lossless: a snapshot that round-trips
 *     through bytes resumes to a bit-identical outcome, and damaged
 *     bytes are rejected rather than half-decoded.
 *  2. Cross-bug-set restore is sound: below a bug set's first trigger
 *     cycle the bug-free trajectory *is* the bugged trajectory, so
 *     restoring a donor snapshot with the bug mask re-armed
 *     (PpCore::restoreWithBugs) reproduces the bugged run exactly.
 *  3. The engine's results are byte-identical to the sequential
 *     VectorPlayer for every (cache budget × worker count)
 *     combination — including budgets so small that checkpoints are
 *     evicted and dropped, which may cost cycles but never
 *     correctness — and for cold and warm runs through a warm cache
 *     at any chain-link stride.
 *
 * The suite exercises the worker pool, so it is part of the
 * ARCHVAL_SANITIZE=thread build (see README).
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "harness/replay_engine.hh"
#include "harness/vector_player.hh"
#include "murphi/enumerator.hh"
#include "support/record_file.hh"
#include "support/rng.hh"
#include "support/status.hh"

namespace archval::harness
{
namespace
{

using rtl::BugId;
using rtl::BugSet;
using rtl::PpConfig;
using rtl::PpFsmModel;

class CheckpointFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        config_ = new PpConfig(PpConfig::smallPreset());
        model_ = new PpFsmModel(*config_);
        murphi::Enumerator enumerator(*model_);
        graph_ = new graph::StateGraph(enumerator.runOrThrow());
        graph::TourOptions tour_options;
        tour_options.maxInstructionsPerTrace = 1'000;
        graph::TourGenerator tour_gen(*graph_, tour_options);
        tours_ = new std::vector<graph::Trace>(tour_gen.run());
        vecgen::VectorGenerator generator(*model_, 42);
        traces_ = new std::vector<vecgen::TestTrace>(
            generator.generateAll(*graph_, *tours_));

        // All six Table 2.1 bugs as single-bug sets, donor first.
        bug_sets_ = new std::vector<BugSet>(1 + rtl::numBugs);
        for (size_t b = 0; b < rtl::numBugs; ++b)
            (*bug_sets_)[1 + b].set(b);

        // The sequential ground truth for the full trace × bug-set
        // matrix, computed once (every differential test compares
        // engine output against this).
        VectorPlayer player(*config_);
        expected_ = new std::vector<PlayResult>;
        for (const BugSet &bugs : *bug_sets_)
            for (const auto &trace : *traces_)
                expected_->push_back(player.play(trace, bugs));
    }

    static void
    TearDownTestSuite()
    {
        delete expected_;
        delete bug_sets_;
        delete traces_;
        delete tours_;
        delete graph_;
        delete model_;
        delete config_;
        expected_ = nullptr;
        bug_sets_ = nullptr;
        traces_ = nullptr;
        tours_ = nullptr;
        graph_ = nullptr;
        model_ = nullptr;
        config_ = nullptr;
    }

    /** @return one PpCore snapshot's byte footprint. */
    static size_t
    snapshotBytes()
    {
        return rtl::PpCore(*config_, rtl::CoreMode::Vector)
            .snapshotBytes();
    }

    static PpConfig *config_;
    static PpFsmModel *model_;
    static graph::StateGraph *graph_;
    static std::vector<graph::Trace> *tours_;
    static std::vector<vecgen::TestTrace> *traces_;
    static std::vector<BugSet> *bug_sets_;
    static std::vector<PlayResult> *expected_;
};

PpConfig *CheckpointFixture::config_ = nullptr;
PpFsmModel *CheckpointFixture::model_ = nullptr;
graph::StateGraph *CheckpointFixture::graph_ = nullptr;
std::vector<graph::Trace> *CheckpointFixture::tours_ = nullptr;
std::vector<vecgen::TestTrace> *CheckpointFixture::traces_ = nullptr;
std::vector<BugSet> *CheckpointFixture::bug_sets_ = nullptr;
std::vector<PlayResult> *CheckpointFixture::expected_ = nullptr;

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

/** Run the engine under @p options over the fixture matrix and
 *  require byte-identical results. @return the run's stats. */
ReplayStats
expectMatrixIdentical(const PpConfig &config,
                      const std::vector<vecgen::TestTrace> &traces,
                      const std::vector<BugSet> &bug_sets,
                      const std::vector<PlayResult> &expected,
                      const ReplayOptions &options,
                      const std::string &what)
{
    ReplayEngine engine(config, options);
    std::vector<PlayResult> actual = engine.playAll(traces, bug_sets);
    EXPECT_EQ(actual.size(), expected.size()) << what;
    for (size_t i = 0; i < expected.size() && i < actual.size(); ++i)
        expectSameResult(expected[i], actual[i],
                         what + " job " + std::to_string(i));
    return engine.stats();
}

// ---------------------------------------------------------------------
// Claim 1: serialization is lossless and damage is rejected.
// ---------------------------------------------------------------------

TEST_F(CheckpointFixture, SerializedSnapshotRoundTripsExactly)
{
    const vecgen::TestTrace &trace = *std::min_element(
        traces_->begin(), traces_->end(),
        [](const auto &a, const auto &b) {
            return a.cycles.size() < b.cycles.size();
        });
    ASSERT_GE(trace.cycles.size(), 4u);

    VectorPlayer player(*config_);
    PlayResult fresh = player.play(trace, BugSet{});

    rtl::PpCore core(*config_, rtl::CoreMode::Vector);
    VectorPlayer::primeCore(core, trace, BugSet{});
    size_t half = trace.cycles.size() / 2;
    VectorPlayer::drive(core, trace, 0, half);

    std::vector<uint8_t> bytes = core.snapshot().serialize();
    ASSERT_FALSE(bytes.empty());

    rtl::PpCore::Snapshot snap = rtl::PpCore::deserializeSnapshot(
        *config_, rtl::CoreMode::Vector, bytes.data(), bytes.size());
    ASSERT_TRUE(snap.valid());
    EXPECT_EQ(snap.cycles(), half);

    rtl::PpCore resumed(*config_, rtl::CoreMode::Vector);
    VectorPlayer::primeCore(resumed, trace, BugSet{});
    resumed.restore(snap);
    VectorPlayer::drive(resumed, trace, half, trace.cycles.size());
    expectSameResult(fresh,
                     VectorPlayer::finish(*config_, resumed, trace),
                     "deserialized mid-trace snapshot");
}

TEST_F(CheckpointFixture, DeserializeRejectsDamage)
{
    const vecgen::TestTrace &trace = traces_->front();
    rtl::PpCore core(*config_, rtl::CoreMode::Vector);
    VectorPlayer::primeCore(core, trace, BugSet{});
    VectorPlayer::drive(core, trace, 0, trace.cycles.size() / 2);
    std::vector<uint8_t> bytes = core.snapshot().serialize();
    ASSERT_GT(bytes.size(), 64u);

    // Truncation at any boundary must fail cleanly, never read out
    // of bounds (exercised under sanitizers by the tsan/asan builds).
    for (size_t keep :
         {size_t{0}, size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
        EXPECT_FALSE(rtl::PpCore::deserializeSnapshot(
                         *config_, rtl::CoreMode::Vector,
                         bytes.data(), keep)
                         .valid())
            << "truncated to " << keep;
    }

    // A snapshot from a different machine configuration must be
    // rejected by the config fingerprint.
    PpConfig other = PpConfig::smallPreset();
    other.machine.dmemWords *= 2;
    EXPECT_FALSE(rtl::PpCore::deserializeSnapshot(
                     other, rtl::CoreMode::Vector, bytes.data(),
                     bytes.size())
                     .valid());

    // Damaged magic/version header must be rejected.
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xFF;
    EXPECT_FALSE(rtl::PpCore::deserializeSnapshot(
                     *config_, rtl::CoreMode::Vector, bad.data(),
                     bad.size())
                     .valid());

    // A record from the previous layout (version 1 stored each forced
    // signal in four bytes) restores as invalid, never as shifted
    // fields. The version word follows the 4-byte magic.
    std::vector<uint8_t> old_version = bytes;
    const uint32_t version_one = 1;
    std::memcpy(old_version.data() + 4, &version_one,
                sizeof version_one);
    EXPECT_FALSE(rtl::PpCore::deserializeSnapshot(
                     *config_, rtl::CoreMode::Vector,
                     old_version.data(), old_version.size())
                     .valid());
}

// ---------------------------------------------------------------------
// Claim 2: cross-bug-set restore with mask re-arming.
// ---------------------------------------------------------------------

TEST_F(CheckpointFixture, BugRearmRoundTripFuzz)
{
    // Randomized attack on the validity rule: for random (trace,
    // cycle, bug set) draws, snapshot the *bug-free* run at the
    // cycle, round-trip it through bytes, restore with the bug mask
    // re-armed, and require the finished run to match the sequential
    // bugged run — whenever the cycle lies strictly below the bug
    // set's first trigger (the rule's precondition). Draws at or
    // above the trigger are discarded: the rule makes no promise
    // there.
    Rng rng(0xC0FFEE42);
    size_t checked = 0;
    for (int draw = 0; draw < 40 && checked < 12; ++draw) {
        const size_t t = rng.index(traces_->size());
        const vecgen::TestTrace &trace = (*traces_)[t];
        if (trace.cycles.size() < 2)
            continue;

        BugSet bugs;
        bugs.set(rng.index(rtl::numBugs));
        if (rng.chance(1, 3))
            bugs.set(rng.index(rtl::numBugs));

        // Donor run: record first-trigger cycles and snapshot at a
        // random mid-trace cycle.
        const size_t cut = 1 + rng.index(trace.cycles.size() - 1);
        rtl::PpCore donor(*config_, rtl::CoreMode::Vector);
        VectorPlayer::primeCore(donor, trace, BugSet{});
        VectorPlayer::drive(donor, trace, 0, cut);
        std::vector<uint8_t> bytes = donor.snapshot().serialize();
        VectorPlayer::drive(donor, trace, cut, trace.cycles.size());
        VectorPlayer::finish(*config_, donor, trace);

        uint64_t first = UINT64_MAX;
        for (size_t b = 0; b < rtl::numBugs; ++b)
            if (bugs.test(b))
                first = std::min(
                    first,
                    donor.bugFirstTrigger(static_cast<BugId>(b)));
        if (cut >= first)
            continue; // precondition unmet: no promise to check
        ++checked;

        rtl::PpCore::Snapshot snap = rtl::PpCore::deserializeSnapshot(
            *config_, rtl::CoreMode::Vector, bytes.data(),
            bytes.size());
        ASSERT_TRUE(snap.valid());

        rtl::PpCore resumed(*config_, rtl::CoreMode::Vector);
        VectorPlayer::primeCore(resumed, trace, bugs);
        resumed.restoreWithBugs(snap, bugs);
        VectorPlayer::drive(resumed, trace, cut, trace.cycles.size());
        PlayResult result =
            VectorPlayer::finish(*config_, resumed, trace);

        VectorPlayer player(*config_);
        expectSameResult(player.play(trace, bugs), result,
                         "trace " + std::to_string(t) + " cut " +
                             std::to_string(cut) + " bugs " +
                             bugs.to_string());
    }
    // The batch triggers bugs late enough that mid-trace cuts below
    // the trigger are common; if this ever fires, re-seed the fuzz.
    EXPECT_GE(checked, 6u) << "too few valid draws to trust the fuzz";
}

// ---------------------------------------------------------------------
// Claim 3: the engine differential across the full sweep.
// ---------------------------------------------------------------------

TEST_F(CheckpointFixture, EngineMatchesSequentialAcrossTierSweep)
{
    // The acceptance sweep: memory budget × worker count, all six
    // Table 2.1 bug sets plus the bug-free donor. The batch joins a
    // nested-prefix batch (consecutive traces share their whole stem,
    // so each block simulates the stem once) with the fixture's
    // plain batch, whose reset-rooted walks branch after a few
    // cycles; a one-cycle minimum prefix checkpoints those branch
    // points, so several checkpoints are live at once.
    graph::TourOptions tour_options;
    tour_options.maxInstructionsPerTrace = 4'000;
    tour_options.nestedPrefixSplits = true;
    graph::TourGenerator tour_gen(*graph_, tour_options);
    std::vector<vecgen::TestTrace> batch =
        vecgen::VectorGenerator(*model_, 42)
            .generateAll(*graph_, tour_gen.run());
    // Each nested trace re-walks every stem before it, so the batch
    // grows quadratically; its first eight traces keep the sweep
    // short and still chain seven stems.
    ASSERT_GT(batch.size(), 8u);
    batch.resize(8);
    const size_t nested = batch.size();
    batch.insert(batch.end(), traces_->begin(), traces_->end());

    // Sequential ground truth: the nested part is played here, the
    // plain part comes from the fixture's matrix.
    VectorPlayer player(*config_);
    std::vector<PlayResult> expected;
    for (size_t b = 0; b < bug_sets_->size(); ++b) {
        for (size_t t = 0; t < nested; ++t)
            expected.push_back(player.play(batch[t], (*bug_sets_)[b]));
        const auto plain = expected_->begin() +
                           static_cast<long>(b * traces_->size());
        expected.insert(expected.end(), plain,
                        plain + static_cast<long>(traces_->size()));
    }

    // The plan budgets every checkpoint at the reset-state snapshot
    // size. Mid-trace snapshots also carry the trace's stream and
    // outgrow that estimate, so under the tight budget the plan
    // keeps more checkpoints live than fit and the cache evicts; the
    // tiny budget is below every mid-trace snapshot, so each one is
    // dropped on publish. Either way consumers replay from reset —
    // cycles, never correctness.
    const size_t one = snapshotBytes();
    struct Tier
    {
        size_t memory;
        const char *name;
    };
    const Tier tiers[] = {
        {size_t{1} << 40, "mem-unbounded"},
        {4 * one, "mem-tight+evict"},
        {2 * one, "mem-tiny+drop"},
    };
    bool hit_somewhere = false;
    bool eviction_somewhere = false;

    for (const Tier &tier : tiers) {
        for (unsigned nw : {1u, 2u, 8u}) {
            ReplayOptions options;
            options.numThreads = nw;
            options.checkpointBudgetBytes = tier.memory;
            options.minPrefixCycles = 1;
            ReplayStats stats = expectMatrixIdentical(
                *config_, batch, *bug_sets_, expected, options,
                std::string(tier.name) +
                    " workers=" + std::to_string(nw));
            if (stats.checkpointHits > 0)
                hit_somewhere = true;
            if (tier.memory < (size_t{1} << 30)) {
                if (stats.cacheEvictions > 0)
                    eviction_somewhere = true;
            } else {
                EXPECT_EQ(stats.cacheEvictions, 0u)
                    << "workers=" << nw;
            }
            // Without a warm cache no stride-spaced checkpoint
            // exists; triggered jobs still count their leads.
            EXPECT_EQ(stats.strideHits, 0u) << tier.name;
            EXPECT_GT(stats.triggeredJobs, 0u) << tier.name;
            EXPECT_LE(stats.triggeredLeadCycles,
                      stats.triggeredJobCycles);
        }
    }
    // The sweep must actually exercise what it validates: at least
    // one configuration resumes from a prefix checkpoint, and at
    // least one evicts a checkpoint, drops it and still matches.
    EXPECT_TRUE(hit_somewhere);
    EXPECT_TRUE(eviction_somewhere);
}

TEST_F(CheckpointFixture, RandomizedPropertyDifferential)
{
    // Property test: random engine configurations and random bug-set
    // subsets must always reproduce the sequential player. On half
    // the draws a fresh warm cache is installed and the batch is
    // played twice — cold (populating the cache) and warm (copying
    // donor results and resuming triggered jobs from chain links
    // spaced by the drawn stride). Seeded, so a failure is
    // reproducible from the draw index.
    Rng rng(0x7E57C0DE);
    const size_t one = snapshotBytes();
    size_t max_len = 0;
    for (const auto &trace : *traces_)
        max_len = std::max(max_len, trace.cycles.size());

    for (int draw = 0; draw < 8; ++draw) {
        // Random subset of bug sets, donor included half the time.
        std::vector<BugSet> bug_sets;
        std::vector<PlayResult> expected;
        for (size_t b = 0; b < bug_sets_->size(); ++b) {
            if (rng.chance(1, 2))
                continue;
            bug_sets.push_back((*bug_sets_)[b]);
            expected.insert(
                expected.end(),
                expected_->begin() +
                    static_cast<long>(b * traces_->size()),
                expected_->begin() +
                    static_cast<long>((b + 1) * traces_->size()));
        }
        // Half the draws replay through a fresh warm cache; those
        // always carry the bug-free set, whose runs populate it.
        const bool warm = rng.chance(1, 2);
        if (bug_sets.empty() || (warm && bug_sets.front().any())) {
            bug_sets.insert(bug_sets.begin(), (*bug_sets_)[0]);
            expected.insert(expected.begin(), expected_->begin(),
                            expected_->begin() +
                                static_cast<long>(traces_->size()));
        }

        ReplayOptions options;
        options.numThreads = 1 + (unsigned)rng.index(8);
        options.checkpointStride = rng.index(2 * max_len);
        options.checkpointBudgetBytes =
            rng.chance(1, 4) ? 0 : rng.range(one, 64 * one);
        options.minPrefixCycles = rng.range(1, 64);
        const std::string what =
            "draw " + std::to_string(draw) + " workers=" +
            std::to_string(options.numThreads) + " stride=" +
            std::to_string(options.checkpointStride);
        if (warm) {
            // Small enough that short strides thin chains and evict
            // whole entries.
            options.warmCache = std::make_shared<ReplayWarmCache>(
                4096 * one, 64 * one);
        }
        ReplayStats cold = expectMatrixIdentical(
            *config_, *traces_, bug_sets, expected, options,
            what + (warm ? " cold" : ""));
        if (warm) {
            ReplayStats stats = expectMatrixIdentical(
                *config_, *traces_, bug_sets, expected, options,
                what + " warm");
            // A zero budget disables the donor block, so a batch
            // with bugged sets then has no run to populate from.
            if (options.checkpointBudgetBytes > 0 ||
                bug_sets.size() == 1) {
                EXPECT_EQ(cold.warmInserts, traces_->size()) << what;
                EXPECT_GT(stats.warmHits, 0u) << what;
            }
            EXPECT_LE(stats.warmHits, cold.warmInserts) << what;
        }
    }
}

// ---------------------------------------------------------------------
// RecordFile writer/reader — the session-store container format.
// ---------------------------------------------------------------------

namespace
{

constexpr uint32_t kTestMagic = 0x52435654; // "TVCR"

std::vector<uint8_t>
patternRecord(size_t size, uint8_t seed)
{
    std::vector<uint8_t> record(size);
    for (size_t i = 0; i < size; ++i)
        record[i] = static_cast<uint8_t>(seed + i * 13);
    return record;
}

std::string
recordFilePath(const char *name)
{
    return ::testing::TempDir() + "/archval-recfile-" + name + "-" +
           std::to_string(::getpid());
}

} // namespace

TEST(RecordFileTest, RoundTripIncludingEmptyRecords)
{
    const std::string path = recordFilePath("roundtrip");
    std::vector<std::vector<uint8_t>> records{
        patternRecord(1, 3), {}, patternRecord(4096, 7),
        patternRecord(17, 11)};
    {
        RecordFileWriter writer(path, kTestMagic, 2);
        ASSERT_TRUE(writer.ok());
        for (const auto &record : records)
            ASSERT_TRUE(writer.append(record));
        ASSERT_TRUE(writer.commit());
    }
    RecordFileReader reader(path, kTestMagic, 2);
    ASSERT_TRUE(reader.ok());
    std::vector<uint8_t> out;
    for (const auto &record : records) {
        ASSERT_EQ(reader.next(out), RecordFileReader::Status::Record);
        EXPECT_EQ(out, record);
    }
    EXPECT_EQ(reader.next(out), RecordFileReader::Status::End);
    EXPECT_EQ(reader.next(out), RecordFileReader::Status::End);
    ::unlink(path.c_str());
}

TEST(RecordFileTest, UncommittedWriterLeavesTargetUntouched)
{
    const std::string path = recordFilePath("atomic");
    {
        RecordFileWriter writer(path, kTestMagic, 1);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.append(patternRecord(64, 1)));
        ASSERT_TRUE(writer.commit());
    }
    {
        // A writer that dies before commit() (daemon killed mid-save)
        // must leave the previously committed file intact.
        RecordFileWriter writer(path, kTestMagic, 1);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.append(patternRecord(999, 2)));
        // no commit
    }
    RecordFileReader reader(path, kTestMagic, 1);
    ASSERT_TRUE(reader.ok());
    std::vector<uint8_t> out;
    ASSERT_EQ(reader.next(out), RecordFileReader::Status::Record);
    EXPECT_EQ(out, patternRecord(64, 1));
    EXPECT_EQ(reader.next(out), RecordFileReader::Status::End);
    ::unlink(path.c_str());
}

TEST(RecordFileTest, ForeignMagicOrVersionFailsOpen)
{
    const std::string path = recordFilePath("identity");
    {
        RecordFileWriter writer(path, kTestMagic, 3);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.append(patternRecord(32, 5)));
        ASSERT_TRUE(writer.commit());
    }
    EXPECT_FALSE(RecordFileReader(path, kTestMagic + 1, 3).ok());
    EXPECT_FALSE(RecordFileReader(path, kTestMagic, 4).ok());
    EXPECT_FALSE(
        RecordFileReader(path + ".nope", kTestMagic, 3).ok());
    EXPECT_TRUE(RecordFileReader(path, kTestMagic, 3).ok());
    ::unlink(path.c_str());
}

TEST(RecordFileTest, FlippedBitAndTruncationAreStickyDamage)
{
    const std::string path = recordFilePath("damage");
    {
        RecordFileWriter writer(path, kTestMagic, 1);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.append(patternRecord(512, 9)));
        ASSERT_TRUE(writer.append(patternRecord(512, 10)));
        ASSERT_TRUE(writer.commit());
    }
    struct stat st;
    ASSERT_EQ(::stat(path.c_str(), &st), 0);

    // Flip one payload byte of the second record: record one still
    // reads, record two is Damaged, and damage is sticky.
    {
        int fd = ::open(path.c_str(), O_RDWR);
        ASSERT_GE(fd, 0);
        const off_t target = st.st_size - 100;
        uint8_t byte = 0;
        ASSERT_EQ(::pread(fd, &byte, 1, target), 1);
        byte ^= 0x01;
        ASSERT_EQ(::pwrite(fd, &byte, 1, target), 1);
        ::close(fd);

        RecordFileReader reader(path, kTestMagic, 1);
        ASSERT_TRUE(reader.ok());
        std::vector<uint8_t> out;
        ASSERT_EQ(reader.next(out),
                  RecordFileReader::Status::Record);
        EXPECT_EQ(out, patternRecord(512, 9));
        EXPECT_EQ(reader.next(out),
                  RecordFileReader::Status::Damaged);
        EXPECT_TRUE(out.empty());
        EXPECT_EQ(reader.next(out),
                  RecordFileReader::Status::Damaged);
    }

    // Truncation mid-record: Damaged, not a short read or End.
    ASSERT_EQ(::truncate(path.c_str(), st.st_size - 10), 0);
    {
        RecordFileReader reader(path, kTestMagic, 1);
        ASSERT_TRUE(reader.ok());
        std::vector<uint8_t> out;
        ASSERT_EQ(reader.next(out),
                  RecordFileReader::Status::Record);
        EXPECT_EQ(reader.next(out),
                  RecordFileReader::Status::Damaged);
    }

    // Truncation inside the header: the open itself fails.
    ASSERT_EQ(::truncate(path.c_str(), 5), 0);
    EXPECT_FALSE(RecordFileReader(path, kTestMagic, 1).ok());
    ::unlink(path.c_str());
}

} // namespace
} // namespace archval::harness
