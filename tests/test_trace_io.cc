/**
 * @file
 * Tests for trace-file serialization: round trips, error handling,
 * and replaying a reloaded trace set through the player.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "harness/vector_player.hh"
#include "murphi/enumerator.hh"
#include "support/strings.hh"
#include "vecgen/trace_io.hh"

namespace archval::vecgen
{
namespace
{

class TraceIoFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        config_ = new rtl::PpConfig(rtl::PpConfig::smallPreset());
        model_ = new rtl::PpFsmModel(*config_);
        murphi::Enumerator enumerator(*model_);
        graph_ = new graph::StateGraph(enumerator.runOrThrow());
        graph::TourOptions options;
        options.maxInstructionsPerTrace = 500;
        graph::TourGenerator tours(*graph_, options);
        auto tour_traces = tours.run();
        VectorGenerator generator(*model_, 3);
        traces_ = new std::vector<TestTrace>(
            generator.generateAll(*graph_, tour_traces));
    }

    static void
    TearDownTestSuite()
    {
        delete traces_;
        delete graph_;
        delete model_;
        delete config_;
        traces_ = nullptr;
        graph_ = nullptr;
        model_ = nullptr;
        config_ = nullptr;
    }

    static rtl::PpConfig *config_;
    static rtl::PpFsmModel *model_;
    static graph::StateGraph *graph_;
    static std::vector<TestTrace> *traces_;
};

rtl::PpConfig *TraceIoFixture::config_ = nullptr;
rtl::PpFsmModel *TraceIoFixture::model_ = nullptr;
graph::StateGraph *TraceIoFixture::graph_ = nullptr;
std::vector<TestTrace> *TraceIoFixture::traces_ = nullptr;

bool
tracesEqual(const TestTrace &a, const TestTrace &b)
{
    return a.traceIndex == b.traceIndex &&
           a.instructions == b.instructions && a.cycles == b.cycles &&
           a.fetchStream == b.fetchStream &&
           a.retiredStream == b.retiredStream && a.inbox == b.inbox;
}

TEST_F(TraceIoFixture, SerializeRoundTrip)
{
    ASSERT_FALSE(traces_->empty());
    for (size_t i = 0; i < std::min<size_t>(traces_->size(), 5); ++i) {
        std::string text = serializeTrace((*traces_)[i]);
        auto parsed = deserializeTrace(text);
        ASSERT_TRUE(parsed.ok()) << parsed.errorMessage();
        EXPECT_TRUE(tracesEqual((*traces_)[i], parsed.value()))
            << "trace " << i;
    }
}

TEST_F(TraceIoFixture, FileRoundTrip)
{
    std::string path = std::filesystem::temp_directory_path() /
                       "archval_trace_test.avt";
    auto write = writeTraceFile((*traces_)[0], path);
    ASSERT_TRUE(write.ok()) << write.errorMessage();
    auto read = readTraceFile(path);
    ASSERT_TRUE(read.ok()) << read.errorMessage();
    EXPECT_TRUE(tracesEqual((*traces_)[0], read.value()));
    std::remove(path.c_str());
}

TEST_F(TraceIoFixture, TraceSetRoundTripAndReplay)
{
    std::string dir = std::filesystem::temp_directory_path() /
                      "archval_trace_set_test";
    std::filesystem::remove_all(dir);

    std::vector<TestTrace> subset(
        traces_->begin(),
        traces_->begin() + std::min<size_t>(traces_->size(), 8));
    auto written = writeTraceSet(subset, dir);
    ASSERT_TRUE(written.ok()) << written.errorMessage();
    EXPECT_EQ(written.value(), subset.size());

    auto reloaded = readTraceSet(dir);
    ASSERT_TRUE(reloaded.ok()) << reloaded.errorMessage();
    ASSERT_EQ(reloaded.value().size(), subset.size());

    // Replaying a reloaded trace must behave identically: clean on
    // the healthy design.
    harness::VectorPlayer player(*config_);
    for (const auto &trace : reloaded.value()) {
        auto result = player.play(trace);
        EXPECT_FALSE(result.diverged) << result.diff;
    }
    std::filesystem::remove_all(dir);
}

TEST_F(TraceIoFixture, FileNameConvention)
{
    EXPECT_EQ(traceFileName(0), "trace_000000.avt");
    EXPECT_EQ(traceFileName(42), "trace_000042.avt");
}

TEST(TraceIo, SerializedTextIsPinned)
{
    // Warm-cache keys and .avt files are these exact bytes: any
    // change to the text format (column wrap, padding, separators)
    // must show up here, not as silent cache misses.
    TestTrace trace;
    trace.traceIndex = 7;
    trace.instructions = 12;
    trace.cycles.push_back({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    trace.cycles.push_back({255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 10});
    trace.fetchStream = {0x00000000, 0x00000001, 0xdeadbeef,
                         0xffffffff, 0x0000abcd, 0x12345678,
                         0x80000000, 0x0badf00d, 0x00c0ffee};
    trace.inbox = {0x2a, 0xcafebabe};
    EXPECT_EQ(serializeTrace(trace),
              "archval-trace 1\n"
              "trace 7\n"
              "instructions 12\n"
              "cycles 2 11\n"
              "C 0 1 2 3 4 5 6 7 8 9 10\n"
              "C 255 0 0 0 0 0 0 0 0 0 10\n"
              "fetch 9\n"
              "W 00000000 00000001 deadbeef ffffffff 0000abcd "
              "12345678 80000000 0badf00d\n"
              "W 00c0ffee\n"
              "retired 0\n"
              "inbox 2\n"
              "W 0000002a cafebabe\n"
              "end\n");
}

TEST(TraceIo, RejectsBadMagic)
{
    EXPECT_FALSE(deserializeTrace("not a trace\n").ok());
}

TEST(TraceIo, RejectsTruncatedInput)
{
    TestTrace trace;
    trace.cycles.push_back(rtl::ForcedSignals{});
    trace.fetchStream.push_back(0x1234);
    trace.retiredStream.push_back(0x1234);
    std::string text = serializeTrace(trace);
    for (size_t cut : {text.size() / 4, text.size() / 2,
                       text.size() - 5}) {
        EXPECT_FALSE(deserializeTrace(text.substr(0, cut)).ok())
            << "cut at " << cut;
    }
}

TEST(TraceIo, RejectsOversizedCycleCount)
{
    // A header claiming more cycles than the input holds must fail
    // typed, not size an allocation from the claim.
    std::string text = formatString(
        "archval-trace 1\ntrace 0\ninstructions 0\n"
        "cycles 100000000000000000 %zu\n",
        rtl::numPpChoiceVars);
    auto parsed = deserializeTrace(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.errorMessage().find("cycle count"),
              std::string::npos)
        << parsed.errorMessage();

    // One cycle more than the serialized lines is rejected too.
    TestTrace trace;
    trace.cycles.assign(3, rtl::ForcedSignals{});
    std::string good = serializeTrace(trace);
    ASSERT_TRUE(deserializeTrace(good).ok());
    std::string header = formatString("cycles 3 %zu",
                                      rtl::numPpChoiceVars);
    std::string bad = good;
    bad.replace(bad.find(header), header.size(),
                formatString("cycles 4 %zu", rtl::numPpChoiceVars));
    EXPECT_FALSE(deserializeTrace(bad).ok());
}

TEST(TraceIo, RejectsMalformedWordToken)
{
    TestTrace trace;
    trace.fetchStream = {0x12345678, 0x9abcdef0};
    std::string good = serializeTrace(trace);
    auto parsed = deserializeTrace(good);
    ASSERT_TRUE(parsed.ok()) << parsed.errorMessage();
    EXPECT_EQ(parsed.value().fetchStream, trace.fetchStream);

    for (const char *token : {"zz", "1ffffffff", "12x45678", "-1"}) {
        std::string bad = good;
        bad.replace(bad.find("12345678"), 8, token);
        auto r = deserializeTrace(bad);
        ASSERT_FALSE(r.ok()) << token;
        EXPECT_NE(r.errorMessage().find("bad fetch word"),
                  std::string::npos)
            << r.errorMessage();
    }
}

TEST(TraceIo, RejectsOutOfRangeSignal)
{
    // Each forced signal is one byte: a cycle value must be decimal
    // digits only, at most 255, and a cycle line must carry exactly
    // one value per choice variable.
    TestTrace trace;
    trace.cycles.assign(1, rtl::ForcedSignals{});
    trace.cycles[0][0] = 255;
    std::string good = serializeTrace(trace);
    auto parsed = deserializeTrace(good);
    ASSERT_TRUE(parsed.ok()) << parsed.errorMessage();
    EXPECT_EQ(parsed.value().cycles, trace.cycles);

    const size_t line = good.find("\nC 255");
    ASSERT_NE(line, std::string::npos);
    const size_t first = line + 3; // the "255"
    for (const char *token : {"256", "-1", "4294967296", "7x"}) {
        std::string bad = good;
        bad.replace(first, 3, token);
        auto r = deserializeTrace(bad);
        ASSERT_FALSE(r.ok()) << token;
        EXPECT_NE(r.errorMessage().find("bad signal value"),
                  std::string::npos)
            << r.errorMessage();
    }

    std::string extra = good;
    extra.insert(extra.find('\n', first), " 0");
    auto r = deserializeTrace(extra);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.errorMessage().find("more than"), std::string::npos)
        << r.errorMessage();
}

TEST(TraceIo, ReadMissingFileFails)
{
    EXPECT_FALSE(readTraceFile("/nonexistent/path.avt").ok());
}

} // namespace
} // namespace archval::vecgen
