/**
 * @file
 * Tests for the vector generator: stream/cycle accounting, class
 * agreement between tour edges and generated instructions, conflict
 * address constraints, squash filtering, force-script rendering,
 * and byte identity between the whole-set, shared-table and
 * per-trace paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"
#include "vecgen/vector_gen.hh"

namespace archval::vecgen
{
namespace
{

using rtl::PpChoiceVar;
using rtl::PpConfig;
using rtl::PpFsmModel;

/** Shared enumeration of the small preset. */
class VecGenFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        model_ = new PpFsmModel(PpConfig::smallPreset());
        murphi::Enumerator enumerator(*model_);
        graph_ = new graph::StateGraph(enumerator.runOrThrow());
        graph::TourGenerator tours(*graph_);
        traces_ = new std::vector<graph::Trace>(tours.run());
    }

    static void
    TearDownTestSuite()
    {
        delete traces_;
        delete graph_;
        delete model_;
        traces_ = nullptr;
        graph_ = nullptr;
        model_ = nullptr;
    }

    static PpFsmModel *model_;
    static graph::StateGraph *graph_;
    static std::vector<graph::Trace> *traces_;
};

PpFsmModel *VecGenFixture::model_ = nullptr;
graph::StateGraph *VecGenFixture::graph_ = nullptr;
std::vector<graph::Trace> *VecGenFixture::traces_ = nullptr;

TEST_F(VecGenFixture, TourCoversGraph)
{
    EXPECT_EQ(checkTourCoverage(*graph_, *traces_), "");
    EXPECT_GT(traces_->size(), 0u);
}

TEST_F(VecGenFixture, CycleAndInstructionAccounting)
{
    VectorGenerator generator(*model_, 7);
    for (size_t i = 0; i < std::min<size_t>(traces_->size(), 10); ++i) {
        TestTrace trace =
            generator.generate(*graph_, (*traces_)[i], i);
        EXPECT_EQ(trace.cycles.size(), (*traces_)[i].edges.size());
        EXPECT_EQ(trace.instructions, (*traces_)[i].instructions);
        EXPECT_EQ(trace.fetchStream.size(), trace.instructions);
        // No branches in the small preset: nothing squashed.
        EXPECT_EQ(trace.retiredStream.size(), trace.fetchStream.size());
    }
}

TEST_F(VecGenFixture, FetchClassesMatchTourChoices)
{
    VectorGenerator generator(*model_, 11);
    auto codec = model_->makeChoiceCodec();
    const auto &tour = (*traces_)[0];
    TestTrace trace = generator.generate(*graph_, tour, 0);

    size_t fetch_pos = 0;
    for (size_t i = 0; i < tour.edges.size(); ++i) {
        const auto &edge = graph_->edge(tour.edges[i]);
        auto choice = codec.decode(edge.choiceCode);
        uint32_t ihit =
            choice[static_cast<size_t>(PpChoiceVar::IHit)];
        if (!ihit)
            continue; // no fetch this cycle
        ASSERT_LT(fetch_pos, trace.fetchStream.size());
        pp::InstrClass expected = static_cast<pp::InstrClass>(
            choice[static_cast<size_t>(PpChoiceVar::FetchClass)] + 1);
        EXPECT_EQ(pp::classOfWord(trace.fetchStream[fetch_pos]),
                  expected)
            << "cycle " << i;
        fetch_pos += 1 + choice[static_cast<size_t>(PpChoiceVar::Dual)];
    }
    EXPECT_EQ(fetch_pos, trace.fetchStream.size());
}

TEST_F(VecGenFixture, InboxWordPerRetiredSwitch)
{
    VectorGenerator generator(*model_, 13);
    for (size_t i = 0; i < std::min<size_t>(traces_->size(), 20); ++i) {
        TestTrace trace =
            generator.generate(*graph_, (*traces_)[i], i);
        size_t switches = 0;
        for (uint32_t word : trace.retiredStream) {
            if (pp::classOfWord(word) == pp::InstrClass::Switch)
                ++switches;
        }
        EXPECT_EQ(trace.inbox.size(), switches);
    }
}

TEST_F(VecGenFixture, MemOpsUseR0BaseWithinDmem)
{
    VectorGenerator generator(*model_, 17);
    TestTrace trace = generator.generate(*graph_, (*traces_)[0], 0);
    const uint32_t dmem_bytes =
        model_->config().machine.dmemWords * 4;
    for (uint32_t word : trace.fetchStream) {
        auto d = pp::decode(word);
        if (d.cls() == pp::InstrClass::Load ||
            d.cls() == pp::InstrClass::Store) {
            EXPECT_EQ(d.rs, 0);
            EXPECT_GE(d.imm, 0);
            EXPECT_LT(static_cast<uint32_t>(d.imm), dmem_bytes);
            EXPECT_EQ(d.imm % 4, 0);
        }
    }
}

TEST_F(VecGenFixture, DeterministicForSameSeed)
{
    VectorGenerator a(*model_, 99), b(*model_, 99);
    TestTrace ta = a.generate(*graph_, (*traces_)[0], 0);
    TestTrace tb = b.generate(*graph_, (*traces_)[0], 0);
    EXPECT_EQ(ta.fetchStream, tb.fetchStream);
    EXPECT_EQ(ta.inbox, tb.inbox);
}

TEST_F(VecGenFixture, DifferentSeedsDifferInOperands)
{
    VectorGenerator a(*model_, 1), b(*model_, 2);
    TestTrace ta = a.generate(*graph_, (*traces_)[0], 0);
    TestTrace tb = b.generate(*graph_, (*traces_)[0], 0);
    // Same classes, same length; operand bits should differ somewhere.
    ASSERT_EQ(ta.fetchStream.size(), tb.fetchStream.size());
    bool any_diff = false;
    for (size_t i = 0; i < ta.fetchStream.size(); ++i)
        any_diff |= ta.fetchStream[i] != tb.fetchStream[i];
    if (!ta.fetchStream.empty()) {
        EXPECT_TRUE(any_diff);
    }
}

TEST_F(VecGenFixture, ForceScriptMentionsSignalsAndInstructions)
{
    VectorGenerator generator(*model_, 23);
    TestTrace trace = generator.generate(*graph_, (*traces_)[0], 0);
    std::string script = generator.renderForceScript(trace);
    EXPECT_NE(script.find("force icache.hit"), std::string::npos);
    EXPECT_NE(script.find("initial begin"), std::string::npos);
    EXPECT_NE(script.find("// fetch"), std::string::npos);
}

TEST_F(VecGenFixture, StatsAccumulate)
{
    VectorGenerator generator(*model_, 29);
    generator.generate(*graph_, (*traces_)[0], 0);
    generator.generate(*graph_, (*traces_)[1 % traces_->size()], 1);
    EXPECT_EQ(generator.stats().traces, 2u);
    EXPECT_GT(generator.stats().cycles, 0u);
}

/** A model, its enumerated graph and its tours. */
struct Pipeline
{
    std::unique_ptr<PpFsmModel> model;
    std::unique_ptr<graph::StateGraph> graph;
    std::vector<graph::Trace> tours;
};

std::unique_ptr<Pipeline>
buildPipeline(const PpConfig &config, uint64_t trace_limit)
{
    auto p = std::make_unique<Pipeline>();
    p->model = std::make_unique<PpFsmModel>(config);
    murphi::Enumerator enumerator(*p->model);
    p->graph =
        std::make_unique<graph::StateGraph>(enumerator.runOrThrow());
    graph::TourOptions options;
    options.maxInstructionsPerTrace = trace_limit;
    graph::TourGenerator tours(*p->graph, options);
    p->tours = tours.run();
    return p;
}

/** The mid PP: the full preset without model alignment. */
PpConfig
midPreset()
{
    PpConfig config = PpConfig::fullPreset();
    config.modelAlignment = false;
    return config;
}

/** FNV-style fold over every field of a vector set. */
uint64_t
vectorSetHash(const std::vector<TestTrace> &traces)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto fold = [&h](uint64_t value) {
        h = (h ^ value) * 0x100000001b3ull;
        h ^= h >> 29;
    };
    fold(traces.size());
    for (const TestTrace &trace : traces) {
        fold(trace.traceIndex);
        fold(trace.instructions);
        fold(trace.cycles.size());
        for (const rtl::ForcedSignals &signals : trace.cycles) {
            for (uint32_t value : signals)
                fold(value);
        }
        for (const auto *words :
             {&trace.fetchStream, &trace.retiredStream}) {
            fold(words->size());
            for (uint32_t word : *words)
                fold(word);
        }
        fold(trace.inbox.size());
        for (uint32_t word : trace.inbox)
            fold(word);
    }
    return h;
}

/** Expect every field of @p a and @p b to match. */
void
expectSameTrace(const TestTrace &a, const TestTrace &b, size_t index)
{
    EXPECT_EQ(a.cycles, b.cycles) << "trace " << index;
    EXPECT_EQ(a.fetchStream, b.fetchStream) << "trace " << index;
    EXPECT_EQ(a.retiredStream, b.retiredStream) << "trace " << index;
    EXPECT_EQ(a.inbox, b.inbox) << "trace " << index;
    EXPECT_EQ(a.instructions, b.instructions) << "trace " << index;
    EXPECT_EQ(a.traceIndex, b.traceIndex) << "trace " << index;
}

/** Expect every counter of @p a and @p b to match. */
void
expectSameStats(const VecGenStats &a, const VecGenStats &b)
{
    EXPECT_EQ(a.traces, b.traces);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.squashedPackets, b.squashedPackets);
    EXPECT_EQ(a.constrainedLoads, b.constrainedLoads);
}

/**
 * generateAll (which walks a per-edge fact table) must give the same
 * traces and statistics as generate() called trace by trace (which
 * computes each edge's facts as it walks).
 * @return the statistics of the whole-set run.
 */
VecGenStats
expectPathsAgree(const Pipeline &p, uint64_t seed)
{
    VectorGenerator whole(*p.model, seed), per_trace(*p.model, seed);
    std::vector<TestTrace> all = whole.generateAll(*p.graph, p.tours);
    EXPECT_EQ(all.size(), p.tours.size());
    for (size_t i = 0; i < std::min(all.size(), p.tours.size()); ++i)
        expectSameTrace(all[i], per_trace.generate(*p.graph, p.tours[i], i),
                        i);
    expectSameStats(whole.stats(), per_trace.stats());
    return whole.stats();
}

/**
 * One EdgeFactTable, filled in four parts on four threads, serves
 * generators that each have their own seed (as a fuzz campaign's
 * candidates do). Each must match a fresh inline generator with the
 * same seed, trace for trace and counter for counter.
 * @return the summed statistics of the shared-table generators.
 */
VecGenStats
expectSharedTableAgrees(const Pipeline &p, size_t stride = 1)
{
    constexpr unsigned parts = 4;
    EdgeFactTable table(*p.model, *p.graph);
    std::vector<std::thread> threads;
    for (unsigned part = 0; part < parts; ++part)
        threads.emplace_back([&table, part] { table.fill(part, parts); });
    for (std::thread &thread : threads)
        thread.join();

    VecGenStats total;
    for (size_t i = 0; i < p.tours.size(); i += stride) {
        const uint64_t seed = 1000 + 7 * i;
        VectorGenerator shared(*p.model, seed), fresh(*p.model, seed);
        expectSameTrace(shared.generate(table, p.tours[i], i),
                        fresh.generate(*p.graph, p.tours[i], i), i);
        expectSameStats(shared.stats(), fresh.stats());
        total.traces += shared.stats().traces;
        total.constrainedLoads += shared.stats().constrainedLoads;
    }
    return total;
}

TEST(VecGenPaths, WholeSetMatchesPerTraceSmall)
{
    auto p = buildPipeline(PpConfig::smallPreset(), 500);
    EXPECT_GT(expectPathsAgree(*p, 5).constrainedLoads, 0u);
}

TEST(VecGenPaths, WholeSetMatchesPerTraceConflictMutation)
{
    // The per-edge facts fold this mutation into "conflict check
    // examined", so both paths must drop the constraints alike.
    PpConfig config = PpConfig::smallPreset();
    config.mutations.set(
        static_cast<size_t>(rtl::MutationId::ConflictDropsLoadCheck));
    auto p = buildPipeline(config, 500);
    EXPECT_EQ(expectPathsAgree(*p, 5).constrainedLoads, 0u);
}

TEST(VecGenPaths, SharedTableMatchesInlineSmall)
{
    auto p = buildPipeline(PpConfig::smallPreset(), 500);
    VecGenStats stats = expectSharedTableAgrees(*p);
    EXPECT_EQ(stats.traces, p->tours.size());
    EXPECT_GT(stats.constrainedLoads, 0u);
}

TEST(VecGenPaths, SharedTableMatchesInlineConflictMutation)
{
    PpConfig config = PpConfig::smallPreset();
    config.mutations.set(
        static_cast<size_t>(rtl::MutationId::ConflictDropsLoadCheck));
    auto p = buildPipeline(config, 500);
    EXPECT_EQ(expectSharedTableAgrees(*p).constrainedLoads, 0u);
}

/** The mid PP with 10k-limited tours, built once for the suite. */
class VecGenMidFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        mid_ = buildPipeline(midPreset(), 10000).release();
    }

    static void
    TearDownTestSuite()
    {
        delete mid_;
        mid_ = nullptr;
    }

    static Pipeline *mid_;
};

Pipeline *VecGenMidFixture::mid_ = nullptr;

TEST_F(VecGenMidFixture, WholeSetMatchesPerTrace)
{
    expectPathsAgree(*mid_, 1);
}

TEST_F(VecGenMidFixture, SharedTableMatchesInline)
{
    // Every fifth tour: the whole-set comparison above already walks
    // all of them inline.
    EXPECT_GT(expectSharedTableAgrees(*mid_, 5).traces, 50u);
}

TEST_F(VecGenMidFixture, SignalsWithinCardinality)
{
    // A forced signal is one byte; every generated value must also
    // be a legal choice of its variable, on the table path
    // (generateAll) and the inline path (generate) alike.
    const auto &vars = mid_->model->choiceVars();
    ASSERT_EQ(vars.size(), rtl::numPpChoiceVars);
    auto expect_in_range = [&](const TestTrace &trace) {
        for (size_t c = 0; c < trace.cycles.size(); ++c) {
            for (size_t v = 0; v < vars.size(); ++v) {
                ASSERT_LT(trace.cycles[c][v], vars[v].cardinality)
                    << "trace " << trace.traceIndex << " cycle " << c
                    << " " << vars[v].name;
            }
        }
    };
    VectorGenerator whole(*mid_->model, 1), per_trace(*mid_->model, 1);
    for (const TestTrace &trace :
         whole.generateAll(*mid_->graph, mid_->tours))
        expect_in_range(trace);
    for (size_t i = 0; i < mid_->tours.size(); ++i)
        expect_in_range(per_trace.generate(*mid_->graph, mid_->tours[i], i));
}

TEST_F(VecGenMidFixture, GoldenVectorSetHash)
{
    // Pinned output of the mid PP at seed 1. The path comparison
    // above catches the two paths drifting apart; this catches a
    // change that moves both at once.
    VectorGenerator generator(*mid_->model, 1);
    std::vector<TestTrace> vectors =
        generator.generateAll(*mid_->graph, mid_->tours);
    EXPECT_EQ(vectors.size(), 298u);
    EXPECT_EQ(generator.stats().cycles, 8352779u);
    EXPECT_EQ(generator.stats().instructions, 2977696u);
    EXPECT_EQ(generator.stats().constrainedLoads, 158405u);
    EXPECT_EQ(vectorSetHash(vectors), 0xcd60f85c553c1231ull);
}

} // namespace
} // namespace archval::vecgen
