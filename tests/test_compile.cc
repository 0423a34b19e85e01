/**
 * @file
 * Differential tests of the compiled step kernels (src/compile/):
 * the enumerated state graph must be bit-identical to the reference
 * BFS (enum_reference.hh) whether frontier states are expanded by the
 * expression-tree interpreter, the scalar bytecode kernel, or the
 * 64-lane bit-sliced kernel — for every HDL corpus design, every
 * worker count in {1, 2, 8}, and the PP FSM (which has no compiled
 * form and must fall back cleanly). Also
 * exercises ragged (non-multiple-of-64) batches against the scalar
 * kernel directly, and the CompiledModel drop-in next().
 */

#include <gtest/gtest.h>

#include "compile/compiled_model.hh"
#include "enum_reference.hh"
#include "compile/kernel.hh"
#include "graph/state_graph.hh"
#include "hdl/corpus.hh"
#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"

namespace archval::compile
{
namespace
{

using murphi::EnumOptions;
using murphi::Enumerator;
using murphi::StepKernel;

/** Enumerate @p model with the given kernel and worker count. */
uint64_t
enumFingerprint(const fsm::Model &model, StepKernel kernel,
                unsigned threads,
                murphi::EnumStats *stats_out = nullptr)
{
    EnumOptions options;
    options.compiledStep = kernel;
    options.numThreads = threads;
    Enumerator enumerator(model, options);
    graph::StateGraph graph = enumerator.runOrThrow();
    if (stats_out)
        *stats_out = enumerator.stats();
    return graph::fingerprint(graph);
}

/** All three kernels, worker counts {1, 2, 8}: one fingerprint. */
void
expectAllModesIdentical(const fsm::Model &model)
{
    murphi::EnumStats stats;
    const uint64_t reference = graph::fingerprint(test::referenceEnumerate(
        model, murphi::EdgeRecording::FirstCondition));
    for (StepKernel kernel : {StepKernel::Interpreted,
                              StepKernel::Bytecode,
                              StepKernel::BitSliced}) {
        for (unsigned threads : {1u, 2u, 8u}) {
            EXPECT_EQ(enumFingerprint(model, kernel, threads, &stats),
                      reference)
                << "kernel " << int(kernel) << " threads " << threads;
            if (kernel != StepKernel::Interpreted) {
                EXPECT_FALSE(stats.compiledFallback);
                EXPECT_EQ(stats.kernelUsed, kernel);
            }
        }
    }
}

TEST(Compile, EveryCorpusDesignAllKernelsAllWorkerCounts)
{
    for (const auto &design : hdl::designCorpus()) {
        SCOPED_TRACE(design.name);
        auto result = hdl::translateCorpus(design);
        ASSERT_TRUE(result.ok()) << result.errorMessage();
        expectAllModesIdentical(*result.value().model);
    }
}

TEST(Compile, PpFsmFallsBackToInterpreted)
{
    // The PP FSM is closure-based: no compiled form. Requesting a
    // compiled kernel must fall back (reported, not an error) and
    // still produce the identical graph.
    rtl::PpFsmModel model(rtl::PpConfig::smallPreset());
    ASSERT_EQ(model.compileSpec(), nullptr);

    murphi::EnumStats stats;
    const uint64_t reference = graph::fingerprint(test::referenceEnumerate(
        model, murphi::EdgeRecording::FirstCondition));
    EXPECT_EQ(enumFingerprint(model, StepKernel::BitSliced, 1, &stats),
              reference);
    EXPECT_TRUE(stats.compiledFallback);
    EXPECT_EQ(stats.kernelUsed, StepKernel::Interpreted);
}

TEST(Compile, CompiledModelMatchesInterpreterEverywhere)
{
    // Every reachable state x every choice tuple: CompiledModel's
    // scalar step must equal HdlModel's interpreted step bit for bit
    // (and per-edge instruction count for instruction count).
    for (const auto &design : hdl::designCorpus()) {
        SCOPED_TRACE(design.name);
        auto result = hdl::translateCorpus(design);
        ASSERT_TRUE(result.ok()) << result.errorMessage();
        const fsm::Model &interp = *result.value().model;
        CompiledModel compiled(interp.compileSpec());

        Enumerator enumerator(interp);
        graph::StateGraph graph = enumerator.runOrThrow();
        const fsm::ChoiceCodec codec = interp.makeChoiceCodec();
        for (graph::StateId s = 0; s < graph.numStates(); ++s) {
            const BitVec &packed = graph.packedState(s);
            for (uint64_t code = 0; code < codec.numCombinations();
                 ++code) {
                fsm::Choice choice = codec.decode(code);
                auto a = interp.next(packed, choice);
                auto b = compiled.next(packed, choice);
                ASSERT_EQ(a.has_value(), b.has_value());
                if (a) {
                    ASSERT_EQ(a->next, b->next)
                        << "state " << s << " code " << code;
                    ASSERT_EQ(a->instructions, b->instructions);
                }
            }
        }
    }
}

TEST(Compile, RaggedBatchesMatchScalarKernel)
{
    // Drive the sliced kernel directly with every ragged batch size
    // 1..64 over reachable states of the largest design; each lane's
    // emission sequence must equal the scalar kernel's.
    auto result = hdl::translateCorpus(hdl::largestCorpusDesign());
    ASSERT_TRUE(result.ok()) << result.errorMessage();
    const fsm::Model &model = *result.value().model;
    auto program = lower(*model.compileSpec());

    Enumerator enumerator(model);
    graph::StateGraph graph = enumerator.runOrThrow();
    const size_t num_states = graph.numStates();

    ScalarKernel scalar(program);
    SlicedKernel sliced(program);
    size_t next_state = 0;
    for (size_t batch = 1; batch <= 64; ++batch) {
        std::vector<const BitVec *> sources(batch);
        for (size_t i = 0; i < batch; ++i) {
            sources[i] =
                &graph.packedState((next_state + i) % num_states);
        }

        // Expected: scalar expansion of each lane, concatenated in
        // lane order.
        std::vector<std::tuple<size_t, uint64_t, BitVec, unsigned>>
            expected;
        for (size_t i = 0; i < batch; ++i) {
            scalar.forEachTransition(
                *sources[i],
                [&](uint64_t code, fsm::Transition &&t) {
                    expected.emplace_back(i, code, std::move(t.next),
                                          t.instructions);
                });
        }

        std::vector<std::tuple<size_t, uint64_t, BitVec, unsigned>>
            actual;
        sliced.expandBatch(
            sources.data(), batch,
            [&](size_t lane, uint64_t code, fsm::Transition &&t) {
                actual.emplace_back(lane, code, std::move(t.next),
                                    t.instructions);
            });
        ASSERT_EQ(actual, expected) << "batch size " << batch;
        next_state = (next_state + batch) % num_states;
    }
}

TEST(Compile, VariableShiftsTakeScalarFallback)
{
    // The barrel rotator's data-dependent shifts cannot be sliced;
    // the kernel must take the per-lane fallback path and still be
    // bit-identical (covered by the corpus sweep above — here we
    // check the fallback actually engaged, so the sliced path is not
    // silently skipping the design).
    const hdl::CorpusDesign *barrel = nullptr;
    for (const auto &design : hdl::designCorpus()) {
        if (std::string(design.name) == "barrel_rotator")
            barrel = &design;
    }
    ASSERT_NE(barrel, nullptr);
    auto result = hdl::translateCorpus(*barrel);
    ASSERT_TRUE(result.ok()) << result.errorMessage();

    EnumOptions options;
    options.compiledStep = StepKernel::BitSliced;
    Enumerator enumerator(*result.value().model, options);
    enumerator.runOrThrow();
    EXPECT_GT(enumerator.stats().slicedFallbackLanes, 0u);
}

TEST(Compile, BytecodeProgramShape)
{
    auto result = hdl::translateCorpus(hdl::largestCorpusDesign());
    ASSERT_TRUE(result.ok()) << result.errorMessage();
    auto spec = result.value().model->compileSpec();
    ASSERT_NE(spec, nullptr);
    auto program = lower(*spec);

    // Halt-terminated, dense registers, plausible size.
    ASSERT_FALSE(program->insns.empty());
    EXPECT_EQ(program->insns.back().op, BOp::Halt);
    EXPECT_EQ(program->nextRegs.size(), spec->stateVars.size());
    EXPECT_GT(program->numRegs, 0u);
    EXPECT_LT(program->byteSize(), size_t(64) << 10);
}

} // namespace
} // namespace archval::compile
