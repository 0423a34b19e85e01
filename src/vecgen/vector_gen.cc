#include "vector_gen.hh"

#include "pp/isa.hh"
#include "support/status.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace archval::vecgen
{

namespace
{

using pp::InstrClass;
using rtl::DRefill;
using rtl::PpChoiceVar;

/** Per-packet skeleton recorded during the tour walk. */
struct Skeleton
{
    InstrClass cls = InstrClass::Alu;
    unsigned count = 1;
    bool squashed = false;
    bool branchTaken = false;
    // Address constraint for loads (last one wins; see header).
    bool hasConstraint = false;
    bool sameLine = false;
    int storeRef = -1;
    // Materialized address for memory ops.
    uint32_t memAddr = 0;
    // Seed for this packet's operand draws: a hash of (generator
    // seed, tour-edge prefix up to the fetch cycle). See prefixMix.
    uint64_t seedHash = 0;
};

/** FNV-1a step folding @p value into the running prefix hash. */
uint64_t
prefixMix(uint64_t hash, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

size_t
varIndex(PpChoiceVar var)
{
    return static_cast<size_t>(var);
}

void
requireStates(const graph::StateGraph &graph)
{
    if (!graph.statesRetained())
        fatal("vector generation needs retained states "
              "(EnumOptions::retainStates)");
}

} // namespace

EdgeFactBuilder::EdgeFactBuilder(const rtl::PpFsmModel &model)
    : model_(model), codec_(model.makeChoiceCodec()),
      conflictCheckDropped_(model.config().mutations.test(
          static_cast<size_t>(rtl::MutationId::ConflictDropsLoadCheck)))
{
}

uint32_t
EdgeFactBuilder::tupleFor(uint64_t choice_code)
{
    auto [it, added] = tupleOfCode_.try_emplace(
        choice_code, static_cast<uint32_t>(tuples_.size()));
    if (added) {
        ForcedTuple tuple{{}, codec_.decode(choice_code)};
        for (size_t i = 0;
             i < rtl::numPpChoiceVars && i < tuple.choice.size(); ++i)
            tuple.signals[i] = static_cast<uint8_t>(tuple.choice[i]);
        tuples_.push_back(std::move(tuple));
    }
    return it->second;
}

EdgeFacts
EdgeFactBuilder::factsFor(const graph::StateGraph &graph,
                          graph::EdgeId edge_id, uint32_t tuple) const
{
    const graph::Edge &edge = graph.edge(edge_id);
    const fsm::Choice &choice = tuples_[tuple].choice;
    const rtl::PpControlState st =
        model_.unpack(graph.packedState(edge.src));
    const rtl::PpOutputs out = model_.outputsFor(st, choice);

    EdgeFacts facts{};
    facts.tuple = tuple;
    facts.fetchClass = out.fetchClass;
    facts.fetchCount = static_cast<uint8_t>(out.fetchCount);
    facts.fetch = out.fetch;
    facts.advance = out.advance;
    facts.branchTaken = out.branchTaken;
    facts.storeCommit = out.storeCommit;
    facts.storeIssued = out.storeProbe ||
                        (out.critWord && st.memClass == InstrClass::Store);
    facts.exBranch = st.exClass == InstrClass::Branch;
    // The control examined SameLine this cycle for the load in MEM
    // against the pending store. (A control mutated to skip the check
    // never examines it, so no constraint is recorded and the load's
    // address falls back to biased-random — which is how such a bug
    // gets the chance to collide and manifest.)
    facts.conflictChecked = st.memClass == InstrClass::Load &&
                            !st.memDone &&
                            st.drefill == DRefill::Idle &&
                            st.storePending && !conflictCheckDropped_;
    facts.sameLine = choice[varIndex(PpChoiceVar::SameLine)] != 0;
    return facts;
}

EdgeFactTable::EdgeFactTable(const rtl::PpFsmModel &model,
                             const graph::StateGraph &graph)
    : graph_(graph), builder_(model), facts_(graph.numEdges())
{
    requireStates(graph);
    // Serial, in edge-id order: the numbering (and so the table) does
    // not depend on how fill() is split.
    for (size_t e = 0; e < facts_.size(); ++e)
        facts_[e].tuple = builder_.tupleFor(graph.edge(e).choiceCode);
}

void
EdgeFactTable::fill(unsigned part, unsigned parts)
{
    const size_t begin = facts_.size() * part / parts;
    const size_t end = facts_.size() * (part + 1) / parts;
    telemetry::ScopedSpan span("vecgen.edge_facts", "edges",
                               end - begin);
    for (size_t e = begin; e < end; ++e)
        facts_[e] = builder_.factsFor(graph_, e, facts_[e].tuple);
}

VectorGenerator::VectorGenerator(const rtl::PpFsmModel &model,
                                 uint64_t seed)
    : model_(model), inline_(model), seed_(seed)
{
}

TestTrace
VectorGenerator::generate(const graph::StateGraph &graph,
                          const graph::Trace &trace, size_t trace_index)
{
    return walk(graph, trace, trace_index, nullptr);
}

TestTrace
VectorGenerator::generate(const EdgeFactTable &table,
                          const graph::Trace &trace, size_t trace_index)
{
    return walk(table.graph(), trace, trace_index, &table);
}

std::vector<TestTrace>
VectorGenerator::generateAll(const graph::StateGraph &graph,
                             const std::vector<graph::Trace> &traces)
{
    std::vector<TestTrace> out;
    if (traces.empty())
        return out;

    EdgeFactTable table(model_, graph);
    table.fill();

    uint64_t cycles = 0;
    for (const graph::Trace &trace : traces)
        cycles += trace.edges.size();
    telemetry::ScopedSpan span("vecgen.walk", "traces", traces.size(),
                               "cycles", cycles);
    out.reserve(traces.size());
    for (size_t i = 0; i < traces.size(); ++i)
        out.push_back(walk(graph, traces[i], i, &table));
    return out;
}

TestTrace
VectorGenerator::walk(const graph::StateGraph &graph,
                      const graph::Trace &trace, size_t trace_index,
                      const EdgeFactTable *table)
{
    requireStates(graph);

    TestTrace out;
    out.traceIndex = trace_index;
    out.cycles.reserve(trace.edges.size());

    // ------------------------------------------------------------------
    // Pass 1: walk the tour, record forced signals, track pipeline
    // occupancy for squash filtering and conflict constraints.
    // ------------------------------------------------------------------
    std::vector<Skeleton> skeletons;
    int rd_hold = -1, ex_hold = -1, mem_hold = -1;
    int pending_store = -1;

    // Running hash of the tour-edge prefix. Each packet's operand
    // draws are seeded from the hash at its fetch cycle, so traces
    // sharing a reset-rooted edge prefix materialize byte-identical
    // stimulus for that prefix (what ReplayEngine checkpoint sharing
    // keys on) while decorrelating right after the walks diverge.
    uint64_t prefix_hash = prefixMix(0xcbf29ce484222325ull, seed_);

    for (graph::EdgeId e : trace.edges) {
        prefix_hash = prefixMix(prefix_hash, e);
        const EdgeFacts facts =
            table ? (*table)[e]
                  : inline_.factsFor(graph, e,
                                     inline_.tupleFor(
                                         graph.edge(e).choiceCode));

        // Record the forced-signal vector for this cycle verbatim.
        out.cycles.push_back(table ? table->signals(facts.tuple)
                                   : inline_.signals(facts.tuple));
        out.instructions += facts.fetchCount;

        // Conflict-check constraint on the load in MEM.
        if (facts.conflictChecked && mem_hold >= 0 &&
            pending_store >= 0) {
            Skeleton &load = skeletons[mem_hold];
            if (!load.hasConstraint)
                ++stats_.constrainedLoads;
            load.hasConstraint = true;
            load.sameLine = facts.sameLine;
            load.storeRef = pending_store;
        }

        // Pending-store tracking (before the commit clears it).
        if (facts.storeIssued)
            pending_store = mem_hold;
        if (facts.storeCommit)
            pending_store = -1;

        // Branch resolution bookkeeping (the branch sits in EX).
        if (facts.exBranch && facts.advance && ex_hold >= 0)
            skeletons[ex_hold].branchTaken = facts.branchTaken;

        // Pipeline occupancy.
        if (facts.advance) {
            mem_hold = ex_hold;
            if (facts.branchTaken) {
                if (rd_hold >= 0) {
                    skeletons[rd_hold].squashed = true;
                    ++stats_.squashedPackets;
                }
                ex_hold = -1;
                rd_hold = -1;
            } else {
                ex_hold = rd_hold;
                if (facts.fetch) {
                    Skeleton skel;
                    skel.cls = facts.fetchClass;
                    skel.count = facts.fetchCount;
                    skel.seedHash = prefix_hash;
                    skeletons.push_back(skel);
                    rd_hold = static_cast<int>(skeletons.size()) - 1;
                } else {
                    rd_hold = -1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Pass 2: materialize concrete instructions. Everything the
    // control does not see is biased-random; load addresses honour
    // the recorded conflict constraints.
    // ------------------------------------------------------------------
    const uint32_t dmem_words = model_.config().machine.dmemWords;
    const uint32_t line_bytes = model_.config().lineWords * 4;

    auto random_addr = [&](Rng &r) -> uint32_t {
        return static_cast<uint32_t>(r.index(dmem_words)) * 4;
    };

    auto random_alu = [&](Rng &r) -> uint32_t {
        unsigned rd = 1 + static_cast<unsigned>(r.index(31));
        unsigned rs = static_cast<unsigned>(r.index(32));
        unsigned rt = static_cast<unsigned>(r.index(32));
        switch (r.index(8)) {
          case 0:
            return pp::encodeRType(pp::Funct::Add, rd, rs, rt);
          case 1:
            return pp::encodeRType(pp::Funct::Sub, rd, rs, rt);
          case 2:
            return pp::encodeRType(pp::Funct::Xor, rd, rs, rt);
          case 3:
            return pp::encodeRType(pp::Funct::Or, rd, rs, rt);
          case 4:
            return pp::encodeRType(pp::Funct::Slt, rd, rs, rt);
          case 5:
            return pp::encodeIType(
                pp::Opcode::Addi, rd, rs,
                static_cast<int16_t>(r.next() & 0xffff));
          case 6:
            return pp::encodeIType(
                pp::Opcode::Xori, rd, rs,
                static_cast<int16_t>(r.next() & 0x7fff));
          default:
            return pp::encodeRType(pp::Funct::Sll, rd, 0, rt,
                                   static_cast<unsigned>(
                                       r.index(32)));
        }
    };

    // Biased-random addressing: unconstrained loads occasionally
    // reuse the most recent store's address, so ordering bugs that
    // need an exact collision still get exercised.
    bool have_store_addr = false;
    uint32_t last_store_addr = 0;

    size_t fetch_words = 0, retired_words = 0;
    for (const Skeleton &skel : skeletons) {
        fetch_words += skel.count;
        retired_words += skel.squashed ? 0 : skel.count;
    }
    out.fetchStream.reserve(fetch_words);
    out.retiredStream.reserve(retired_words);

    for (Skeleton &skel : skeletons) {
        Rng r(skel.seedHash);
        uint32_t slot0 = 0;
        switch (skel.cls) {
          case InstrClass::Alu:
            slot0 = random_alu(r);
            break;
          case InstrClass::Load: {
            uint32_t addr;
            if (!skel.hasConstraint && have_store_addr &&
                r.chance(1, 8)) {
                addr = last_store_addr;
                skel.memAddr = addr;
                slot0 = pp::encodeLw(
                    1 + static_cast<unsigned>(r.index(31)), 0,
                    static_cast<int16_t>(addr));
                break;
            }
            if (skel.hasConstraint && skel.storeRef >= 0) {
                uint32_t store_addr =
                    skeletons[skel.storeRef].memAddr;
                if (skel.sameLine) {
                    // Mostly the exact word (makes stale-data bugs
                    // visible), sometimes elsewhere in the line.
                    if (r.chance(3, 4)) {
                        addr = store_addr;
                    } else {
                        addr = (store_addr & ~(line_bytes - 1)) +
                               static_cast<uint32_t>(r.index(
                                   model_.config().lineWords)) * 4;
                    }
                } else {
                    do {
                        addr = random_addr(r);
                    } while (addr / line_bytes ==
                             store_addr / line_bytes);
                }
            } else {
                addr = random_addr(r);
            }
            skel.memAddr = addr;
            slot0 = pp::encodeLw(
                1 + static_cast<unsigned>(r.index(31)), 0,
                static_cast<int16_t>(addr));
            break;
          }
          case InstrClass::Store: {
            uint32_t addr = random_addr(r);
            skel.memAddr = addr;
            have_store_addr = true;
            last_store_addr = addr;
            slot0 = pp::encodeSw(static_cast<unsigned>(r.index(32)),
                                 0, static_cast<int16_t>(addr));
            break;
          }
          case InstrClass::Switch:
            slot0 = pp::encodeSwitch(
                1 + static_cast<unsigned>(r.index(31)));
            break;
          case InstrClass::Send:
            slot0 = pp::encodeSend(
                static_cast<unsigned>(r.index(32)));
            break;
          case InstrClass::Branch:
            // The outcome is dictated by the tour: encode a branch
            // that always resolves the chosen way.
            slot0 = skel.branchTaken
                        ? pp::encodeBranch(pp::Opcode::Beq, 0, 0, 0)
                        : pp::encodeBranch(pp::Opcode::Bne, 0, 0, 0);
            break;
          default:
            panic("unexpected instruction class in skeleton");
        }

        out.fetchStream.push_back(slot0);
        uint32_t slot1 = 0;
        if (skel.count == 2) {
            slot1 = random_alu(r);
            out.fetchStream.push_back(slot1);
        }

        if (!skel.squashed) {
            out.retiredStream.push_back(slot0);
            if (skel.count == 2)
                out.retiredStream.push_back(slot1);
            if (skel.cls == InstrClass::Switch) {
                out.inbox.push_back(
                    static_cast<uint32_t>(r.next()));
            }
        }
    }

    if (out.instructions != trace.instructions) {
        panic(formatString(
            "vector generator instruction accounting mismatch: "
            "%llu generated vs %llu in the tour",
            static_cast<unsigned long long>(out.instructions),
            static_cast<unsigned long long>(trace.instructions)));
    }

    ++stats_.traces;
    stats_.cycles += out.cycles.size();
    stats_.instructions += out.instructions;
    return out;
}

std::string
VectorGenerator::renderForceScript(const TestTrace &trace) const
{
    const auto &vars = model_.choiceVars();
    std::string script;
    script += formatString(
        "// trace %zu: %zu cycles, %llu instructions, %zu fetch "
        "words\n",
        trace.traceIndex, trace.cycles.size(),
        static_cast<unsigned long long>(trace.instructions),
        trace.fetchStream.size());
    script += "initial begin\n";
    size_t fetch_pos = 0;
    for (size_t cycle = 0; cycle < trace.cycles.size(); ++cycle) {
        const auto &signals = trace.cycles[cycle];
        script += formatString("  @cycle_%zu;", cycle);
        for (size_t v = 0; v < vars.size(); ++v) {
            if (vars[v].cardinality > 1) {
                script += formatString(
                    " force %s = %u;", vars[v].name.c_str(),
                    static_cast<unsigned>(signals[v]));
            }
        }
        // Annotate the instruction entering on a fetch cycle.
        // ihit is canonical: non-zero only on cycles where the
        // control fetched, so it marks instruction consumption.
        uint32_t ihit = signals[varIndex(PpChoiceVar::IHit)];
        if (ihit && fetch_pos < trace.fetchStream.size()) {
            script += formatString(
                " // fetch %s",
                pp::decode(trace.fetchStream[fetch_pos])
                    .toString()
                    .c_str());
            fetch_pos += 1 + signals[varIndex(PpChoiceVar::Dual)];
        }
        script += "\n";
    }
    script += "  release_all;\nend\n";
    return script;
}

} // namespace archval::vecgen
