#include "coverage.hh"

#include <bit>

#include "support/status.hh"

namespace archval::harness
{

CoverageTracker::CoverageTracker(const graph::StateGraph &graph)
    : graph_(graph), words_((graph.numEdges() + 63) / 64, 0)
{
}

void
CoverageTracker::addEdge(graph::EdgeId edge, uint32_t instr_count)
{
    uint64_t &word = words_[edge / 64];
    const uint64_t bit = uint64_t{1} << (edge % 64);
    if (!(word & bit)) {
        word |= bit;
        ++coveredCount_;
    }
    instructions_ += instr_count;
    ++cycles_;
}

void
CoverageTracker::addTrace(const graph::Trace &trace)
{
    for (graph::EdgeId e : trace.edges)
        addEdge(e, graph_.edge(e).instrCount);
}

void
CoverageTracker::samplePoint()
{
    curve_.push_back({instructions_, cycles_, coveredCount_});
}

void
CoverageTracker::merge(const CoverageTracker &other)
{
    if (graph_.numEdges() != other.graph_.numEdges())
        fatal("CoverageTracker::merge: trackers observe different "
              "graphs");
    for (size_t i = 0; i < words_.size(); ++i) {
        const uint64_t added = other.words_[i] & ~words_[i];
        if (added) {
            words_[i] |= added;
            coveredCount_ += static_cast<uint64_t>(std::popcount(added));
        }
    }
    instructions_ += other.instructions_;
    cycles_ += other.cycles_;
}

void
CoverageTracker::reset()
{
    words_.assign(words_.size(), 0);
    coveredCount_ = 0;
    instructions_ = 0;
    cycles_ = 0;
    curve_.clear();
}

double
CoverageTracker::fraction() const
{
    return graph_.numEdges()
               ? double(coveredCount_) / double(graph_.numEdges())
               : 0.0;
}

} // namespace archval::harness
