#include "corpus.hh"

#include <algorithm>

#include "support/status.hh"

namespace archval::fuzz
{

std::optional<size_t>
Corpus::add(Candidate candidate, uint64_t energy, uint64_t new_arcs,
            bool new_state)
{
    CorpusEntry entry;
    entry.candidate =
        std::make_shared<const Candidate>(std::move(candidate));
    entry.energy = energy;
    entry.newArcs = new_arcs;
    entry.newState = new_state;
    return adopt(entry);
}

std::optional<size_t>
Corpus::adopt(const CorpusEntry &entry)
{
    entries_.push_back(entry);
    entries_.back().energy = std::max<uint64_t>(entry.energy, 1);
    const size_t index = entries_.size() - 1;
    if (maxEntries_ && entries_.size() > maxEntries_ &&
        evictOne() == index)
        return std::nullopt;
    return entries_.size() - 1;
}

size_t
Corpus::pick(Rng &rng)
{
    if (entries_.empty())
        panic("Corpus::pick on empty corpus");
    uint64_t total = 0;
    for (const CorpusEntry &entry : entries_)
        total += entry.energy;
    uint64_t draw = rng.below(total);
    for (size_t i = 0; i < entries_.size(); ++i) {
        if (draw < entries_[i].energy) {
            entries_[i].energy =
                std::max<uint64_t>(entries_[i].energy / 2, 1);
            return i;
        }
        draw -= entries_[i].energy;
    }
    return entries_.size() - 1; // unreachable
}

size_t
Corpus::evictOne()
{
    size_t victim = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].energy < entries_[victim].energy)
            victim = i;
    }
    entries_.erase(entries_.begin() + victim);
    return victim;
}

} // namespace archval::fuzz
