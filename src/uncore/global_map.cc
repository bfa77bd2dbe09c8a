/**
 * @file
 * GlobalCacheMap implementation.
 */

#include "uncore/global_map.hh"

#include <algorithm>
#include <vector>

#include "util/logging.hh"

namespace slacksim {

MapEntry &
GlobalCacheMap::entry(Addr line)
{
    return map_[line];
}

const MapEntry *
GlobalCacheMap::find(Addr line) const
{
    auto it = map_.find(line);
    return it == map_.end() ? nullptr : &it->second;
}

void
GlobalCacheMap::eraseIfEmpty(Addr line)
{
    auto it = map_.find(line);
    if (it != map_.end() && it->second.empty())
        map_.erase(it);
}

void
GlobalCacheMap::checkInvariants() const
{
    for (const auto &[line, e] : map_) {
        if (e.owner != invalidCore) {
            const std::uint64_t owner_bit = 1ull << e.owner;
            SLACKSIM_ASSERT((e.dSharers & ~owner_bit) == 0,
                            "owned line ", line,
                            " has foreign D sharers");
            SLACKSIM_ASSERT((e.dSharers & owner_bit) != 0,
                            "owner of line ", line,
                            " missing from sharer mask");
        }
    }
}

void
GlobalCacheMap::save(SnapshotWriter &writer) const
{
    writer.putMarker(0x6d41);
    // Serialize in sorted address order so identical logical states
    // always produce identical snapshot bytes across unordered_map
    // rebuilds. One gather: each line travels with a pointer to its
    // entry, so the sort compares inline keys and the write needs no
    // second lookup.
    struct Slot
    {
        Addr line;
        const MapEntry *entry;
    };
    std::vector<Slot> slots;
    slots.reserve(map_.size());
    for (const auto &[line, e] : map_)
        slots.push_back({line, &e});
    std::sort(slots.begin(), slots.end(), [](const Slot &a, const Slot &b) {
        return a.line < b.line;
    });
    writer.put<std::uint64_t>(slots.size());
    for (const Slot &slot : slots) {
        writer.put(slot.line);
        writer.put(*slot.entry);
    }
}

void
GlobalCacheMap::restore(SnapshotReader &reader)
{
    reader.checkMarker(0x6d41);
    const auto count = reader.get<std::uint64_t>();
    map_.clear();
    map_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const Addr line = reader.get<Addr>();
        map_[line] = reader.get<MapEntry>();
    }
}

} // namespace slacksim
