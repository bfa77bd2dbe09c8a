/**
 * @file
 * The manager thread's global cache status map: for every line ever
 * cached it tracks which cores hold it in their L1 D/I caches and
 * which (if any) core owns it modified. This is the "cache status map
 * maintained in the simulation manager thread" whose out-of-order
 * transitions are counted as *map violations* in the paper.
 */

#ifndef SLACKSIM_UNCORE_GLOBAL_MAP_HH
#define SLACKSIM_UNCORE_GLOBAL_MAP_HH

#include <cstdint>
#include <unordered_map>

#include "util/snapshot.hh"
#include "util/types.hh"

namespace slacksim {

/** Global (manager-side) state of one cached line. */
struct MapEntry
{
    std::uint64_t dSharers = 0; //!< bitmask of cores with a D copy
    std::uint64_t iSharers = 0; //!< bitmask of cores with an I copy
    CoreId owner = invalidCore; //!< core holding the line Modified
    CoreId lastTouch = invalidCore; //!< core that last advanced the
                                    //!< monitor (forensics attribution)
    Tick monitorTs = 0;         //!< violation-detection monitor

    bool
    empty() const
    {
        return dSharers == 0 && iSharers == 0 && owner == invalidCore;
    }
};

/**
 * The global cache status map. save() serializes the entries in
 * sorted address order, so identical logical states produce
 * identical snapshot bytes however the hash map was built.
 */
class GlobalCacheMap : public Snapshotable
{
  public:
    /** @return the entry for @p line, creating it when absent. */
    MapEntry &entry(Addr line);

    /** @return the entry for @p line or nullptr. */
    const MapEntry *find(Addr line) const;

    /** Drop an entry that became empty. */
    void eraseIfEmpty(Addr line);

    /** @return number of tracked lines. */
    std::size_t size() const { return map_.size(); }

    /**
     * Record a transition for violation detection: returns true when
     * @p ts is older than the line's monitoring timestamp (i.e. this
     * is a map violation), else advances the monitor and remembers
     * @p src as the last in-order toucher. A violating access leaves
     * both the monitor and the attribution untouched — the violator
     * did not win the line.
     */
    bool
    recordTransition(MapEntry &e, Tick ts, CoreId src)
    {
        if (ts < e.monitorTs)
            return true;
        e.monitorTs = ts;
        e.lastTouch = src;
        return false;
    }

    /**
     * Invariant check for tests: an owned line has no other sharers
     * in any D cache and the owner bit set.
     */
    void checkInvariants() const;

    void save(SnapshotWriter &writer) const override;
    void restore(SnapshotReader &reader) override;

  private:
    std::unordered_map<Addr, MapEntry> map_;
};

} // namespace slacksim

#endif // SLACKSIM_UNCORE_GLOBAL_MAP_HH
