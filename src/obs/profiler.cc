/**
 * @file
 * Profiler implementation: session lifecycle, slot aggregation, the
 * TSC calibration, the folded-stack exporter and the verdict line.
 */

#include "obs/profiler.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "util/run_token.hh"

namespace slacksim::obs {

namespace {

thread_local struct
{
    std::uint64_t epoch = 0;
    Profiler::Slot *slot = nullptr;
} boundSlotTls;

/** Mix a packed path key into a table index. */
inline std::size_t
pathHash(std::uint64_t key)
{
    key *= 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(key >> 58);
}

/** Decode a packed path key into "outer;inner" phase names. */
std::string
pathName(std::uint64_t key)
{
    std::string name;
    for (std::size_t level = 0; level < Profiler::maxDepth; ++level) {
        const std::uint8_t v = static_cast<std::uint8_t>(key >> (8 * level));
        if (v == 0)
            break;
        if (!name.empty())
            name += ';';
        name += phaseName(static_cast<Phase>(v - 1));
    }
    return name;
}

/** Leaf (innermost) phase of a packed path key. */
Phase
pathLeaf(std::uint64_t key)
{
    std::uint8_t leaf = static_cast<std::uint8_t>(key);
    for (std::size_t level = 1; level < Profiler::maxDepth; ++level) {
        const std::uint8_t v = static_cast<std::uint8_t>(key >> (8 * level));
        if (v == 0)
            break;
        leaf = v;
    }
    return static_cast<Phase>(leaf - 1);
}

/** The phase total a path's time counts toward: markers count toward
 *  the phase they refine. */
Phase
totalPhase(Phase leaf)
{
    return leaf == Phase::InlineWindow ? Phase::Barrier : leaf;
}

/** Record @p ticks of exclusive time under @p key in a slot's table. */
void
addPath(Profiler::Slot *slot, std::uint64_t key, std::uint64_t ticks)
{
    std::size_t idx = pathHash(key) & (Profiler::maxPaths - 1);
    for (std::size_t probe = 0; probe < Profiler::maxPaths; ++probe) {
        Profiler::PathStat &p = slot->paths[idx];
        if (p.key == key) {
            p.ticks += ticks;
            ++p.count;
            return;
        }
        if (p.key == 0) {
            p.key = key;
            p.ticks = ticks;
            p.count = 1;
            return;
        }
        idx = (idx + 1) & (Profiler::maxPaths - 1);
    }
    ++slot->droppedPaths;
}

/** Close the innermost frame as if its scope exited at @p now. */
void
exitAt(Profiler::Slot *slot, std::uint64_t now)
{
    if (slot->depth == 0)
        return; // unbalanced exit: tolerate rather than corrupt
    if (slot->depth > Profiler::maxDepth) {
        --slot->depth;
        return;
    }
    --slot->depth;
    Profiler::Slot::Frame &f = slot->stack[slot->depth];
    const std::uint64_t total =
        now >= f.startTicks ? now - f.startTicks : 0;
    const std::uint64_t excl =
        total >= f.childTicks ? total - f.childTicks : 0;
    addPath(slot, slot->pathKey, excl);
    slot->pathKey &= ~(std::uint64_t{0xff} << (8 * slot->depth));
    if (slot->depth > 0) {
        slot->stack[slot->depth - 1].childTicks += total;
        slot->current.store(
            static_cast<std::uint8_t>(
                slot->stack[slot->depth - 1].phase + 1),
            std::memory_order_relaxed);
    } else {
        slot->current.store(0, std::memory_order_relaxed);
    }
}

} // namespace

std::uint64_t
profTsc()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
    std::uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::Simulate:
        return "simulate";
      case Phase::QueuePush:
        return "queue-push";
      case Phase::WaitSlack:
        return "wait-for-slack";
      case Phase::WaitInbound:
        return "wait-inbound";
      case Phase::Barrier:
        return "barrier";
      case Phase::Checkpoint:
        return "checkpoint";
      case Phase::RollbackReplay:
        return "rollback-replay";
      case Phase::Drain:
        return "drain";
      case Phase::PacerEpoch:
        return "pacer-epoch";
      case Phase::Sample:
        return "sample";
      case Phase::InlineWindow:
        return "inline-window";
    }
    return "unknown";
}

std::uint64_t
ProfileReport::attributedNs() const
{
    std::uint64_t sum = 0;
    for (const PhaseTotal &t : phaseTotals) {
        if (t.name != "other")
            sum += t.ns;
    }
    return sum;
}

bool
Profiler::beginSession()
{
    std::lock_guard<std::mutex> lk(registryMutex_);
    if (epoch_.load(std::memory_order_relaxed) != 0)
        return false;
    slots_.clear();
    ownerToken_ = currentRunToken();
    t0_ = std::chrono::steady_clock::now();
    t0Ticks_ = profTsc();
    epoch_.store(++nextEpoch_, std::memory_order_release);
    return true;
}

void
Profiler::registerThread(const std::string &role)
{
    if (!active())
        return;
    std::lock_guard<std::mutex> lk(registryMutex_);
    const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    if (epoch == 0)
        return;
    // Multi-tenant gate (same rule as Tracer::registerThread): only
    // threads of the run that owns the session may bind a slot; owner
    // token 0 = session opened outside any run, accepts everyone.
    if (ownerToken_ != 0 && currentRunToken() != ownerToken_)
        return;
    auto slot = std::make_unique<Slot>();
    slot->role = role;
    slot->tid = static_cast<std::uint32_t>(slots_.size());
    slot->startTicks = profTsc();
    boundSlotTls.epoch = epoch;
    boundSlotTls.slot = slot.get();
    slots_.push_back(std::move(slot));
}

void
Profiler::unregisterThread()
{
    Slot *slot = boundSlot();
    boundSlotTls.slot = nullptr;
    boundSlotTls.epoch = 0;
    if (!slot)
        return;
    closeSlot(*slot, profTsc());
}

Profiler::Slot *
Profiler::boundSlot() const
{
    if (boundSlotTls.slot == nullptr ||
        boundSlotTls.epoch != epoch_.load(std::memory_order_relaxed)) {
        return nullptr;
    }
    return boundSlotTls.slot;
}

void
Profiler::enter(Slot *slot, Phase p)
{
    if (slot->depth >= maxDepth) {
        ++slot->truncated;
        ++slot->depth;
        return;
    }
    Slot::Frame &f = slot->stack[slot->depth];
    f.phase = static_cast<std::uint8_t>(p);
    f.startTicks = profTsc();
    f.childTicks = 0;
    slot->pathKey |= (std::uint64_t{f.phase} + 1) << (8 * slot->depth);
    ++slot->depth;
    slot->current.store(static_cast<std::uint8_t>(f.phase + 1),
                        std::memory_order_relaxed);
}

void
Profiler::exit(Slot *slot)
{
    exitAt(slot, profTsc());
}

void
Profiler::closeSlot(Slot &slot, std::uint64_t now_ticks)
{
    if (slot.endTicks != 0)
        return;
    // Unwind any frames a panic left open so their time is counted.
    while (slot.depth > 0)
        exitAt(&slot, now_ticks);
    slot.endTicks = now_ticks;
    slot.current.store(0, std::memory_order_relaxed);
}

const char *
Profiler::currentPhaseOfRole(const std::string &role) const
{
    if (!active())
        return nullptr;
    std::lock_guard<std::mutex> lk(registryMutex_);
    // Scan newest-first: a role re-registered in this session (not
    // normal, but cheap to be right about) resolves to the live slot.
    for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
        if ((*it)->role != role)
            continue;
        const std::uint8_t cur =
            (*it)->current.load(std::memory_order_relaxed);
        return cur == 0 ? "idle"
                        : phaseName(static_cast<Phase>(cur - 1));
    }
    return nullptr;
}

ProfileReport
Profiler::endSession()
{
    ProfileReport report;
    // Disarm the hot path first so no new scopes open while slots are
    // aggregated; worker threads have already joined (engine
    // contract), so only the calling thread's slot can still be open.
    const std::uint64_t now_ticks = profTsc();
    const auto now = std::chrono::steady_clock::now();
    if (epoch_.load(std::memory_order_relaxed) == 0)
        return report;
    epoch_.store(0, std::memory_order_release);
    boundSlotTls.slot = nullptr;
    boundSlotTls.epoch = 0;

    std::lock_guard<std::mutex> lk(registryMutex_);
    const std::uint64_t wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - t0_)
            .count());
    const std::uint64_t dticks =
        now_ticks > t0Ticks_ ? now_ticks - t0Ticks_ : 1;
    // Post-hoc calibration across the whole session: far more stable
    // than a warmup spin, and it is exactly the conversion that makes
    // "phase totals sum to wall time" checkable against steady_clock.
    const double ns_per_tick =
        static_cast<double>(wall_ns) / static_cast<double>(dticks);
    report.enabled = true;
    report.wallNs = wall_ns;
    report.tscGhz = ns_per_tick > 0.0 ? 1.0 / ns_per_tick : 0.0;

    const auto to_ns = [ns_per_tick](std::uint64_t ticks) {
        return static_cast<std::uint64_t>(
            static_cast<double>(ticks) * ns_per_tick);
    };

    std::uint64_t phase_ticks[numPhases] = {};
    std::uint64_t phase_count[numPhases] = {};
    std::uint64_t other_ns = 0;
    std::uint64_t window_ticks = 0;
    for (const auto &slot_ptr : slots_) {
        Slot &slot = *slot_ptr;
        closeSlot(slot, now_ticks);

        ProfileWorker w;
        w.role = slot.role;
        w.tid = slot.tid;
        const std::uint64_t span_ticks =
            slot.endTicks > slot.startTicks
                ? slot.endTicks - slot.startTicks
                : 0;
        w.spanNs = to_ns(span_ticks);
        w.truncated = slot.truncated;
        w.droppedPaths = slot.droppedPaths;

        std::uint64_t w_phase_ticks[numPhases] = {};
        std::uint64_t w_phase_count[numPhases] = {};
        std::vector<const PathStat *> used;
        for (const PathStat &p : slot.paths) {
            if (p.key != 0)
                used.push_back(&p);
        }
        std::sort(used.begin(), used.end(),
                  [](const PathStat *a, const PathStat *b) {
                      return a->key < b->key;
                  });
        for (const PathStat *p : used) {
            const Phase leaf = pathLeaf(p->key);
            if (leaf == Phase::InlineWindow)
                window_ticks += p->ticks;
            const std::size_t total =
                static_cast<std::size_t>(totalPhase(leaf));
            w_phase_ticks[total] += p->ticks;
            w_phase_count[total] += p->count;
            w.paths.push_back({pathName(p->key), to_ns(p->ticks),
                               p->count});
        }
        // Sum attributed time over the *converted* per-phase values so
        // attributed + other == span holds exactly in ns, not just in
        // ticks (independent floor conversions would drift a few ns).
        std::uint64_t attributed_ns = 0;
        for (std::size_t i = 0; i < numPhases; ++i) {
            const std::uint64_t ns = to_ns(w_phase_ticks[i]);
            w.phases.push_back({phaseName(static_cast<Phase>(i)), ns,
                                w_phase_count[i]});
            attributed_ns += ns;
            phase_ticks[i] += w_phase_ticks[i];
            phase_count[i] += w_phase_count[i];
        }
        w.otherNs =
            w.spanNs > attributed_ns ? w.spanNs - attributed_ns : 0;
        other_ns += w.otherNs;
        report.workers.push_back(std::move(w));
    }
    for (std::size_t i = 0; i < numPhases; ++i) {
        report.phaseTotals.push_back({phaseName(static_cast<Phase>(i)),
                                      to_ns(phase_ticks[i]),
                                      phase_count[i]});
    }
    report.phaseTotals.push_back({"other", other_ns, 0});
    report.inlineWindowNs = to_ns(window_ticks);
    report.verdict = profileVerdict(report);
    slots_.clear();
    return report;
}

std::string
profileVerdict(const ProfileReport &report)
{
    // Workers parked through a manager-driven window are not a
    // bottleneck: the manager does their cores' work meanwhile. Take
    // that time out of the barrier total before ranking.
    const char *barrier = phaseName(Phase::Barrier);
    std::vector<PhaseTotal> totals = report.phaseTotals;
    std::uint64_t total = 0;
    for (PhaseTotal &t : totals) {
        if (t.name == barrier)
            t.ns -= std::min(t.ns, report.inlineWindowNs);
        total += t.ns;
    }
    if (total == 0)
        return "no host time attributed";

    // Rank by time; "other" competes like any phase so an untracked
    // sink is called out instead of hidden.
    std::vector<const PhaseTotal *> ranked;
    for (const PhaseTotal &t : totals)
        ranked.push_back(&t);
    std::sort(ranked.begin(), ranked.end(),
              [](const PhaseTotal *a, const PhaseTotal *b) {
                  return a->ns > b->ns;
              });
    const auto pct = [total](std::uint64_t ns) {
        return 100.0 * static_cast<double>(ns) /
               static_cast<double>(total);
    };
    char buf[256];
    const PhaseTotal &top = *ranked[0];
    const PhaseTotal &next = *ranked[1];
    int len;
    if (top.name == "simulate") {
        len = std::snprintf(buf, sizeof(buf),
                            "simulate-bound: %.1f%% of host time in "
                            "simulate (next: %s %.1f%%)",
                            pct(top.ns), next.name.c_str(),
                            pct(next.ns));
    } else {
        len = std::snprintf(buf, sizeof(buf),
                            "bottleneck: %s %.1f%% of host time "
                            "(simulate %.1f%%)",
                            top.name.c_str(), pct(top.ns),
                            pct([&totals] {
                                for (const PhaseTotal &t : totals)
                                    if (t.name == "simulate")
                                        return t.ns;
                                return std::uint64_t{0};
                            }()));
    }
    if (report.inlineWindowNs > 0 && len > 0 &&
        static_cast<std::size_t>(len) < sizeof(buf)) {
        std::snprintf(buf + len, sizeof(buf) - len,
                      "; excludes %.3f s of workers parked through "
                      "manager-driven windows",
                      static_cast<double>(report.inlineWindowNs) * 1e-9);
    }
    return buf;
}

void
writeFoldedStacks(std::ostream &os, const ProfileReport &report)
{
    // Collapsed-stack format: frames joined by ';', one trailing
    // space, an integer count. flamegraph.pl and speedscope both
    // split on the *last* space, so spaces inside role names are
    // fine; ';' inside a role would split a frame, so it is mapped.
    const auto safeRole = [](std::string role) {
        std::replace(role.begin(), role.end(), ';', ':');
        return role;
    };
    for (const ProfileWorker &w : report.workers) {
        const std::string role = safeRole(w.role);
        for (const PhaseTotal &p : w.paths) {
            if (p.ns / 1000 == 0)
                continue; // sub-microsecond paths: noise
            os << role << ';' << p.name << ' ' << p.ns / 1000 << '\n';
        }
        if (w.otherNs / 1000 != 0)
            os << role << ";other " << w.otherNs / 1000 << '\n';
    }
}

} // namespace slacksim::obs
