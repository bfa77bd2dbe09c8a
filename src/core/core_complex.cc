/**
 * @file
 * CoreComplex implementation.
 */

#include "core/core_complex.hh"

#include <algorithm>

#include "util/logging.hh"

namespace slacksim {

CoreComplex::CoreComplex(const SimConfig &config, CoreId id,
                         const TraceProgram *trace, Addr code_base)
    : id_(id),
      l1d_(config.target.l1d, id, &stats_),
      l1i_(config.target.l1i, id, &stats_),
      core_(config.target.core, id, trace, &l1d_, &l1i_, &stats_,
            code_base),
      outQ_(config.engine.queueCapacity),
      inQ_(config.engine.queueCapacity)
{
    scratch_.reserve(32);
}

CoreComplex::CycleOutcome
CoreComplex::cycle(Tick max_local, std::uint32_t skip_budget)
{
    if (skip_budget == 0)
        skip_budget = 1;
    if (finished())
        return CycleOutcome::Progress;
    // Reserve space for the worst-case message volume of one cycle so
    // the cycle never has to abort halfway through.
    if (!outQ_.hasFreeSpace(outboundHeadroom))
        return CycleOutcome::Backpressure;

    const Tick now = localTime_.load(std::memory_order_relaxed);
    const BusMsg *head = inQ_.front();
    bool progressed = false;
    if (memoValid_ && (!head || head->ts > now) &&
        core_.earliestSelfWake() > now) {
        // Nothing the previous pipeline cycle saw has changed: it
        // would repeat exactly, so replay what it wrote.
        stats_.add(memoDelta_);
        if (memoFetchHit_)
            l1i_.retouchMru();
        ++inertCycles_;
    } else {
        // Apply inbound messages that have become visible at this
        // local time. The head may carry a future timestamp; it then
        // waits (later entries wait behind it — a slack-induced
        // distortion the simulation tolerates by design).
        std::uint32_t applied = 0;
        while (applied < inboundPerCycle && head && head->ts <= now) {
            core_.handleInbound(*head, now, scratch_);
            inQ_.popFront();
            ++applied;
            head = inQ_.front();
        }

        const CoreStats stats0 = stats_;
        const std::uint32_t l1i_clock0 = l1i_.lruClock();
        const std::uint32_t l1d_clock0 = l1d_.lruClock();
        memoValid_ = !core_.cycle(now, scratch_);
        progressed = !memoValid_ || applied > 0;
        if (memoValid_) {
            // An inert cycle changes no pipeline state; it only bumps
            // stall/hit counters and re-stamps the line its fetch
            // probe hit (the L1D is touched only by progress).
            memoDelta_ = stats_;
            memoDelta_.subtract(stats0);
            memoFetchHit_ = l1i_.lruClock() != l1i_clock0;
            SLACKSIM_ASSERT(l1i_.lruClock() - l1i_clock0 <= 1 &&
                                l1d_.lruClock() == l1d_clock0,
                            "inert cycle touched the L1s");
        }

        if (!scratch_.empty()) {
            for (BusMsg &msg : scratch_) {
                msg.src = id_;
                msg.ts = now;
                msg.seq = nextSeq_++;
            }
            // One batched publication for the whole cycle's messages.
            const std::size_t pushed =
                outQ_.pushN(scratch_.data(), scratch_.size());
            SLACKSIM_ASSERT(pushed == scratch_.size(),
                            "OutQ overflow despite headroom check");
            scratch_.clear();
        }
    }

    Tick next = now + 1;
    if (!progressed && !finished()) {
        // The core is inert: identical behavior every cycle until the
        // earliest of (a) an already-scheduled internal completion,
        // (b) the InQ head becoming applicable, (c) the pacing limit.
        Tick target = core_.earliestSelfWake();
        if (const BusMsg *first = inQ_.front())
            target = std::min(target, first->ts);
        if (target == maxTick) {
            // Only a future delivery can wake the core. With pacing
            // headroom we bulk-skip the stall cycles up to the limit;
            // a free-running (unbounded) core instead freezes until
            // the manager delivers something.
            if (max_local >= maxTick - 1)
                return CycleOutcome::WaitInbound;
            target = max_local + 1;
        }
        if (target > next) {
            next = std::min({target, max_local + 1,
                             now + static_cast<Tick>(skip_budget)});
            if (next <= now)
                return CycleOutcome::WaitInbound; // no headroom left
            stats_.idleCycles += next - (now + 1);
        }
    }

    // Publish the new local time only after the cycle's messages are
    // in the queue: once the manager observes localTime > T it may
    // assume every event of cycle T is visible.
    localTime_.store(next, std::memory_order_release);
    return CycleOutcome::Progress;
}

void
CoreComplex::save(SnapshotWriter &writer) const
{
    writer.putMarker(0xcc01);
    writer.put(stats_);
    l1d_.save(writer);
    l1i_.save(writer);
    core_.save(writer);
    writer.putVector(outQ_.quiescedContents());
    writer.putVector(inQ_.quiescedContents());
    writer.put(nextSeq_);
    writer.put(localTime_.load(std::memory_order_acquire));
}

void
CoreComplex::restore(SnapshotReader &reader)
{
    reader.checkMarker(0xcc01);
    stats_ = reader.get<CoreStats>();
    l1d_.restore(reader);
    l1i_.restore(reader);
    core_.restore(reader);
    outQ_.quiescedAssign(reader.getVector<BusMsg>());
    inQ_.quiescedAssign(reader.getVector<BusMsg>());
    nextSeq_ = reader.get<SeqNum>();
    localTime_.store(reader.get<Tick>(), std::memory_order_release);
    scratch_.clear();
    memoValid_ = false;
}

} // namespace slacksim
