/**
 * @file
 * Process-wide event tracer: a registry of per-thread lock-free
 * record rings plus the inline emit helpers the engines and models
 * call from their hot paths.
 *
 * Hot-path contract: emitting a record is one relaxed epoch load, a
 * thread-local pointer check, a steady_clock read and an SPSC push —
 * no mutexes anywhere. When no trace is active the helpers return
 * after the first load; when the library is built with
 * -DSLACKSIM_OBS_DISABLED they compile to nothing at all.
 *
 * Thread registration (cold path, mutex-guarded) binds the calling
 * thread to a fresh ring and a role label ("core 3", "manager",
 * "worker 0") used by the Chrome-trace exporter as the track name.
 * Sessions are epoch-numbered so a record emitted by a thread that
 * never re-registered after a previous run cannot touch a stale ring.
 */

#ifndef SLACKSIM_OBS_TRACER_HH
#define SLACKSIM_OBS_TRACER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace_buffer.hh"
#include "obs/trace_event.hh"

namespace slacksim::obs {

/** Everything drained from one registered thread. */
struct ThreadTrace
{
    std::string role;      //!< registration label ("core 3", ...)
    std::uint32_t tid = 0; //!< registration order, 0 = first
    std::uint64_t dropped = 0; //!< overflow-dropped record count
    std::vector<TraceRecord> records; //!< ring order (per-thread FIFO)
};

/** The global tracer registry. */
class Tracer
{
  public:
    /** Inline so the inactive hot path never leaves the caller. */
    static Tracer &
    instance()
    {
        static Tracer tracer;
        return tracer;
    }

    /**
     * Start a trace session: clears previous state and arms the emit
     * helpers. Call from the manager thread before worker threads
     * spawn. @param ring_kb per-thread ring size in KiB.
     * @return false when another session is already active (only one
     * trace session per process; the caller should skip tracing).
     */
    bool activate(std::uint32_t ring_kb);

    /** Stop the session; emit helpers become no-ops again. */
    void deactivate();

    /** @return true while a session is active (relaxed). */
    bool
    active() const
    {
        return epoch_.load(std::memory_order_relaxed) != 0;
    }

    /**
     * Bind the calling thread to a fresh ring under @p role. No-op
     * when no session is active. Safe to call on every run: the
     * binding of a previous session is replaced.
     */
    void registerThread(const std::string &role);

    /** Drop the calling thread's binding (thread exit). */
    void unregisterThread();

    /** Producer hot path: emit one record on the calling thread. */
    void
    emit(TraceCategory cat, TraceType type, const char *name,
         Tick cycle, std::int64_t arg = 0, std::int64_t arg2 = 0)
    {
        if (!active()) // inline early-out: no call when tracing is off
            return;
        TraceRing *ring = boundRing();
        if (!ring)
            return;
        emitAt(ring, wallNowNs(), cat, type, name, cycle, arg, arg2);
    }

    /** Like emit() but with an explicit wall timestamp (retroactive
     *  span begins captured via wallNowNs() before a block ran). */
    void
    emitAt(std::uint64_t wall_ns, TraceCategory cat, TraceType type,
           const char *name, Tick cycle, std::int64_t arg = 0,
           std::int64_t arg2 = 0)
    {
        if (!active())
            return;
        TraceRing *ring = boundRing();
        if (!ring)
            return;
        emitAt(ring, wall_ns, cat, type, name, cycle, arg, arg2);
    }

    /** @return ns since activation, or 0 when no session is active. */
    std::uint64_t
    wallNowNs() const
    {
        if (!active())
            return 0;
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0_)
                .count());
    }

    /**
     * Consumer side (manager thread / post-run): move every visible
     * record of every ring into the session accumulator. Safe while
     * producers are still running (SPSC protocol). @return records
     * moved by this call.
     */
    std::size_t collect();

    /** collect(), then @return the accumulated per-thread traces.
     *  Leaves the accumulator empty. */
    std::vector<ThreadTrace> takeTraces();

    /** @return total records dropped across all rings so far. */
    std::uint64_t droppedTotal() const;

  private:
    Tracer() = default;

    struct Slot
    {
        std::string role;
        std::uint32_t tid = 0;
        std::unique_ptr<TraceRing> ring;
        std::vector<TraceRecord> collected;
    };

    /** @return the calling thread's ring for the current session,
     *  or nullptr when tracing is off / the thread is unbound. */
    TraceRing *boundRing() const;

    static void
    emitAt(TraceRing *ring, std::uint64_t wall_ns, TraceCategory cat,
           TraceType type, const char *name, Tick cycle,
           std::int64_t arg, std::int64_t arg2)
    {
        TraceRecord rec;
        rec.wallNs = wall_ns;
        rec.cycle = cycle;
        rec.name = name;
        rec.arg = arg;
        rec.arg2 = arg2;
        rec.type = type;
        rec.category = cat;
        ring->push(rec);
    }

    std::atomic<std::uint64_t> epoch_{0}; //!< 0 = inactive
    std::uint64_t nextEpoch_ = 0;
    /** Run token that owns the session (0: not owned by any run —
     *  every thread may register, the single-tenant behavior). */
    std::uint64_t ownerToken_ = 0;
    std::uint32_t ringKb_ = 1024;
    std::chrono::steady_clock::time_point t0_{};

    mutable std::mutex registryMutex_; //!< guards slots_ (cold path)
    std::vector<std::unique_ptr<Slot>> slots_;
};

/** @return true when trace emission is currently armed. */
inline bool
traceActive()
{
#ifdef SLACKSIM_OBS_DISABLED
    return false;
#else
    return Tracer::instance().active();
#endif
}

#ifdef SLACKSIM_OBS_DISABLED

inline void traceBegin(TraceCategory, const char *, Tick,
                       std::int64_t = 0) {}
inline void traceEnd(TraceCategory, const char *, Tick,
                     std::int64_t = 0) {}
inline void traceInstant(TraceCategory, const char *, Tick,
                         std::int64_t = 0, std::int64_t = 0) {}
inline void traceCounter(TraceCategory, const char *, Tick,
                         std::int64_t) {}
inline std::uint64_t traceWallNs() { return 0; }
inline void traceSpanAt(std::uint64_t, TraceCategory, const char *,
                        Tick, Tick, std::int64_t = 0) {}

#else

/** Open a span on the calling thread's track. */
inline void
traceBegin(TraceCategory cat, const char *name, Tick cycle,
           std::int64_t arg = 0)
{
    Tracer::instance().emit(cat, TraceType::Begin, name, cycle, arg);
}

/** Close the innermost span of @p name on this thread's track. */
inline void
traceEnd(TraceCategory cat, const char *name, Tick cycle,
         std::int64_t arg = 0)
{
    Tracer::instance().emit(cat, TraceType::End, name, cycle, arg);
}

/** Emit a point event. */
inline void
traceInstant(TraceCategory cat, const char *name, Tick cycle,
             std::int64_t arg = 0, std::int64_t arg2 = 0)
{
    Tracer::instance().emit(cat, TraceType::Instant, name, cycle, arg,
                            arg2);
}

/** Emit a counter sample. */
inline void
traceCounter(TraceCategory cat, const char *name, Tick cycle,
             std::int64_t value)
{
    Tracer::instance().emit(cat, TraceType::Counter, name, cycle,
                            value);
}

/** @return the session wall clock (ns), for traceSpanAt(). */
inline std::uint64_t
traceWallNs()
{
    return Tracer::instance().wallNowNs();
}

/**
 * Emit a complete span after the fact: Begin stamped with a wall time
 * captured earlier (traceWallNs()), End stamped now. Lets the manager
 * loop trace a block only when it turned out to do work.
 */
inline void
traceSpanAt(std::uint64_t begin_wall_ns, TraceCategory cat,
            const char *name, Tick begin_cycle, Tick end_cycle,
            std::int64_t arg = 0)
{
    Tracer &t = Tracer::instance();
    t.emitAt(begin_wall_ns, cat, TraceType::Begin, name, begin_cycle);
    t.emit(cat, TraceType::End, name, end_cycle, arg);
}

#endif // SLACKSIM_OBS_DISABLED

/**
 * Merge per-thread traces into one (cycle, tid, per-thread order)
 * sorted list — the deterministic order tests and offline analyzers
 * consume. @return (tid, record) pairs.
 */
std::vector<std::pair<std::uint32_t, TraceRecord>>
mergeByCycle(const std::vector<ThreadTrace> &traces);

} // namespace slacksim::obs

#endif // SLACKSIM_OBS_TRACER_HH
