/**
 * @file
 * Host-time profiling layer: where do the host cycles of a run go?
 *
 * The event tracer (obs/tracer.hh) answers "what happened when"; this
 * layer answers the paper's headline question — host speedup — by
 * attributing every worker thread's wall time to a small set of
 * phases: simulate, queue-push, wait-for-slack, wait-inbound,
 * barrier, checkpoint, rollback-replay, drain, pacer-epoch, sample.
 * parti-gem5 and ScaleSimulator both attribute parallel-sim overhead
 * to synchronization and queue stalls before optimizing; the profiler
 * is that lens for the slack engines.
 *
 * Mechanics: a scoped PhaseScope reads a coarse timestamp counter
 * (rdtsc on x86, the virtual counter on aarch64, steady_clock
 * elsewhere) on entry and exit and accumulates *exclusive* time into
 * a per-thread, cache-line-padded slot keyed by the full phase path
 * (so nested scopes form flamegraph stacks). Raw ticks are converted
 * to nanoseconds once, at collection, with a calibration measured
 * across the whole session — no per-scope conversion cost and no
 * dependence on a short warmup spin.
 *
 * Hot-path contract: when no profiling session is active a PhaseScope
 * is one relaxed atomic load (enforced by perf_smoke --baseline, like
 * the fault hooks); with -DSLACKSIM_OBS_DISABLED it compiles away
 * entirely. When active, enter/exit are one TSC read plus a handful
 * of owner-thread writes — no atomics beyond one relaxed store of the
 * current phase (read by the stall watchdog so a stall dump can say
 * *what* the stuck worker was doing).
 *
 * Threading: registration and collection are mutex-guarded cold
 * paths. Slot counters are owner-thread-only; collect() must run
 * after worker threads joined (both engines already join before
 * ObsSession::finish()), which gives the reader a happens-before over
 * every plain field. Only the `current` phase byte is read live.
 */

#ifndef SLACKSIM_OBS_PROFILER_HH
#define SLACKSIM_OBS_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/types.hh"

namespace slacksim::obs {

/** Host-time attribution categories. Order is the report order. */
enum class Phase : std::uint8_t {
    Simulate,       //!< advancing target state (core bursts, uncore service)
    QueuePush,      //!< moving events between queues / backpressure
    WaitSlack,      //!< parked at the pacing limit (slack exhausted)
    WaitInbound,    //!< parked waiting for deliveries / progress
    Barrier,        //!< stop-the-world pause handshake
    Checkpoint,     //!< taking a snapshot
    RollbackReplay, //!< restoring a snapshot / replay bookkeeping
    Drain,          //!< manager service block (pump + sorted service)
    PacerEpoch,     //!< adaptive-controller epoch evaluation
    Sample,         //!< metrics sampler snapshot
    /** Marker, not a phase: a worker parked at the barrier while the
     *  manager drives its cores. Its time keeps its own stack path
     *  (`barrier;inline-window`) but counts toward the barrier total,
     *  and the verdict excludes it. */
    InlineWindow,
};

/** Number of real phases (excludes the synthetic "other" and the
 *  InlineWindow marker). */
inline constexpr std::size_t numPhases = 10;

/** @return stable lowercase name for a phase. */
const char *phaseName(Phase p);

/** Totals for one phase (or one stack path). */
struct PhaseTotal
{
    std::string name; //!< phase name, or ";"-joined path
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
};

/** One worker thread's attribution. */
struct ProfileWorker
{
    std::string role;            //!< "core 3", "worker 0", "manager"
    std::uint32_t tid = 0;       //!< registration order
    std::uint64_t spanNs = 0;    //!< register -> unregister/collect
    std::uint64_t otherNs = 0;   //!< span minus attributed time
    std::uint64_t truncated = 0; //!< scopes past the nesting cap
    std::uint64_t droppedPaths = 0; //!< path-table overflow victims
    std::vector<PhaseTotal> phases; //!< per-phase exclusive totals
    std::vector<PhaseTotal> paths;  //!< per-stack-path exclusive totals
};

/** Hardware-counter readings (perf_event_open), when available. */
struct HwCounterTotals
{
    bool available = false;
    std::string reason; //!< why not, when unavailable
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cacheMisses = 0;
};

/** Everything one profiling session collected. */
struct ProfileReport
{
    bool enabled = false;
    std::uint64_t wallNs = 0; //!< session wall time (steady clock)
    double tscGhz = 0.0;      //!< measured counter rate
    std::vector<ProfileWorker> workers;
    std::vector<PhaseTotal> phaseTotals; //!< summed across workers
    /** Worker time parked through manager-driven windows (inside the
     *  barrier total); the verdict leaves it out. */
    std::uint64_t inlineWindowNs = 0;
    HwCounterTotals hw;
    std::string verdict; //!< one-line top-bottleneck statement

    /** Sum of a worker's attributed phase time plus its other bucket
     *  equals its span by construction; this is the cross-worker
     *  attributed total (excludes other). */
    std::uint64_t attributedNs() const;
};

/** Compute the top-bottleneck verdict line from the phase totals,
 *  excluding (and stating) the report's inlineWindowNs. */
std::string profileVerdict(const ProfileReport &report);

/** Write the report as a folded-stack file (flamegraph.pl /
 *  speedscope "collapsed stacks"): `role;phase;phase count` with the
 *  count in microseconds of exclusive host time. */
void writeFoldedStacks(std::ostream &os, const ProfileReport &report);

/** @return the current timestamp-counter value (monotonic ticks). */
std::uint64_t profTsc();

/**
 * Process-wide profiler registry: per-thread slots bound the same way
 * the tracer binds rings. One session at a time.
 */
class Profiler
{
  public:
    static Profiler &
    instance()
    {
        static Profiler profiler;
        return profiler;
    }

    /**
     * Start a profiling session and arm the PhaseScope hot path.
     * Call from the manager thread before worker threads spawn.
     * @return false when another session is already active.
     */
    bool beginSession();

    /**
     * Stop the session and aggregate every slot into a report.
     * Worker threads must have unregistered (engines join them first);
     * the calling thread's own slot is closed in place. Phase/path
     * tick totals are converted to ns with the calibration measured
     * between beginSession() and now.
     */
    ProfileReport endSession();

    /** @return true while a session is active (relaxed load). */
    bool
    active() const
    {
        return epoch_.load(std::memory_order_relaxed) != 0;
    }

    /** Bind the calling thread to a fresh slot under @p role.
     *  No-op when no session is active. */
    void registerThread(const std::string &role);

    /** Close the calling thread's slot (records the span end). */
    void unregisterThread();

    /**
     * Live phase of the slot registered under @p role, for the stall
     * watchdog's dumps. @return nullptr when no session is active or
     * the role is unknown; "idle" when the worker holds no scope.
     */
    const char *currentPhaseOfRole(const std::string &role) const;

    // -- PhaseScope internals (public for the inline hot path) --

    static constexpr std::size_t maxDepth = 8;  //!< nesting cap
    static constexpr std::size_t maxPaths = 64; //!< per-slot path table

    struct PathStat
    {
        std::uint64_t key = 0; //!< packed path, 0 = empty slot entry
        std::uint64_t ticks = 0;
        std::uint64_t count = 0;
    };

    /** One thread's attribution state. Owner-thread writes only;
     *  padded so neighbouring slots never share a line. */
    struct alignas(64) Slot
    {
        struct Frame
        {
            std::uint8_t phase = 0;
            std::uint64_t startTicks = 0;
            std::uint64_t childTicks = 0;
        };

        std::string role;
        std::uint32_t tid = 0;
        std::uint64_t startTicks = 0;
        std::uint64_t endTicks = 0; //!< 0 = still open
        std::uint32_t depth = 0;
        std::uint64_t pathKey = 0; //!< packed phase path (8 bits/level)
        Frame stack[maxDepth];
        PathStat paths[maxPaths]; //!< open-addressed by path key
        std::uint64_t droppedPaths = 0;
        std::uint64_t truncated = 0;
        std::atomic<std::uint8_t> current{0}; //!< phase + 1; 0 = idle
    };

    /** @return the calling thread's slot for the current session, or
     *  nullptr when profiling is off / the thread is unbound. */
    Slot *boundSlot() const;

    static void enter(Slot *slot, Phase p);
    static void exit(Slot *slot);

  private:
    Profiler() = default;

    void closeSlot(Slot &slot, std::uint64_t now_ticks);

    std::atomic<std::uint64_t> epoch_{0}; //!< 0 = inactive
    std::uint64_t nextEpoch_ = 0;
    /** Run token that owns the session (0: not owned by any run —
     *  every thread may register, the single-tenant behavior). */
    std::uint64_t ownerToken_ = 0;
    std::uint64_t t0Ticks_ = 0;
    std::chrono::steady_clock::time_point t0_{};

    mutable std::mutex registryMutex_; //!< guards slots_ (cold path)
    std::vector<std::unique_ptr<Slot>> slots_;
};

#ifdef SLACKSIM_OBS_DISABLED

/** Compile-time-disabled build: scopes vanish entirely. */
class PhaseScope
{
  public:
    explicit PhaseScope(Phase) {}
    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;
};

#else

/**
 * RAII phase attribution. Constructing one when no session is active
 * costs a single relaxed load; destruction then costs one branch.
 */
class PhaseScope
{
  public:
    explicit PhaseScope(Phase p)
    {
        Profiler &prof = Profiler::instance();
        if (!prof.active()) // inline early-out: disabled-path cost
            return;
        slot_ = prof.boundSlot();
        if (slot_)
            Profiler::enter(slot_, p);
    }

    ~PhaseScope()
    {
        if (slot_)
            Profiler::exit(slot_);
    }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    Profiler::Slot *slot_ = nullptr;
};

#endif // SLACKSIM_OBS_DISABLED

} // namespace slacksim::obs

#endif // SLACKSIM_OBS_PROFILER_HH
