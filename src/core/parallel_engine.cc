/**
 * @file
 * ParallelEngine implementation.
 */

#include "core/parallel_engine.hh"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "fault/fault_plan.hh"
#include "obs/obs_session.hh"
#include "obs/profiler.hh"
#include "obs/tracer.hh"
#include "util/cancel.hh"
#include "util/logging.hh"
#include "util/run_token.hh"

namespace slacksim {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

// core-park span arg: why the worker went to sleep.
constexpr std::int64_t parkPaced = 0;   //!< at the pacing limit
constexpr std::int64_t parkInbound = 1; //!< inert, awaiting delivery

// Park spans shorter than this are dropped: an atomic wait that
// returned immediately is scheduler noise, not a park worth a record.
constexpr std::uint64_t parkSpanMinNs = 1000;

// Idle scans a worker yields through before parking. On an
// oversubscribed host the yield usually schedules the manager, whose
// next service round unblocks us without any futex round trip.
constexpr std::uint32_t spinRoundsBeforePark = 4;

// Simulated cycles global time may advance with no uop committed
// before the run is declared deadlocked.
constexpr Tick deadlockCycles = 2000000;

} // namespace

ParallelEngine::ParallelEngine(SimSystem &sys)
    : sys_(sys),
      engine_(sys.config().engine),
      pacer_(engine_, sys.numCores(), &host_),
      mgr_(sys, engine_, &host_),
      ckpt_(sys, pacer_, mgr_, engine_, &host_),
      wakePending_(sys.numCores()),
      board_(sys.numCores())
{
    for (CoreId c = 0; c < sys_.numCores(); ++c)
        controls_.push_back(std::make_unique<CoreControl>());

    // Worker topology. EngineConfig::hostThreads counts the manager,
    // so W = hostThreads - 1 workers share the simulated cores; the
    // auto policy (hostThreads = 0) sizes from the machine so a
    // single-CPU host lands in inline mode (W = 0) where concurrency
    // could only ever add park/wake overhead. parallelHost = false is
    // another way to ask for one host thread.
    std::uint32_t requested =
        engine_.parallelHost ? engine_.hostThreads : 1;
    if (requested == 0) {
        requested =
            std::max(1u, std::thread::hardware_concurrency());
    }
    const std::uint32_t want =
        std::min<std::uint32_t>(sys_.numCores(), requested - 1);
    if (want > 0) {
        const CoreId per = (sys_.numCores() + want - 1) / want;
        for (std::uint32_t w = 0; w < want; ++w) {
            auto wc = std::make_unique<WorkerControl>();
            wc->first = static_cast<CoreId>(w * per);
            wc->last = static_cast<CoreId>(
                std::min<std::uint64_t>(sys_.numCores(),
                                        std::uint64_t{w + 1} * per));
            if (wc->first < wc->last)
                workers_.push_back(std::move(wc));
        }
    }
    workerCount_ = static_cast<std::uint32_t>(workers_.size());
    workerOf_.assign(sys_.numCores(), 0);
    for (std::uint32_t w = 0; w < workerCount_; ++w)
        for (CoreId c = workers_[w]->first; c < workers_[w]->last; ++c)
            workerOf_[c] = w;
    workerWoken_.assign(workerCount_, 0);
    lastRun_.assign(sys_.numCores(),
                    static_cast<std::uint8_t>(CoreRun::Progress));
    managerDrives_.store(workerCount_ == 0, std::memory_order_relaxed);
}

void
ParallelEngine::requestWake(CoreId c)
{
    wakePending_.set(c);
}

void
ParallelEngine::wakeWorkerNow(std::uint32_t w)
{
    WorkerControl &wc = *workers_[w];
    wc.wakeWord.fetch_add(1, std::memory_order_seq_cst);
    // Skip the futex syscall for a running worker. Store-buffering
    // argument for why the skip cannot lose a wake: the worker stores
    // `parked = true` (seq_cst) *before* re-reading the wake word it
    // captured ahead of its scan. If we read `parked == false` here,
    // our word bump is ordered before the worker's parked-store in
    // the single total order, so coherence forces the worker's
    // subsequent word read (the atomic-wait value check) to observe
    // the bump and return immediately.
    if (wc.parked.load(std::memory_order_seq_cst))
        wc.wakeWord.notify_one();
}

void
ParallelEngine::flushWakes()
{
    if (!wakePending_.any())
        return;
    if (workerCount_ == 0) {
        // Inline mode: the manager is the "worker"; just clear.
        wakePending_.drain([](std::uint32_t) {});
        return;
    }
    std::fill(workerWoken_.begin(), workerWoken_.end(), 0);
    wakePending_.drain([this](std::uint32_t c) {
        const std::uint32_t w = workerOf_[c];
        if (!workerWoken_[w]) {
            workerWoken_[w] = 1;
            wakeWorkerNow(w);
        }
    });
}

ParallelEngine::CoreRun
ParallelEngine::runCoreBurst(CoreId c)
{
    CoreComplex &cc = sys_.core(c);
    CoreControl &ctl = *controls_[c];
    // Constant across the burst: the flag only flips while the world
    // is stopped, and a worker never runs a burst then.
    const bool lean = managerDrives_.load(std::memory_order_relaxed);

    if (cc.finished()) {
        if (!ctl.finished.load(std::memory_order_relaxed)) {
            ctl.finished.store(true, std::memory_order_release);
            ctl.committed.store(cc.committedUops(),
                                std::memory_order_release);
            ctl.committedAt.store(cc.localTime(),
                                  std::memory_order_release);
            if (lean) {
                // Final drain at the transition; a finished core
                // emits nothing more, so later rounds skip it.
                mgr_.pumpCore(c);
            } else {
                board_.bump(c);
            }
            if (watchdog_)
                watchdog_->note(c, "finished", cc.localTime());
        }
        return CoreRun::Finished;
    }
    ctl.finished.store(false, std::memory_order_relaxed);

    const Tick local = cc.localTime();
    if (local > ctl.maxLocal.load(std::memory_order_acquire))
        return CoreRun::Paced;

    if (auto *plan = fault::FaultPlan::active()) {
        if (const std::uint64_t ms =
                plan->fireWorkerStall(c, cc.localTime())) {
            // Injected wedge: this worker goes dark for a while.
            // The stall watchdog (if armed) is what notices.
            if (watchdog_)
                watchdog_->note(c, "fault-stall", cc.localTime());
            std::this_thread::sleep_for(
                std::chrono::milliseconds(ms));
            plan->markLastHandled(watchdog_ ? "stall-watchdog"
                                            : "bounded-stall");
        }
    }

    bool backpressured = false;
    bool wait_inbound = false;
    Tick advanced = 0;
    const std::uint64_t burst_wall = obs::traceWallNs();
    {
        obs::PhaseScope simulate(obs::Phase::Simulate);
        // Manager-driven: the manager is the only writer of maxLocal
        // and phase/stop, and it cannot change them mid-burst — load
        // once and run a tight loop.
        const Tick pinned_max_local =
            ctl.maxLocal.load(std::memory_order_acquire);
        while (advanced < engine_.burstCycles) {
            Tick max_local = pinned_max_local;
            if (!lean) {
                max_local =
                    ctl.maxLocal.load(std::memory_order_acquire);
                if (phase_.load(std::memory_order_relaxed) !=
                        phaseRunning ||
                    stop_.load(std::memory_order_relaxed)) {
                    break;
                }
            }
            if (cc.localTime() > max_local)
                break;
            const Tick before = cc.localTime();
            const auto outcome = cc.cycle(
                max_local,
                engine_.burstCycles -
                    static_cast<std::uint32_t>(advanced));
            if (outcome == CoreComplex::CycleOutcome::Backpressure) {
                backpressured = true;
                break;
            }
            if (outcome == CoreComplex::CycleOutcome::WaitInbound) {
                wait_inbound = true;
                break;
            }
            advanced += cc.localTime() - before;
            if (cc.finished())
                break;
        }
    }
    ctl.committed.store(cc.committedUops(),
                        std::memory_order_release);
    ctl.committedAt.store(cc.localTime(), std::memory_order_release);
    if (advanced > 0) {
        obs::traceSpanAt(burst_wall, obs::TraceCategory::Core,
                         "core-run", local, cc.localTime(),
                         static_cast<std::int64_t>(advanced));
    }
    if (lean) {
        // Manager-driven: pump this core's OutQ while its lines are
        // cache-hot, so arrival order is the deterministic rotation
        // order of these bursts. A burst that advanced nothing emitted
        // nothing (backpressure excepted: there the queue is *full*),
        // so its pump is skipped. Nobody sleeps on the board, so skip
        // the bump too.
        if (advanced > 0 || backpressured) {
            obs::PhaseScope push(obs::Phase::QueuePush);
            mgr_.pumpCore(c);
        }
    } else if (advanced > 0 || backpressured || wait_inbound) {
        board_.bump(c);
    }

    if (advanced > 0)
        return CoreRun::Progress;
    if (backpressured)
        return CoreRun::Backpressure;
    if (wait_inbound)
        return CoreRun::Inbound;
    return CoreRun::Paced;
}

bool
ParallelEngine::driveInline()
{
    const CoreId n = sys_.numCores();
    // Rotate the start every round: a fixed order would batch every
    // core's requests at the same timestamps each round, a resonance
    // a multi-threaded host does not have. Rotating before the scan
    // starts the first round at core 1, the order the one-thread
    // golden pins were taken in.
    inlineRotate_ = (inlineRotate_ + 1) % n;
    const CoreId start = inlineRotate_;
    bool progress = false;
    for (CoreId i = 0; i < n; ++i) {
        const CoreId c = static_cast<CoreId>((start + i) % n);
        const CoreRun r = runCoreBurst(c);
        lastRun_[c] = static_cast<std::uint8_t>(r);
        if (r == CoreRun::Progress)
            progress = true;
    }
    return progress;
}

void
ParallelEngine::workerThreadMain(std::uint32_t w)
{
    WorkerControl &wc = *workers_[w];
    std::uint32_t acked_gen = 0;
    std::uint32_t idle_rounds = 0;

    // Adopt the run's identity on this (possibly pool-borrowed) host
    // thread: the token gates obs registration to our own run's
    // sessions, the fault-plan binding scopes injected faults to us.
    ScopedRunToken token_scope(sys_.runToken());
    fault::ScopedFaultPlan plan_scope(sys_.faultPlan());

    const std::string role = "worker " + std::to_string(w);
    setLogThreadContext(role, &sys_.core(wc.first).localClock());
    obs::Tracer::instance().registerThread(role);
    obs::Profiler::instance().registerThread(role);

    while (!stop_.load(std::memory_order_acquire)) {
        if (phase_.load(std::memory_order_acquire) != phaseRunning) {
            // Stop-the-world pause: acknowledge exactly once per
            // pause generation (atomic waits may wake spuriously),
            // then sleep until resumed. The epoch is read first and
            // the generation re-read after the phase: a resume plus
            // the next pause can land between these loads, and a
            // worker that slept on the post-resume epoch without
            // acking the new pause would deadlock the handshake.
            const std::uint32_t e =
                resumeEpoch_.load(std::memory_order_acquire);
            const std::uint32_t gen =
                pauseGen_.load(std::memory_order_acquire);
            if (gen != acked_gen) {
                acked_gen = gen;
                ackCount_.fetch_add(1, std::memory_order_seq_cst);
                ackCount_.notify_one();
                if (watchdog_)
                    watchdog_->note(wc.first, "pause-ack", 0);
            }
            if (phase_.load(std::memory_order_acquire) !=
                    phaseRunning &&
                !stop_.load(std::memory_order_acquire) &&
                pauseGen_.load(std::memory_order_acquire) == acked_gen) {
                obs::PhaseScope barrier(obs::Phase::Barrier);
                // Parked while the manager drives our cores: nothing
                // to wait *for* but the window's end, so the profiler
                // files it under its own path (beginManagerWindow()
                // re-wakes us to re-enter the wait under it).
                std::optional<obs::PhaseScope> window;
                if (managerDrives_.load(std::memory_order_acquire))
                    window.emplace(obs::Phase::InlineWindow);
                resumeEpoch_.wait(e, std::memory_order_acquire);
            }
            continue;
        }

        // Capture the wake word *before* scanning: every manager-side
        // state change after this point bumps the word, so the park
        // below cannot sleep through it.
        const std::uint32_t word =
            wc.wakeWord.load(std::memory_order_acquire);

        bool progress = false;
        bool retry = false;
        bool any_paced = false;
        for (CoreId c = wc.first;
             c < wc.last &&
             phase_.load(std::memory_order_relaxed) == phaseRunning &&
             !stop_.load(std::memory_order_relaxed);
             ++c) {
            const CoreRun r = runCoreBurst(c);
            lastRun_[c] = static_cast<std::uint8_t>(r);
            if (r == CoreRun::Progress)
                progress = true;
            else if (r == CoreRun::Backpressure)
                retry = true;
            else if (r == CoreRun::Paced)
                any_paced = true;
        }
        if (progress) {
            idle_rounds = 0;
            continue;
        }
        if (retry || ++idle_rounds <= spinRoundsBeforePark) {
            // Backpressure wants the manager scheduled to drain our
            // OutQs; a freshly idle scan usually resolves within a
            // service round or two. Either way, yield beats a futex.
            obs::PhaseScope wait(any_paced ? obs::Phase::WaitSlack
                                           : obs::Phase::WaitInbound);
            std::this_thread::yield();
            continue;
        }
        idle_rounds = 0;

        // Every owned core is blocked: announce the park, then
        // re-verify blockage *and* the wake word. The manager's
        // paired load in wakeWorkerNow() makes the announce-first
        // order lost-wake-free.
        wc.parked.store(true, std::memory_order_seq_cst);
        bool still_blocked = true;
        for (CoreId c = wc.first; c < wc.last; ++c) {
            CoreComplex &cc = sys_.core(c);
            if (cc.finished())
                continue;
            if (cc.localTime() >
                controls_[c]->maxLocal.load(std::memory_order_seq_cst))
                continue;
            if (lastRun_[c] ==
                    static_cast<std::uint8_t>(CoreRun::Inbound) &&
                cc.inQ().empty())
                continue;
            still_blocked = false;
            break;
        }
        if (still_blocked &&
            wc.wakeWord.load(std::memory_order_seq_cst) == word &&
            phase_.load(std::memory_order_acquire) == phaseRunning &&
            !stop_.load(std::memory_order_acquire)) {
            const Tick park_cycle = sys_.core(wc.first).localTime();
            if (watchdog_) {
                watchdog_->note(wc.first,
                                any_paced ? "park-paced"
                                          : "park-inbound",
                                park_cycle);
            }
            const std::uint64_t park_wall = obs::traceWallNs();
            {
                obs::PhaseScope wait(any_paced
                                         ? obs::Phase::WaitSlack
                                         : obs::Phase::WaitInbound);
                wc.wakeWord.wait(word, std::memory_order_acquire);
            }
            ++wc.parks;
            if (watchdog_) {
                watchdog_->note(wc.first, "resume",
                                sys_.core(wc.first).localTime());
            }
            // Retroactive span, skipping waits that returned at
            // once — futex misses would otherwise flood the ring.
            if (obs::traceWallNs() - park_wall >= parkSpanMinNs) {
                obs::traceSpanAt(park_wall, obs::TraceCategory::Core,
                                 "core-park", park_cycle,
                                 sys_.core(wc.first).localTime(),
                                 any_paced ? parkPaced : parkInbound);
            }
        }
        wc.parked.store(false, std::memory_order_seq_cst);
    }

    obs::Profiler::instance().unregisterThread();
    obs::Tracer::instance().unregisterThread();
    clearLogThreadContext();
}

ParallelEngine::ClockSample
ParallelEngine::sampleClocks()
{
    ClockSample s;
    Tick max_any = 0;
    localsScratch_.resize(sys_.numCores());
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        const Tick t = sys_.core(c).localTime();
        localsScratch_[c] = t;
        max_any = std::max(max_any, t);
        if (!controls_[c]->finished.load(std::memory_order_acquire)) {
            s.minUnfinished = std::min(s.minUnfinished, t);
            s.maxUnfinished = std::max(s.maxUnfinished, t);
        }
    }
    s.global = s.minUnfinished == maxTick ? max_any : s.minUnfinished;
    return s;
}

void
ParallelEngine::updatePacing(bool monotone, const ClockSample &sample)
{
    const bool lean = managerDrives_.load(std::memory_order_relaxed);
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        Tick target =
            pacer_.maxLocalForCore(c, sample.global, localsScratch_);
        if (ckpt_.enabled())
            target = std::min(target, ckpt_.nextCheckpointAt() - 1);
        CoreControl &ctl = *controls_[c];
        const Tick cur = ctl.maxLocal.load(std::memory_order_relaxed);
        if (monotone ? target > cur : target != cur) {
            // While the manager drives, the store has no reader to
            // race with (resumeWorld() publishes it to the workers);
            // seq_cst (needed for the parked-recheck protocol) would
            // cost a full fence per core per iteration.
            ctl.maxLocal.store(target, lean ? std::memory_order_relaxed
                                            : std::memory_order_seq_cst);
            if (!lean)
                requestWake(c);
        }
    }
    // One coalesced sweep covers the pacing changes above *and* the
    // deliveries drainDelivered() marked earlier in the iteration:
    // at most one bump + futex per worker per manager round.
    flushWakes();
}

void
ParallelEngine::updatePacing(bool monotone)
{
    updatePacing(monotone, sampleClocks());
}

bool
ParallelEngine::quiescedAtBoundary(Tick boundary) const
{
    bool any_unfinished = false;
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        if (controls_[c]->finished.load(std::memory_order_acquire))
            continue;
        any_unfinished = true;
        if (sys_.core(c).localTime() != boundary)
            return false;
    }
    return any_unfinished;
}

std::uint64_t
ParallelEngine::committedTotal() const
{
    std::uint64_t committed = 0;
    for (const auto &ctl : controls_)
        committed += ctl->committed.load(std::memory_order_acquire);
    return committed;
}

std::uint64_t
ParallelEngine::committedBound() const
{
    // A core commits at most commitWidth uops per target cycle, so the
    // cycles since its last publication bound what the count misses.
    const std::uint64_t width = sys_.config().target.core.commitWidth;
    std::uint64_t bound = 0;
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        const CoreControl &ctl = *controls_[c];
        const Tick at = ctl.committedAt.load(std::memory_order_acquire);
        bound += ctl.committed.load(std::memory_order_acquire);
        if (localsScratch_[c] > at)
            bound += (localsScratch_[c] - at) * width;
    }
    return bound;
}

bool
ParallelEngine::atCommittedCut() const
{
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        const CoreControl &ctl = *controls_[c];
        const Tick local = localsScratch_[c];
        if (ctl.committedAt.load(std::memory_order_acquire) != local)
            return false;
        if (!ctl.finished.load(std::memory_order_acquire) &&
            local <= ctl.maxLocal.load(std::memory_order_relaxed))
            return false;
    }
    return true;
}

void
ParallelEngine::pauseWorld(WorldHold hold)
{
    const std::uint8_t held = worldHolds_;
    worldHolds_ = static_cast<std::uint8_t>(held | hold);
    if (held != 0) {
        // Already stopped by another holder: nothing to hand off.
        SLACKSIM_ASSERT(!(held & hold) &&
                            ackCount_.load(std::memory_order_acquire) ==
                                workerCount_,
                        "nested pauseWorld: hold ", unsigned{hold},
                        " while holds=", unsigned{held});
        return;
    }
    // The manager side of the stop-the-world handshake: request,
    // wake, then wait for every ack.
    obs::PhaseScope barrier(obs::Phase::Barrier);
    pauseGen_.fetch_add(1, std::memory_order_seq_cst);
    phase_.store(phasePaused, std::memory_order_seq_cst);
    for (std::uint32_t w = 0; w < workerCount_; ++w)
        wakeWorkerNow(w);
    // Wait until every worker thread acknowledged the pause.
    std::uint32_t acked = ackCount_.load(std::memory_order_acquire);
    while (acked < workerCount_) {
        ackCount_.wait(acked, std::memory_order_acquire);
        acked = ackCount_.load(std::memory_order_acquire);
    }
}

void
ParallelEngine::resumeWorld(WorldHold hold)
{
    SLACKSIM_ASSERT(worldHolds_ & hold, "resumeWorld by non-holder ",
                    unsigned{hold}, " (holds=", unsigned{worldHolds_},
                    ")");
    worldHolds_ = static_cast<std::uint8_t>(worldHolds_ & ~hold);
    if (worldHolds_ != 0)
        return; // another holder keeps the world stopped
    SLACKSIM_ASSERT(workerCount_ == 0 ||
                        !managerDrives_.load(std::memory_order_relaxed),
                    "releasing workers while the manager drives them");
    ackCount_.store(0, std::memory_order_seq_cst);
    phase_.store(phaseRunning, std::memory_order_seq_cst);
    resumeEpoch_.fetch_add(1, std::memory_order_seq_cst);
    resumeEpoch_.notify_all();
}

void
ParallelEngine::beginManagerWindow(Tick at)
{
    SLACKSIM_ASSERT(workerCount_ > 0 &&
                        !managerDrives_.load(std::memory_order_relaxed),
                    "manager window needs parked workers");
    pauseWorld(holdWindow);
    managerDrives_.store(true, std::memory_order_release);
    windowStart_ = at;
    ++host_.inlineWindows;
    // Kick the parked workers once so they re-enter their wait under
    // the window's profiler path; the phase stays paused.
    resumeEpoch_.fetch_add(1, std::memory_order_seq_cst);
    resumeEpoch_.notify_all();
}

void
ParallelEngine::endManagerWindow(Tick at)
{
    creditWindowCycles(at);
    managerDrives_.store(false, std::memory_order_release);
    resumeWorld(holdWindow);
}

void
ParallelEngine::creditWindowCycles(Tick at)
{
    host_.inlineCycles += at > windowStart_ ? at - windowStart_ : 0;
}

void
ParallelEngine::refreshControlAfterRestore()
{
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        CoreControl &ctl = *controls_[c];
        ctl.finished.store(sys_.core(c).finished(),
                           std::memory_order_release);
        ctl.committed.store(sys_.core(c).committedUops(),
                            std::memory_order_release);
        ctl.committedAt.store(sys_.core(c).localTime(),
                              std::memory_order_release);
    }
}

RunResult
ParallelEngine::run()
{
    const auto t0 = std::chrono::steady_clock::now();
    setLogThreadContext("manager");
    obs::ObsSession session(engine_.obs, sys_, pacer_, mgr_, ckpt_,
                            host_);
    session.begin("manager");
    recovery_.setDecisionLog(session.decisionLog());
    if (obs::StallWatchdog *wd = session.watchdog()) {
        // Registration order fixes the worker indices the hot-path
        // note() calls use: cores first, manager last.
        for (CoreId c = 0; c < sys_.numCores(); ++c) {
            wd->addWorker("core " + std::to_string(c),
                          &sys_.core(c).localClock(),
                          &controls_[c]->finished,
                          /*stall_eligible=*/true);
        }
        // The manager blocks legitimately (all cores finished, uop
        // budget races); keep it informational only.
        wd->addWorker("manager", nullptr, nullptr,
                      /*stall_eligible=*/false);
        wd->setProgressProbe([this] {
            return "progress-sum=" + std::to_string(board_.sum()) +
                   " generation=" +
                   std::to_string(board_.generation()) +
                   " committed=" + std::to_string(committedTotal());
        });
        wd->start();
        watchdog_ = wd;
    }
    mgr_.setSorted(pacer_.sortedService());
    if (ckpt_.enabled() && ckpt_.takeCheckpoint(0) ==
                               Checkpointer::Event::ResumedFromRollback) {
        // Fork technology: this process woke up as the first
        // checkpoint; a cycle-by-cycle replay follows.
        mgr_.setSorted(true);
    }
    updatePacing(true);

    TaskRunner &runner =
        engine_.runner ? *engine_.runner : fallbackRunner_;
    threads_.reserve(workerCount_);
    for (std::uint32_t w = 0; w < workerCount_; ++w)
        threads_.push_back(
            runner.launch([this, w] { workerThreadMain(w); }));
    host_.hostThreadsUsed = 1 + workerCount_;
    if (managerDrives_.load(std::memory_order_relaxed))
        ++host_.inlineWindows; // inline mode: one window, the whole run

    // A cancel request may arrive while the manager is parked on the
    // progress board; the waker is a pure futex kick (wakers must not
    // block — they run under the token's registry lock).
    ScopedWaker cancel_waker(engine_.cancel,
                             [this] { board_.wakeAll(); });
    bool cancelled = false;

    Tick last_global = 0;
    double stalled_since = -1.0; //!< wall s; < 0 while global moves
    std::uint64_t last_committed = 0;
    Tick committed_stale_since = 0;
    bool warmup_pending = engine_.warmupUops > 0;

    for (;;) {
        if (engine_.cancel && engine_.cancel->cancelled()) {
            cancelled = true;
            break;
        }
        // Fixed for the iteration: only the rollback and checkpoint
        // branches below flip it, and both end the iteration.
        const bool drives =
            managerDrives_.load(std::memory_order_relaxed);
        // The board only matters as a sleep/wake channel; a manager-
        // driven round never sleeps, so skip the two sharded sums.
        const std::uint64_t p0 = drives ? 0 : board_.sum();

        // Read local clocks *before* pumping: every event with a
        // timestamp below the resulting safe time is then guaranteed
        // to already be in its OutQ, which makes sorted service
        // deterministic and identical to the one-thread reference.
        // One scan serves the safe time, the pacing targets, and the
        // slack-spread stat below.
        ClockSample clocks;
        std::size_t activity = 0;
        // Cycle-by-cycle budget stop off the manager's own thread:
        // check it only at a committed cut, and while the budget is
        // within reach hold pacing until the cut is complete, so no
        // run skips the cut another one stops at.
        const bool cut_stop = engine_.maxCommittedUops && !drives &&
                              !warmup_pending && pacer_.sortedService();
        bool hold_pacing = false;
        if (drives) {
            // Manager-driven rounds run burst-then-sample: the bursts
            // pump their OutQs synchronously, so sampling *after* them
            // is just as safe (any future event from a core is stamped
            // at or above that core's current clock) — and it paces the
            // next round a full slack window ahead of where the cores
            // actually are, not where they were a round ago. One scan
            // per round.
            if (driveInline())
                ++activity;
            clocks = sampleClocks();
        } else {
            clocks = sampleClocks();
            if (cut_stop) {
                const bool cut = atCommittedCut();
                const bool reachable =
                    committedBound() >= engine_.maxCommittedUops;
                hold_pacing = reachable && !cut;
                if (cut && reachable) {
                    // Service up to the cut, as the inline loop does
                    // before its budget check.
                    mgr_.pumpAll();
                    mgr_.serviceSorted(clocks.global);
                    mgr_.flushOverflow();
                    break;
                }
            }
        }
        const Tick global = clocks.global;
        if (auto *plan = fault::FaultPlan::active()) {
            // Serve-site faults before backpressure: job-crash never
            // returns, job-hang wedges the manager right here.
            plan->fireServeFault(global);
            if (const std::uint64_t rounds =
                    plan->fireBackpressure(global)) {
                backpressureRounds_ += rounds;
            }
        }
        if (backpressureRounds_ > 0) {
            // Injected backpressure burst: the manager withholds
            // pumping and service, so the SPSC OutQs fill and cores
            // hit their backpressure path (yield + retry) until the
            // burst drains.
            if (--backpressureRounds_ == 0) {
                if (auto *plan = fault::FaultPlan::active())
                    plan->markLastHandled("manager-resumed");
            }
            // Count the skip as activity so the manager keeps
            // iterating (and draining the burst) instead of sleeping
            // on the progress board with service suspended.
            ++activity;
        } else {
            obs::PhaseScope drain(obs::Phase::Drain);
            const std::uint64_t service_wall = obs::traceWallNs();
            // Manager-driven bursts pumped their own OutQs already; a
            // second all-core scan would find them empty.
            if (!drives)
                activity += mgr_.pumpAll();
            activity += mgr_.serviceSorted(global);
            mgr_.flushOverflow();
            if (activity > 0) {
                obs::traceSpanAt(service_wall,
                                 obs::TraceCategory::Manager,
                                 "manager-service", global, global,
                                 static_cast<std::int64_t>(activity));
            }
            // Mark any core that just received a delivery for the
            // coalesced wake sweep: inert free-running cores sleep
            // until their InQ gets something. updatePacing() below
            // flushes the sweep. A manager-driven round has nobody to
            // wake; the marks still need clearing.
            if (drives)
                mgr_.drainDelivered([](CoreId) {});
            else
                mgr_.drainDelivered([this](CoreId c) {
                    requestWake(c);
                });
        }
        pacer_.observe(global, sys_.violations());
        recovery_.observe(global, sys_.violations());
        if (hold_pacing)
            flushWakes(); // deliveries only; pacing waits for the cut
        else
            updatePacing(true, clocks);
        session.maybeSample(global);
        if (clocks.minUnfinished != maxTick &&
            clocks.maxUnfinished > clocks.minUnfinished) {
            host_.maxObservedSlack =
                std::max(host_.maxObservedSlack,
                         clocks.maxUnfinished - clocks.minUnfinished);
        }

        if (ckpt_.enabled()) {
            if (mgr_.rollbackRequested()) {
                pauseWorld(holdRollback);
                const Tick rb_global = sampleClocks().global;
                const auto rb = ckpt_.rollback(rb_global);
                if (rb.status ==
                    Checkpointer::RollbackResult::Status::Demoted) {
                    // No valid checkpoint generation: nothing was
                    // restored; keep running forward without
                    // speculation instead of dying.
                    recovery_.noteIntegrityDemotion(rb_global);
                    updatePacing(true);
                    session.collectTrace();
                    resumeWorld(holdRollback);
                    ++activity;
                    continue;
                }
                recovery_.noteRollback(rb_global);
                refreshControlAfterRestore();
                mgr_.setSorted(true);
                if (drives) {
                    // Rewound inside a window: credit what it stepped
                    // so far and restart it at the restore point.
                    creditWindowCycles(rb_global);
                    windowStart_ = rb.resumedAt;
                } else {
                    // The replay is cycle-by-cycle: in lock-step the
                    // workers can only hand off one cycle at a time,
                    // so keep them parked and drive it from here.
                    beginManagerWindow(rb.resumedAt);
                }
                updatePacing(false);
                session.forceSample(rb.resumedAt);
                session.collectTrace();
                resumeWorld(holdRollback);
                ++activity;
                continue;
            }
            const Tick boundary = ckpt_.nextCheckpointAt();
            if (quiescedAtBoundary(boundary) && !hold_pacing &&
                mgr_.pumpAll() == 0) {
                // All unfinished cores are parked exactly at the
                // boundary and no stragglers remain in the OutQs:
                // the world is stable, snapshot it directly.
                const bool was_replay = pacer_.replayMode();
                if (ckpt_.takeCheckpoint(boundary) ==
                    Checkpointer::Event::ResumedFromRollback) {
                    // Fork technology: this process just woke up as
                    // the checkpoint. Replay follows, as after a
                    // memory rollback (one host thread: no workers).
                    recovery_.noteRollback(boundary);
                    refreshControlAfterRestore();
                    mgr_.setSorted(true);
                    updatePacing(false);
                    session.forceSample(boundary);
                    session.collectTrace();
                    ++activity;
                    continue;
                }
                if (was_replay && !pacer_.sortedService()) {
                    mgr_.serviceSorted(maxTick);
                    mgr_.setSorted(false);
                    mgr_.flushOverflow();
                }
                if (was_replay && (worldHolds_ & holdWindow))
                    endManagerWindow(boundary);
                updatePacing(true);
                session.forceSample(boundary);
                session.collectTrace();
                ++activity;
                continue;
            }
        }

        if (warmup_pending) {
            if (committedTotal() >= engine_.warmupUops) {
                // Stop the world so no core mutates its stats while
                // the warmup measurements are discarded.
                pauseWorld(holdWarmup);
                sys_.resetSimStats();
                refreshControlAfterRestore();
                resumeWorld(holdWarmup);
                warmup_pending = false;
                ++activity;
            }
        }

        // Stop conditions.
        if (engine_.maxCommittedUops && !warmup_pending && !cut_stop &&
            committedTotal() >= engine_.maxCommittedUops)
            break;
        {
            bool all_finished = true;
            for (const auto &ctl : controls_)
                all_finished &=
                    ctl->finished.load(std::memory_order_acquire);
            if (all_finished) {
                mgr_.pumpAll();
                mgr_.serviceSorted(maxTick);
                mgr_.flushOverflow();
                break;
            }
        }

        // Hang checks. A stalled global time trips the wall-clock
        // watchdog; the clock is read only while global time stands
        // still, so a one-thread run that advances every round never
        // pays for it. A simulated deadlock, clocks ticking with no uop
        // committing, is caught in simulated time; the stale span can
        // only grow when global time moves, so check it only then.
        if (global != last_global) {
            last_global = global;
            stalled_since = -1.0;
            const std::uint64_t committed = committedTotal();
            if (committed != last_committed) {
                last_committed = committed;
                committed_stale_since = global;
            } else if (global > committed_stale_since + deadlockCycles) {
                panicNoCommitProgress(global, committed);
            }
        } else if (stalled_since < 0.0) {
            stalled_since = secondsSince(t0);
        } else if (secondsSince(t0) - stalled_since >
                   engine_.watchdogSeconds) {
            SLACKSIM_PANIC("parallel engine watchdog: no global ",
                           "progress, global=", global,
                           " scheme=", schemeName(engine_.scheme));
        }

        if (activity == 0 && (drives || board_.sum() == p0)) {
            // Manager-driven or inline: the manager itself is the only
            // thread that drives the cores (parked workers never bump
            // the board), so sleeping on the board would deadlock.
            // Yield, then re-drive (the stalled-global watchdog above
            // still catches a true deadlock).
            if (drives) {
                std::this_thread::yield();
                continue;
            }
            obs::PhaseScope wait(obs::Phase::WaitInbound);
            // The eligibility re-check (after sleeper registration)
            // closes the race with a cancel that fired its wakeAll
            // kick before we parked.
            board_.sleep(p0, [this] {
                return !engine_.cancel || !engine_.cancel->cancelled();
            });
            ++host_.managerWakeups;
        }
    }

    // Shut the worker threads down.
    stop_.store(true, std::memory_order_seq_cst);
    resumeEpoch_.fetch_add(1, std::memory_order_seq_cst);
    resumeEpoch_.notify_all();
    for (std::uint32_t w = 0; w < workerCount_; ++w)
        wakeWorkerNow(w);
    for (auto &t : threads_)
        t->join();
    threads_.clear();
    for (const auto &wc : workers_)
        host_.coreParkEvents += wc->parks;

    if (managerDrives_.load(std::memory_order_relaxed))
        creditWindowCycles(sys_.globalTime()); // stopped inside a window
    ckpt_.finalizeHostStats();
    session.finish(sampleClocks().global);
    watchdog_ = nullptr; // owned by the session; run is over
    clearLogThreadContext();
    RunResult r = collectResult(secondsSince(t0));
    r.cancelled = cancelled;
    r.forensics = session.takeForensics();
    return r;
}

void
ParallelEngine::panicNoCommitProgress(Tick global, std::uint64_t committed)
{
    pauseWorld(holdPanic); // the dump reads every core's state
    std::string dump;
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        auto &cc = sys_.core(c);
        dump += " core" + std::to_string(c) + "{t=" +
                std::to_string(cc.localTime()) + ",uops=" +
                std::to_string(cc.stats().committedInstrs) +
                ",inq=" + std::to_string(cc.inQ().size()) +
                ",outq=" + std::to_string(cc.outQ().size()) +
                ",l1iMiss=" + std::to_string(cc.stats().l1iMisses) + "}";
    }
    SLACKSIM_PANIC("no commit progress for 2M cycles: global=", global,
                   " committed=", committed,
                   " scheme=", schemeName(engine_.scheme),
                   " busReq=", sys_.uncoreStats().busRequests, dump);
}

RunResult
ParallelEngine::collectResult(double wall_seconds) const
{
    RunResult r;
    r.workloadName = sys_.workload().name;
    r.scheme = engine_.scheme;
    r.parallelHost = engine_.parallelHost;
    r.execCycles = sys_.maxLocalTime();
    r.globalCycles = sys_.globalTime();
    r.committedUops = sys_.totalCommittedUops();
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        r.perCore.push_back(sys_.core(c).stats());
        r.coreTotal.add(sys_.core(c).stats());
    }
    r.uncore = sys_.uncoreStats();
    r.busQueueHistogram = sys_.uncore().busQueueHistogram();
    r.violations = sys_.violations();
    r.host = host_;
    r.host.wallSeconds = wall_seconds;
    for (CoreId c = 0; c < sys_.numCores(); ++c)
        r.host.inertCycles += sys_.core(c).inertCycles();
    r.intervals = mgr_.intervals();
    r.finalSlackBound = pacer_.currentBound();
    r.degradationLevel = recovery_.levelName();
    r.demotions = recovery_.demotions();
    r.repromotions = recovery_.repromotions();
    return r;
}

} // namespace slacksim
