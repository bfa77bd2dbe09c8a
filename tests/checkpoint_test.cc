/**
 * @file
 * Tests for checkpointing, the per-interval measurements (Tables 3/4
 * machinery), full speculative rollback + cycle-by-cycle replay (and
 * the manager-driven replay windows of the parallel engine), and
 * whole-world snapshot round-trips.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <thread>

#include "core/manager_logic.hh"
#include "core/parallel_engine.hh"
#include "core/run.hh"
#include "core/sim_system.hh"
#include "obs/forensics.hh"
#include "obs/progress.hh"
#include "util/cancel.hh"
#include "util/checksum.hh"
#include "workload/kernels.hh"

using namespace slacksim;

namespace {

SimConfig
measureConfig(const std::string &kernel, Tick interval,
              bool parallel_host)
{
    SimConfig config;
    config.workload.kernel = kernel;
    config.workload.numThreads = config.target.numCores;
    config.workload.iters = 2000;
    config.workload.fftPoints = 1024;
    config.workload.footprintBytes = 64 * 1024;
    config.engine.scheme = SchemeKind::Adaptive;
    config.engine.adaptive.targetViolationRate = 1e-4;
    config.engine.adaptive.initialBound = 16;
    config.engine.parallelHost = parallel_host;
    config.engine.checkpoint.mode = CheckpointMode::Measure;
    config.engine.checkpoint.interval = interval;
    return config;
}

} // namespace

TEST(CheckpointMeasure, IntervalsCoverTheRun)
{
    const auto r = runSimulation(measureConfig("falseshare", 2000,
                                               false));
    EXPECT_GT(r.host.checkpointsTaken, 1u);
    EXPECT_GT(r.host.checkpointBytes, 10000u);
    // One interval per checkpoint except the last open one.
    EXPECT_EQ(r.intervals.size(), r.host.checkpointsTaken - 1);
    for (std::size_t i = 0; i < r.intervals.size(); ++i) {
        EXPECT_EQ(r.intervals[i].start, i * 2000);
        if (r.intervals[i].violated())
            EXPECT_LT(r.intervals[i].firstViolationOffset, 2000u);
    }
    EXPECT_EQ(r.host.rollbacks, 0u); // measurement never rolls back
}

TEST(CheckpointMeasure, FractionRisesWithInterval)
{
    // Larger intervals are more likely to contain a violation
    // (paper Table 3's trend).
    const auto r_small =
        runSimulation(measureConfig("falseshare", 500, false));
    const auto r_large =
        runSimulation(measureConfig("falseshare", 8000, false));
    ASSERT_GT(r_small.intervals.size(), 2u);
    ASSERT_GT(r_large.intervals.size(), 0u);
    EXPECT_LE(r_small.fractionIntervalsViolated() - 0.3,
              r_large.fractionIntervalsViolated());
}

TEST(CheckpointMeasure, WorksOnParallelHost)
{
    const auto r =
        runSimulation(measureConfig("falseshare", 2000, true));
    EXPECT_GT(r.host.checkpointsTaken, 1u);
    EXPECT_EQ(r.host.rollbacks, 0u);
    EXPECT_GT(r.intervals.size(), 0u);
}

TEST(CheckpointMeasure, MeasureModeDoesNotChangeResults)
{
    // Checkpointing quiesces the world but must not perturb the
    // simulated outcome of a deterministic (serial, CC) run.
    SimConfig plain = measureConfig("pingpong", 2000, false);
    plain.engine.scheme = SchemeKind::CycleByCycle;
    plain.workload.iters = 500;
    SimConfig with_cp = plain;
    plain.engine.checkpoint.mode = CheckpointMode::Off;

    const auto r_plain = runSimulation(plain);
    const auto r_cp = runSimulation(with_cp);
    EXPECT_EQ(r_plain.execCycles, r_cp.execCycles);
    EXPECT_EQ(r_plain.committedUops, r_cp.committedUops);
    EXPECT_EQ(r_plain.coreTotal.l1dMisses, r_cp.coreTotal.l1dMisses);
    EXPECT_EQ(r_plain.uncore.busRequests, r_cp.uncore.busRequests);
}

TEST(Speculative, RollsBackAndStillCompletes)
{
    SimConfig config = measureConfig("falseshare", 2000, false);
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.adaptive.initialBound = 64; // provoke violations
    config.engine.adaptive.targetViolationRate = 0.05;
    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    EXPECT_GT(r.host.rollbacks, 0u);
    EXPECT_GT(r.host.replayCycles, 0u);
    EXPECT_GT(r.host.wastedCycles, 0u);
    // Despite rollbacks, the run completes the whole trace exactly.
    EXPECT_EQ(r.committedUops, w.totalMicroOps());
}

TEST(Speculative, WorksOnParallelHost)
{
    SimConfig config = measureConfig("falseshare", 2000, true);
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.adaptive.initialBound = 64;
    config.engine.adaptive.targetViolationRate = 0.05;
    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    EXPECT_GT(r.host.rollbacks, 0u);
    EXPECT_EQ(r.committedUops, w.totalMicroOps());
}

TEST(Speculative, SerialSpeculativeIsDeterministic)
{
    SimConfig config = measureConfig("falseshare", 1000, false);
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.adaptive.initialBound = 32;
    config.engine.adaptive.targetViolationRate = 0.05;
    const auto a = runSimulation(config);
    const auto b = runSimulation(config);
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.host.rollbacks, b.host.rollbacks);
    EXPECT_EQ(a.host.wastedCycles, b.host.wastedCycles);
}

TEST(Speculative, AsyncSealMatchesSyncSealExactly)
{
    // Moving the seal (integrity trailer + emulated extra copy) to a
    // background thread must be invisible to the simulation: the
    // pending generation promotes at the next checkpoint, rollback or
    // finalize join, before anything can consume it.
    SimConfig sync_cfg = measureConfig("falseshare", 1000, false);
    sync_cfg.engine.checkpoint.mode = CheckpointMode::Speculative;
    sync_cfg.engine.adaptive.initialBound = 32;
    sync_cfg.engine.adaptive.targetViolationRate = 0.05;
    SimConfig async_cfg = sync_cfg;
    sync_cfg.engine.checkpoint.asyncSeal = false;
    async_cfg.engine.checkpoint.asyncSeal = true;

    const auto s = runSimulation(sync_cfg);
    const auto a = runSimulation(async_cfg);
    EXPECT_EQ(s.execCycles, a.execCycles);
    EXPECT_EQ(s.committedUops, a.committedUops);
    EXPECT_EQ(s.host.checkpointsTaken, a.host.checkpointsTaken);
    EXPECT_EQ(s.host.rollbacks, a.host.rollbacks);
    EXPECT_EQ(s.host.wastedCycles, a.host.wastedCycles);
    EXPECT_EQ(s.host.replayCycles, a.host.replayCycles);
}

TEST(Speculative, AsyncSealReportsBackgroundTime)
{
    // The async run books the seal's busy time as background host
    // time; the sync run books everything on the critical path and
    // must report zero background seconds.
    SimConfig config = measureConfig("falseshare", 1000, false);
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.adaptive.initialBound = 32;
    config.engine.adaptive.targetViolationRate = 0.05;

    SimConfig sync_cfg = config;
    sync_cfg.engine.checkpoint.asyncSeal = false;
    const auto s = runSimulation(sync_cfg);
    ASSERT_GT(s.host.checkpointsTaken, 1u);
    EXPECT_EQ(s.host.checkpointAsyncSeconds, 0.0);
    EXPECT_GT(s.host.checkpointSeconds, 0.0);

    const auto a = runSimulation(config);
    ASSERT_GT(a.host.checkpointsTaken, 1u);
    EXPECT_GT(a.host.checkpointAsyncSeconds, 0.0);
}

TEST(Speculative, AsyncSealWorksOnParallelHost)
{
    SimConfig config = measureConfig("falseshare", 2000, true);
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.asyncSeal = true;
    config.engine.adaptive.initialBound = 64;
    config.engine.adaptive.targetViolationRate = 0.05;
    const Workload w = makeWorkload(config.workload);
    const auto r = runSimulation(config);
    EXPECT_GT(r.host.rollbacks, 0u);
    EXPECT_EQ(r.committedUops, w.totalMicroOps());
    EXPECT_GT(r.host.checkpointAsyncSeconds, 0.0);
}

TEST(Speculative, SelectiveRollbackOnMapOnlyRollsBackLess)
{
    // The paper suggests ignoring bus violations and rolling back on
    // the rare map violations only.
    SimConfig all = measureConfig("falseshare", 1000, false);
    all.engine.checkpoint.mode = CheckpointMode::Speculative;
    all.engine.adaptive.initialBound = 32;
    all.engine.adaptive.targetViolationRate = 0.05;
    SimConfig map_only = all;
    map_only.engine.checkpoint.rollbackOnBus = false;

    const auto r_all = runSimulation(all);
    const auto r_map = runSimulation(map_only);
    EXPECT_LE(r_map.host.rollbacks, r_all.host.rollbacks);
}

TEST(Speculative, CycleByCycleBaseNeverRollsBack)
{
    SimConfig config = measureConfig("falseshare", 1000, false);
    config.engine.scheme = SchemeKind::CycleByCycle;
    config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.workload.iters = 500;
    const auto r = runSimulation(config);
    EXPECT_EQ(r.host.rollbacks, 0u);
    EXPECT_EQ(r.violations.total(), 0u);
}

namespace {

/** Speculative adaptive slack that rolls back on every bus and map
 *  violation, on the parallel engine at a pinned host-thread count
 *  (auto could resolve to inline mode on a 1-CPU runner and never
 *  hand a replay window to the manager). */
SimConfig
replayConfig(const std::string &kernel, std::uint32_t host_threads)
{
    SimConfig config;
    config.workload.kernel = kernel;
    config.workload.numThreads = config.target.numCores;
    config.workload.bodies = 256;
    config.workload.timesteps = 1;
    config.workload.fftPoints = 4096;
    config.engine.scheme = SchemeKind::Adaptive;
    config.engine.adaptive.targetViolationRate = 1e-4;
    config.engine.adaptive.violationBand = 0.05;
    config.engine.parallelHost = true;
    config.engine.hostThreads = host_threads;
    config.engine.maxCommittedUops = 60000;
    CheckpointParams &ck = config.engine.checkpoint;
    ck.mode = CheckpointMode::Speculative;
    ck.interval = 2000;
    ck.rollbackOnBus = true;
    ck.rollbackOnMap = true;
    return config;
}

/** Serial cycle-by-cycle reference for @p config's workload. */
RunResult
serialCc(SimConfig config)
{
    config.engine.parallelHost = false;
    config.engine.hostThreads = 0;
    config.engine.scheme = SchemeKind::CycleByCycle;
    config.engine.checkpoint.mode = CheckpointMode::Off;
    return runSimulation(config);
}

} // namespace

TEST(ManagerDrivenReplay, ReplayWindowsRunOnTheManager)
{
    // Every rollback's cycle-by-cycle replay is stepped by the manager
    // alone while the workers stay parked, so the cycles it drove are
    // exactly the replayed ones. Accuracy is checked against serial
    // CC, not bit-equality: outside a replay window the budget stop of
    // a threaded slack run is not a global-cycle cut.
    for (const std::string kernel : {"barnes", "fft"}) {
        const SimConfig base = replayConfig(kernel, 2);
        const RunResult cc = serialCc(base);
        for (const std::uint32_t threads : {2u, 4u}) {
            SCOPED_TRACE(kernel + " hostThreads=" +
                         std::to_string(threads));
            const RunResult r = runSimulation(replayConfig(kernel, threads));
            EXPECT_EQ(r.host.hostThreadsUsed, threads);
            EXPECT_GT(r.host.rollbacks, 0u);
            EXPECT_GT(r.host.replayCycles, 0u);
            EXPECT_EQ(r.host.inlineCycles, r.host.replayCycles);
            EXPECT_GE(r.committedUops, base.engine.maxCommittedUops);
            const double err =
                std::abs(static_cast<double>(r.execCycles) -
                         static_cast<double>(cc.execCycles)) /
                static_cast<double>(cc.execCycles);
            // Every violation rolls back and replays cycle-by-cycle,
            // so only the budget stop separates the run from CC.
            EXPECT_LT(err, 0.005) << r.execCycles << " vs CC "
                                 << cc.execCycles;
        }
    }
}

TEST(ManagerDrivenReplay, WarmupResetInsideReplayKeepsWorkersParked)
{
    // The warmup reset stops the world while replay windows already
    // hold it: the nested pause/resume must neither hand-shake again
    // nor release the workers mid-window.
    SimConfig config = replayConfig("barnes", 4);
    config.engine.warmupUops = 20000;
    const RunResult r = runSimulation(config);
    EXPECT_GT(r.host.rollbacks, 0u);
    EXPECT_EQ(r.host.inlineCycles, r.host.replayCycles);
    // The budget counts the uops committed after the reset.
    EXPECT_GE(r.committedUops, config.engine.maxCommittedUops);
}

TEST(ManagerDrivenReplay, CancelInsideReplayWindowReturnsPromptly)
{
    // The manager never sleeps on the progress board while it drives
    // a window, so it sees a cancel at its next round. The canceller
    // fires as soon as the live-progress mailbox reports a replay; a
    // run that then ended inside the window has a rollback whose
    // replay episode never closed. Retry the rare miss (the window
    // ended before the cancel arrived).
    using clock = std::chrono::steady_clock;
    bool landed_in_window = false;
    for (int attempt = 0; attempt < 5 && !landed_in_window; ++attempt) {
        SimConfig config = replayConfig("barnes", 4);
        config.engine.maxCommittedUops = 0; // run until cancelled
        CancelToken cancel;
        obs::RunProgress progress;
        config.engine.cancel = &cancel;
        config.engine.obs.progress = &progress;
        config.engine.obs.metricsEpoch = 100;
        std::atomic<bool> done{false};
        clock::time_point cancelled_at{};
        std::thread canceller([&] {
            while (!done.load(std::memory_order_acquire)) {
                if (progress.replay.load(std::memory_order_relaxed)) {
                    cancelled_at = clock::now();
                    cancel.requestCancel();
                    return;
                }
                std::this_thread::yield();
            }
        });
        const RunResult r = runSimulation(config);
        const clock::time_point returned_at = clock::now();
        done.store(true, std::memory_order_release);
        canceller.join();
        ASSERT_TRUE(r.cancelled) << "run finished before any replay";
        EXPECT_LT(std::chrono::duration<double>(returned_at -
                                                cancelled_at)
                      .count(),
                  5.0);
        std::size_t rollbacks = 0, replays = 0;
        for (const auto &e : r.forensics.decisions.episodes()) {
            rollbacks += e.kind == obs::EpisodeKind::Rollback;
            replays += e.kind == obs::EpisodeKind::Replay;
        }
        landed_in_window = rollbacks > replays;
    }
    EXPECT_TRUE(landed_in_window)
        << "no cancel landed inside a replay window";
}

TEST(Checkpointer, ExtraCopyBytesArenaWorks)
{
    SimConfig config = measureConfig("pingpong", 1000, false);
    config.workload.iters = 300;
    config.engine.checkpoint.extraCopyBytes = 8 * 1024 * 1024;
    const auto r = runSimulation(config);
    EXPECT_GT(r.host.checkpointsTaken, 0u);
    EXPECT_GT(r.host.checkpointSeconds, 0.0);
}

TEST(SimSystem, WholeWorldSnapshotRoundTrip)
{
    SimConfig config = measureConfig("uniform", 1000, false);
    config.workload.iters = 500;
    SimSystem sys(config);

    SnapshotWriter w0;
    sys.save(w0);
    const std::size_t size0 = w0.size();

    // Restoring the initial snapshot into the same world must be a
    // no-op: a second save produces identical bytes.
    SnapshotReader r(w0.bytes());
    sys.restore(r);
    EXPECT_TRUE(r.exhausted());
    SnapshotWriter w1;
    sys.save(w1);
    EXPECT_EQ(w1.size(), size0);
    EXPECT_EQ(w1.bytes(), w0.bytes());
}

TEST(SimSystem, AccessorsOnFreshWorld)
{
    SimConfig config = measureConfig("pingpong", 1000, false);
    SimSystem sys(config);
    EXPECT_EQ(sys.numCores(), 8u);
    EXPECT_EQ(sys.globalTime(), 0u);
    EXPECT_EQ(sys.maxLocalTime(), 0u);
    EXPECT_FALSE(sys.allFinished());
    EXPECT_EQ(sys.totalCommittedUops(), 0u);
    EXPECT_EQ(sys.workload().name, "pingpong");
}

namespace {

/** Size and XXH64 of one snapshot: a byte-exact pin. */
struct SnapshotPin
{
    std::size_t bytes = 0;
    std::uint64_t digest = 0;
};

SnapshotPin
pinOf(const SnapshotWriter &w)
{
    return {w.size(), xxh64(w.bytes().data(), w.size())};
}

/** The world after a one-host-thread bounded(64) run to 60K
 *  committed uops. */
SnapshotPin
worldPinAfterBoundedRun(const std::string &kernel)
{
    SimConfig config;
    config.workload.kernel = kernel;
    config.workload.numThreads = config.target.numCores;
    config.engine.parallelHost = false;
    config.engine.scheme = SchemeKind::Bounded;
    config.engine.slackBound = 64;
    config.engine.maxCommittedUops = 60000;
    SimSystem sys(config);
    ParallelEngine engine(sys);
    engine.run();
    // Mid-run state: the global map, the MSHRs and the sync arbiter
    // all hold live entries the snapshot must serialize.
    EXPECT_GT(sys.uncore().map().size(), 0u);
    SnapshotWriter w;
    sys.save(w);
    return pinOf(w);
}

} // namespace

TEST(SnapshotBytes, PaddedTypesAreNotRawSnapshottable)
{
    struct Padded
    {
        std::uint8_t a;
        std::uint32_t b;
    };
    struct Spelled
    {
        std::uint8_t a;
        std::uint8_t pad[3];
        std::uint32_t b;
    };
    EXPECT_FALSE(SnapshotWriter::rawSnapshottable<Padded>);
    EXPECT_TRUE(SnapshotWriter::rawSnapshottable<Spelled>);
    EXPECT_TRUE(SnapshotWriter::rawSnapshottable<BusMsg>);
    EXPECT_TRUE(SnapshotWriter::rawSnapshottable<double>);
}

TEST(SnapshotBytes, WorldSnapshotsArePinned)
{
    // Identical logical state must give identical bytes in every
    // process: no uninitialised padding, no hash-map iteration order.
    // The pins also guard layout changes to the map and manager
    // serialization, which must not move a single byte.
    const std::map<std::string, SnapshotPin> pins = {
        {"barnes", {341969, 0xb85241ea42e85400ull}},
        {"fft", {552697, 0x6f7d4899694ff90cull}},
        {"falseshare", {168697, 0x1e82917a390f232dull}},
    };
    for (const auto &[kernel, want] : pins) {
        SCOPED_TRACE(kernel);
        const SnapshotPin got = worldPinAfterBoundedRun(kernel);
        EXPECT_EQ(got.bytes, want.bytes);
        EXPECT_EQ(got.digest, want.digest);
    }
}

TEST(SnapshotBytes, SortedManagerStagingIsPinned)
{
    // Several sources' events staged for sorted service, serialized
    // per source in arrival order after a partial service round.
    SimConfig config;
    config.workload.kernel = "falseshare";
    config.workload.numThreads = config.target.numCores;
    SimSystem sys(config);
    HostStats host;
    ManagerLogic mgr(sys, config.engine, &host);
    mgr.setSorted(true);
    for (CoreId src = 0; src < 4; ++src) {
        for (std::uint32_t i = 0; i < 6; ++i) {
            BusMsg msg;
            msg.addr = Addr{(src * 7 + i * 13) % 32} << 6;
            msg.ts = 10 * i + src;
            msg.seq = i + 1;
            msg.type = i % 2 ? MsgType::GetM : MsgType::GetS;
            msg.src = src;
            ASSERT_TRUE(sys.core(src).outQ().push(msg));
        }
    }
    EXPECT_EQ(mgr.pumpAll(), 24u);
    EXPECT_EQ(mgr.serviceSorted(25), 12u);
    EXPECT_EQ(mgr.pendingDepth(), 12u);
    SnapshotWriter w;
    mgr.save(w);
    const SnapshotPin got = pinOf(w);
    EXPECT_EQ(got.bytes, 632u);
    EXPECT_EQ(got.digest, 0xa1dfefa9d85452f5ull);
}
