/**
 * @file
 * Tests for the CoreComplex idle-skip machinery: an inert core (all
 * in-flight work blocked on inbound messages) must jump its clock to
 * the next relevant time instead of burning one host step per stall
 * cycle, clamp at the pacing limit, and report WaitInbound when
 * free-running with nothing to do. Where it cannot jump (CC pacing),
 * the inert-cycle memo must step it exactly as the full pipeline
 * would.
 */

#include <gtest/gtest.h>

#include "cache/mesi.hh"
#include "core/core_complex.hh"
#include "workload/trace.hh"

using namespace slacksim;

namespace {

SimConfig
oneCoreConfig()
{
    SimConfig config;
    config.target.numCores = 1;
    config.workload.numThreads = 1;
    return config;
}

/** Trace: a single missing load, then End. */
TraceProgram
singleLoadTrace()
{
    TraceProgram prog;
    TraceBuilder b(prog);
    b.load(0x100000, 0);
    b.end();
    return prog;
}

BusMsg
fill(Addr line, Tick ts, CacheKind cache = CacheKind::Data)
{
    BusMsg m;
    m.type = MsgType::Fill;
    m.addr = line;
    m.ts = ts;
    m.grantState = static_cast<std::uint8_t>(MesiState::Exclusive);
    m.cache = cache;
    return m;
}

/**
 * Single-step until the core's data GetS is outstanding and the core
 * is inert: instruction-fetch misses are answered inline, the data
 * miss is left pending. @return data requests seen.
 */
std::size_t
runUntilInert(CoreComplex &cc, int max_steps = 100)
{
    std::size_t data_requests = 0;
    BusMsg msg;
    for (int i = 0; i < max_steps; ++i) {
        cc.cycle(cc.localTime()); // single-step pacing
        while (cc.outQ().pop(msg)) {
            if (msg.cache == CacheKind::Instr)
                cc.inQ().push(fill(msg.addr, msg.ts + 2,
                                   CacheKind::Instr));
            else
                ++data_requests;
        }
        if (data_requests > 0 && i > 20)
            break;
    }
    return data_requests;
}

} // namespace

TEST(CoreComplexSkip, JumpsToInqHeadTimestamp)
{
    const SimConfig config = oneCoreConfig();
    const TraceProgram prog = singleLoadTrace();
    CoreComplex cc(config, 0, &prog, 0x10000);
    const std::size_t requests = runUntilInert(cc);
    ASSERT_GE(requests, 1u); // the data GetS is outstanding

    const Tick before = cc.localTime();
    ASSERT_TRUE(cc.inQ().push(fill(0x100000, 500)));
    const auto outcome = cc.cycle(10000);
    EXPECT_EQ(outcome, CoreComplex::CycleOutcome::Progress);
    // The inert core must jump straight to the fill's timestamp.
    EXPECT_EQ(cc.localTime(), 500u);
    EXPECT_EQ(cc.stats().idleCycles, 500u - before - 1);

    // The next cycle applies the fill and the load completes.
    cc.cycle(10000);
    cc.cycle(10000);
    cc.cycle(10000);
    EXPECT_TRUE(cc.finished());
}

TEST(CoreComplexSkip, ClampsToPacingLimit)
{
    const SimConfig config = oneCoreConfig();
    const TraceProgram prog = singleLoadTrace();
    CoreComplex cc(config, 0, &prog, 0x10000);
    runUntilInert(cc);

    // Empty InQ, nothing internal pending: the skip may only reach
    // max_local + 1.
    const auto outcome = cc.cycle(200);
    EXPECT_EQ(outcome, CoreComplex::CycleOutcome::Progress);
    EXPECT_EQ(cc.localTime(), 201u);
}

TEST(CoreComplexSkip, WaitInboundWhenFreeRunningAndIdle)
{
    const SimConfig config = oneCoreConfig();
    const TraceProgram prog = singleLoadTrace();
    CoreComplex cc(config, 0, &prog, 0x10000);
    runUntilInert(cc);

    const Tick before = cc.localTime();
    const auto outcome = cc.cycle(maxTick - 1);
    EXPECT_EQ(outcome, CoreComplex::CycleOutcome::WaitInbound);
    EXPECT_EQ(cc.localTime(), before); // frozen, not advanced
}

TEST(CoreComplexSkip, FutureHeadDoesNotBlockEarlierJumpTarget)
{
    // A fill whose timestamp lies beyond the pacing limit: the core
    // jumps to the limit, not to the head.
    const SimConfig config = oneCoreConfig();
    const TraceProgram prog = singleLoadTrace();
    CoreComplex cc(config, 0, &prog, 0x10000);
    runUntilInert(cc);

    ASSERT_TRUE(cc.inQ().push(fill(0x100000, 100000)));
    cc.cycle(300);
    EXPECT_EQ(cc.localTime(), 301u);
}

TEST(CoreComplexSkip, BusyCoreNeverSkips)
{
    // A long compute burst keeps the core busy: local time advances
    // strictly one cycle per call even with a generous pacing limit.
    SimConfig config = oneCoreConfig();
    TraceProgram prog;
    prog.codeFootprint = 256;
    TraceBuilder b(prog);
    b.compute(400);
    b.end();
    CoreComplex cc(config, 0, &prog, 0x10000);

    // Answer the I-fetch misses inline.
    for (int i = 0; i < 200 && !cc.finished(); ++i) {
        const Tick before = cc.localTime();
        cc.cycle(maxTick - 2);
        BusMsg msg;
        while (cc.outQ().pop(msg))
            cc.inQ().push(fill(msg.addr, msg.ts + 3, msg.cache));
        if (cc.finished())
            break;
        EXPECT_LE(cc.localTime(), before + 4)
            << "unexpected large jump while busy";
    }
}

// ---- inert-cycle memo -----------------------------------------------------

namespace {

/** Data line of memoTrace()'s load. */
constexpr Addr memoLoadLine = 0x100000;

/**
 * Trace: one missing load followed by 200 ALU micro-ops, only the
 * first of which depends on it. The ALU ops complete but cannot
 * commit behind the load, so the ROB fills and every cycle until the
 * fill is inert yet still counts a fetch-probe L1I hit and a
 * ROB-full stall: the memo replays a non-empty stats delta and an
 * L1I re-stamp.
 */
TraceProgram
memoTrace()
{
    TraceProgram prog;
    TraceBuilder b(prog);
    b.load(memoLoadLine, 200);
    b.end();
    return prog;
}

/**
 * One core stepped under CC pacing (max_local = local time, so the
 * idle skip never jumps). Instruction misses are answered two cycles
 * later; data requests are parked for the test to answer. With
 * @p reference set, every cycle is followed by a save/restore round
 * trip, which clears the memo: the core then runs the full pipeline
 * on every call, the behavior without the memo.
 */
struct CcStepper
{
    CcStepper(const TraceProgram *prog, bool reference,
             const SimConfig &config = oneCoreConfig())
        : cc(config, 0, prog, 0x10000), reference(reference)
    {
    }

    void
    step()
    {
        cc.cycle(cc.localTime());
        BusMsg msg;
        while (cc.outQ().pop(msg)) {
            if (msg.cache == CacheKind::Instr) {
                ++instrRequests;
                lastInstrLine = msg.addr;
                cc.inQ().push(fill(msg.addr, msg.ts + 2,
                                   CacheKind::Instr));
            } else {
                ++dataRequests;
            }
        }
        if (reference)
            roundTrip();
    }

    void
    roundTrip()
    {
        SnapshotWriter w;
        cc.save(w);
        SnapshotReader r(w.bytes());
        cc.restore(r);
    }

    CoreComplex cc;
    bool reference;
    std::size_t instrRequests = 0;
    std::size_t dataRequests = 0;
    Addr lastInstrLine = 0;
};

/** Everything an inert cycle could touch, compared field by field. */
void
expectSameCore(CcStepper &a, CcStepper &b)
{
    CoreStats sa = a.cc.stats();
    sa.zipWith(b.cc.stats(), [](std::uint64_t &x, std::uint64_t y) {
        EXPECT_EQ(x, y);
    });
    EXPECT_EQ(a.cc.localTime(), b.cc.localTime());
    EXPECT_EQ(a.cc.committedUops(), b.cc.committedUops());
    EXPECT_EQ(a.cc.finished(), b.cc.finished());
    EXPECT_EQ(a.cc.l1i().lruClock(), b.cc.l1i().lruClock());
    EXPECT_EQ(a.instrRequests, b.instrRequests);
    EXPECT_EQ(a.dataRequests, b.dataRequests);
}

/** Step both cores in lock step, checking the clocks every cycle. */
void
stepBoth(CcStepper &memo, CcStepper &ref, int steps)
{
    for (int i = 0; i < steps && !memo.cc.finished(); ++i) {
        memo.step();
        ref.step();
        ASSERT_EQ(memo.cc.localTime(), ref.cc.localTime());
        ASSERT_EQ(memo.cc.committedUops(), ref.cc.committedUops());
    }
}

/** Step to 120 cycles: the load's miss is outstanding and the core
 *  has been inert for dozens of cycles. */
void
enterInertRun(CcStepper &memo, CcStepper &ref)
{
    stepBoth(memo, ref, 120);
    ASSERT_EQ(memo.dataRequests, 1u);
    ASSERT_GT(memo.cc.inertCycles(), 50u);
    ASSERT_EQ(ref.cc.inertCycles(), 0u);
    ASSERT_GT(memo.cc.stats().robFullCycles, 50u);
}

/** Deliver the data fill to both cores, due @p delay cycles on. */
void
deliverFill(CcStepper &memo, CcStepper &ref, Tick delay)
{
    const Tick ts = memo.cc.localTime() + delay;
    ASSERT_TRUE(memo.cc.inQ().push(fill(memoLoadLine, ts)));
    ASSERT_TRUE(ref.cc.inQ().push(fill(memoLoadLine, ts)));
}

} // namespace

// Values pinned below come from the full-pipeline core without the
// memo; the lock-step reference re-derives them every run.

TEST(CoreComplexMemo, FillMidRunAppliesAtTheSameCycle)
{
    const TraceProgram prog = memoTrace();
    CcStepper memo(&prog, false), ref(&prog, true);
    enterInertRun(memo, ref);
    deliverFill(memo, ref, 7);

    // The fill is due at 127: the memo must stop replaying there.
    stepBoth(memo, ref, 6);
    const std::uint64_t committed = memo.cc.committedUops();
    stepBoth(memo, ref, 2);
    EXPECT_GT(memo.cc.committedUops(), committed);

    stepBoth(memo, ref, 2000);
    ASSERT_TRUE(memo.cc.finished());
    expectSameCore(memo, ref);
    EXPECT_EQ(memo.cc.localTime(), 181u);
    EXPECT_EQ(memo.cc.stats().robFullCycles, 102u);
    EXPECT_EQ(memo.cc.stats().l1iHits, 153u);
}

TEST(CoreComplexMemo, SnoopEndsTheRun)
{
    const TraceProgram prog = memoTrace();
    CcStepper memo(&prog, false), ref(&prog, true);
    enterInertRun(memo, ref);

    // Invalidate the instruction line the front end last filled: the
    // cycle that applies the snoop must run the pipeline, whose fetch
    // probe then misses and asks for the line again.
    BusMsg snoop;
    snoop.type = MsgType::SnoopInv;
    snoop.addr = memo.lastInstrLine;
    snoop.cache = CacheKind::Instr;
    snoop.ts = memo.cc.localTime();
    ASSERT_TRUE(memo.cc.inQ().push(snoop));
    ASSERT_TRUE(ref.cc.inQ().push(snoop));
    const std::uint64_t inert = memo.cc.inertCycles();
    const std::size_t instr_requests = memo.instrRequests;
    stepBoth(memo, ref, 1);
    EXPECT_EQ(memo.cc.inertCycles(), inert);
    EXPECT_EQ(memo.cc.stats().snoopInvalidations, 1u);
    EXPECT_EQ(memo.instrRequests, instr_requests + 1);
    expectSameCore(memo, ref);

    deliverFill(memo, ref, 3);
    stepBoth(memo, ref, 2000);
    ASSERT_TRUE(memo.cc.finished());
    expectSameCore(memo, ref);
    EXPECT_EQ(memo.cc.localTime(), 178u);
    EXPECT_EQ(memo.cc.stats().l1iHits, 148u);
}

TEST(CoreComplexMemo, RestoreMidRunMatchesTheFullPipeline)
{
    const TraceProgram prog = memoTrace();
    CcStepper memo(&prog, false), ref(&prog, true);
    // Cycle 0 of a fresh core is busy: its first fetch misses. A memo
    // that survived restore() would replay an inert cycle there.
    SnapshotWriter start;
    memo.cc.save(start);
    enterInertRun(memo, ref);

    SnapshotReader r1(start.bytes());
    memo.cc.restore(r1);
    SnapshotReader r2(start.bytes());
    ref.cc.restore(r2);
    memo.dataRequests = ref.dataRequests = 0;
    const std::size_t instr_requests = memo.instrRequests;
    stepBoth(memo, ref, 1);
    EXPECT_EQ(memo.instrRequests, instr_requests + 1);

    enterInertRun(memo, ref);
    deliverFill(memo, ref, 5);
    stepBoth(memo, ref, 2000);
    ASSERT_TRUE(memo.cc.finished());
    expectSameCore(memo, ref);
    EXPECT_EQ(memo.cc.localTime(), 180u);
    EXPECT_EQ(memo.cc.stats().robFullCycles, 101u);
}

TEST(CoreComplexMemo, WarmupResetMidRunMatchesTheFullPipeline)
{
    const TraceProgram prog = memoTrace();
    CcStepper memo(&prog, false), ref(&prog, true);
    enterInertRun(memo, ref);

    memo.cc.resetStats();
    ref.cc.resetStats();
    const std::uint64_t inert = memo.cc.inertCycles();
    stepBoth(memo, ref, 10);
    // Host-side work survives the reset; the replayed counts restart.
    EXPECT_EQ(memo.cc.inertCycles(), inert + 10);
    EXPECT_EQ(memo.cc.stats().robFullCycles, 10u);
    EXPECT_EQ(memo.cc.stats().l1iHits, 10u);

    deliverFill(memo, ref, 4);
    stepBoth(memo, ref, 2000);
    ASSERT_TRUE(memo.cc.finished());
    expectSameCore(memo, ref);
    EXPECT_EQ(memo.cc.localTime(), 188u);
    EXPECT_EQ(memo.cc.stats().robFullCycles, 15u);
}

TEST(CoreComplexMemo, TimerCompletionEndsTheRun)
{
    // With a 5-cycle ALU the core idles between issue and completion
    // with a timer pending and nothing inbound: the memo may replay
    // those cycles but must hand the completion cycle to writeback.
    SimConfig config = oneCoreConfig();
    config.target.core.aluLatency = 5;
    TraceProgram prog;
    TraceBuilder b(prog);
    b.compute(8);
    b.end();
    CcStepper memo(&prog, false, config), ref(&prog, true, config);
    stepBoth(memo, ref, 200);
    ASSERT_TRUE(memo.cc.finished());
    EXPECT_GT(memo.cc.inertCycles(), 0u);
    expectSameCore(memo, ref);
    EXPECT_EQ(memo.cc.localTime(), 10u);
}
