/**
 * @file
 * Golden regression test: the cycle-by-cycle gold standard is fully
 * deterministic (integer timing arithmetic, seeded generators, sorted
 * event service), so its results for fixed configurations are pinned
 * exactly. Any change to these numbers means the simulated machine's
 * behavior changed — which must be a deliberate, reviewed decision,
 * never an accident of refactoring.
 *
 * To regenerate after an intentional model change, run each config
 * below on one host thread and update the table (the
 * generation snippet lives in the repo history / EXPERIMENTS notes).
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/run.hh"

using namespace slacksim;

namespace {

struct Golden
{
    std::uint64_t execCycles;
    std::uint64_t committedUops;
    std::uint64_t l1dMisses;
    std::uint64_t l1iMisses;
    std::uint64_t busRequests;
    std::uint64_t l2Misses;
};

const std::map<std::string, Golden> goldenValues = {
    {"barnes", {36900ull, 59970ull, 3105ull, 2009ull, 5288ull, 2469ull}},
    {"fft", {40914ull, 81968ull, 1495ull, 2282ull, 3801ull, 3218ull}},
    {"lu", {16322ull, 7688ull, 444ull, 482ull, 1010ull, 610ull}},
    {"water", {5267ull, 4536ull, 263ull, 286ull, 652ull, 337ull}},
    {"pingpong", {60797ull, 33616ull, 2484ull, 128ull, 2615ull, 129ull}},
    {"falseshare", {6300ull, 16816ull, 2487ull, 128ull, 2717ull, 132ull}},
    {"uniform", {10320ull, 11345ull, 2161ull, 519ull, 2659ull, 2134ull}},
    {"ocean", {4706ull, 4384ull, 318ull, 278ull, 598ull, 527ull}},
    {"radix", {13548ull, 9440ull, 4132ull, 592ull, 4935ull, 924ull}},
    {"syncstorm",
     {57985ull, 26116ull, 4208ull, 128ull, 4636ull, 136ull}},
};

/**
 * Every simulated statistic a run reports: all CoreStats fields
 * (summed over cores), all UncoreStats fields (bus, L2, c2c, sync),
 * the violation counts and the rollbacks. Pinning them all makes any
 * change to what an inert cycle records — or skips — visible, not
 * only changes to the headline numbers above.
 */
struct PinnedStats
{
    Tick execCycles;
    std::uint64_t committedUops;
    CoreStats core;
    UncoreStats uncore;
    std::uint64_t busViolations;
    std::uint64_t mapViolations;
    std::uint64_t rollbacks;
};

/** Keyed "kernel/scheme"; generated on one host thread. */
const std::map<std::string, PinnedStats> pinnedStats = {
    {"barnes/cc",
     {36900, 59970,
      {59970, 9220, 721, 436, 213815, 65383, 270, 76254, 0,
       7261, 3105, 40, 1575, 5, 263, 80226, 2009, 1164, 485},
      {5288, 3209, 1964, 2469, 0, 287, 587, 1301, 500, 198, 28, 5},
      0, 0, 0}},
    {"barnes/adaptive",
     {36953, 59970,
      {59970, 9220, 721, 436, 106879, 27813, 204, 27686, 145170,
       7252, 3070, 39, 861, 4, 259, 42647, 2009, 1174, 497},
      {5295, 3825, 1974, 2469, 0, 287, 589, 1312, 511, 198, 25, 5},
      180, 0, 0}},
    {"barnes/quantum",
     {37586, 59970,
      {59970, 9220, 721, 436, 37830, 11536, 160, 13832, 235766,
       7267, 3022, 35, 375, 4, 262, 26385, 2009, 1166, 495},
      {5289, 5842, 1958, 2469, 0, 287, 596, 1303, 510, 198, 26, 5},
      564, 4, 0}},
    {"barnes/bounded64",
     {44098, 59970,
      {59970, 9220, 721, 436, 15912, 4730, 222, 5868, 316645,
       7269, 3017, 38, 186, 4, 261, 19583, 2008, 1158, 493},
      {5282, 58825, 1956, 2466, 0, 284, 595, 1295, 508, 198, 30, 5},
      2026, 32, 0}},
    {"fft/cc",
     {40914, 81968,
      {81968, 19456, 13312, 48, 240142, 65647, 47432, 41221, 0,
       30695, 1495, 1096, 0, 11, 13, 85734, 2282, 1121, 245},
      {3801, 986, 90, 3218, 9, 1042, 469, 1314, 245, 0, 0, 6},
      0, 0, 0}},
    {"fft/adaptive",
     {40691, 81968,
      {81968, 19456, 13312, 48, 114653, 32208, 17917, 19465, 157746,
       30687, 1495, 1104, 0, 11, 13, 52288, 2280, 1124, 245},
      {3799, 1156, 90, 3216, 9, 1040, 469, 1312, 245, 0, 0, 6},
      42, 0, 0}},
    {"fft/quantum",
     {40874, 81968,
      {81968, 19456, 13312, 48, 41111, 10622, 10351, 5969, 254640,
       30692, 1495, 1096, 0, 10, 13, 30709, 2280, 1125, 245},
      {3798, 2188, 90, 3216, 9, 1040, 469, 1312, 245, 0, 0, 6},
      230, 0, 0}},
    {"fft/bounded64",
     {45250, 81968,
      {81968, 19456, 13312, 48, 16783, 4111, 5701, 1565, 320418,
       30659, 1513, 1114, 0, 10, 20, 24179, 2261, 1128, 255},
      {3804, 40445, 99, 3196, 11, 1020, 479, 1313, 255, 0, 0, 6},
      1461, 15, 0}},
    {"lu/cc",
     {16322, 7688,
      {7688, 3680, 320, 104, 51547, 30944, 1, 86321, 0,
       3245, 444, 311, 0, 0, 84, 32868, 482, 90, 201},
      {1010, 722, 115, 610, 0, 0, 201, 90, 201, 0, 0, 13},
      0, 0, 0}},
    {"lu/adaptive",
     {16294, 7688,
      {7688, 3680, 320, 104, 20256, 10151, 15, 35518, 75985,
       3247, 442, 311, 0, 0, 82, 12075, 482, 88, 199},
      {1006, 744, 115, 610, 0, 0, 199, 88, 199, 0, 0, 13},
      24, 0, 0}},
    {"lu/quantum",
     {16404, 7688,
      {7688, 3680, 320, 104, 9155, 4214, 3, 12096, 109932,
       3245, 444, 311, 0, 0, 84, 6138, 482, 90, 201},
      {1010, 817, 115, 610, 0, 0, 201, 90, 201, 0, 0, 13},
      42, 2, 0}},
    {"lu/bounded64",
     {17218, 7688,
      {7688, 3680, 320, 104, 3990, 745, 82, 2723, 130109,
       3246, 443, 311, 0, 0, 83, 2669, 482, 89, 200},
      {1008, 6551, 115, 610, 0, 0, 200, 89, 200, 0, 0, 13},
      245, 23, 0}},
    {"water/cc",
     {5267, 4536,
      {4536, 347, 187, 286, 30948, 1260, 0, 26939, 0,
       316, 263, 0, 0, 0, 103, 2391, 286, 210, 106},
      {652, 235, 78, 337, 0, 0, 134, 210, 106, 123, 28, 5},
      0, 0, 0}},
    {"water/adaptive",
     {5293, 4536,
      {4536, 347, 187, 286, 5354, 203, 0, 5132, 33855,
       316, 263, 0, 0, 0, 103, 1334, 286, 209, 108},
      {652, 409, 77, 337, 0, 0, 135, 209, 108, 123, 27, 5},
      45, 0, 0}},
    {"water/quantum",
     {5278, 4536,
      {4536, 347, 187, 286, 5516, 243, 0, 4936, 33931,
       317, 264, 0, 0, 0, 101, 1374, 286, 211, 106},
      {651, 308, 79, 337, 0, 0, 134, 211, 106, 123, 29, 5},
      30, 0, 0}},
    {"water/bounded64",
     {6594, 4536,
      {4536, 347, 187, 286, 2602, 158, 0, 2528, 48307,
       317, 268, 0, 0, 0, 98, 1289, 286, 215, 106},
      {652, 5938, 82, 337, 0, 0, 135, 215, 106, 123, 33, 5},
      216, 7, 0}},
    {"pingpong/cc",
     {60797, 33616,
      {33616, 2400, 2400, 4816, 13609, 458643, 0, 473296, 0,
       4712, 2484, 1, 0, 0, 3, 466163, 128, 2483, 68},
      {2615, 67, 83, 129, 0, 0, 2400, 2483, 68, 2400, 2399, 2},
      0, 0, 0}},
    {"pingpong/adaptive",
     {87815, 33616,
      {33616, 2400, 2400, 4816, 2280, 135295, 0, 133554, 556586,
       4712, 2484, 1, 0, 0, 3, 142815, 128, 2483, 68},
      {2615, 82, 83, 129, 0, 0, 2400, 2483, 68, 2400, 2399, 2},
      3, 0, 0}},
    {"pingpong/quantum",
     {60850, 33616,
      {33616, 2400, 2400, 4816, 2328, 80541, 0, 79375, 395253,
       4712, 2484, 1, 0, 0, 3, 88061, 128, 2483, 68},
      {2615, 77, 83, 129, 0, 0, 2400, 2483, 68, 2400, 2399, 2},
      2, 0, 0}},
    {"pingpong/bounded64",
     {205954, 33616,
      {33616, 2400, 2400, 4816, 833, 48112, 0, 45114, 1590348,
       4763, 2434, 1, 0, 0, 2, 55632, 128, 2433, 17},
      {2564, 521, 33, 129, 0, 0, 2400, 2433, 17, 2400, 2399, 2},
      24, 13, 0}},
    {"falseshare/cc",
     {6300, 16816,
      {16816, 2400, 2400, 16, 14046, 30592, 35419, 2230, 0,
       2468, 2487, 2133, 0, 0, 102, 33898, 128, 2557, 35},
      {2717, 181, 166, 132, 0, 0, 2317, 2557, 35, 0, 0, 2},
      0, 0, 0}},
    {"falseshare/adaptive",
     {6522, 16816,
      {16816, 2400, 2400, 16, 2740, 14149, 16079, 845, 30585,
       2465, 2466, 2152, 0, 0, 115, 17454, 128, 2554, 39},
      {2709, 1525, 148, 132, 0, 0, 2314, 2554, 39, 0, 0, 2},
      326, 101, 0}},
    {"falseshare/quantum",
     {7103, 16816,
      {16816, 2400, 2400, 16, 2796, 11750, 13530, 515, 38283,
       2454, 2506, 2143, 0, 0, 96, 15049, 128, 2581, 50},
      {2730, 4716, 170, 132, 0, 0, 2332, 2581, 50, 0, 0, 2},
      741, 278, 0}},
    {"falseshare/bounded64",
     {20418, 16816,
      {16816, 2400, 2400, 16, 1340, 8851, 10627, 313, 149387,
       2421, 2506, 2212, 0, 0, 61, 12119, 128, 2555, 74},
      {2695, 13718, 130, 132, 0, 0, 2372, 2555, 74, 0, 0, 2},
      205, 91, 0}},
    {"uniform/cc",
     {10320, 11345,
      {11345, 1729, 671, 16, 60573, 8809, 8603, 9056, 0,
       911, 2161, 8, 4902, 70, 12, 11618, 519, 173, 233},
      {2659, 819, 110, 2134, 0, 24, 333, 188, 244, 0, 0, 2},
      0, 0, 0}},
    {"uniform/adaptive",
     {10223, 11345,
      {11345, 1729, 671, 16, 19959, 4827, 4693, 4165, 49010,
       910, 2123, 8, 2800, 69, 13, 7638, 519, 175, 234},
      {2660, 1291, 109, 2134, 0, 24, 335, 190, 245, 0, 0, 2},
      138, 0, 0}},
    {"uniform/quantum",
     {10274, 11345,
      {11345, 1729, 671, 16, 12117, 1760, 1624, 1328, 63929,
       910, 2085, 8, 1077, 69, 12, 4573, 519, 174, 233},
      {2659, 2165, 110, 2134, 0, 24, 334, 189, 244, 0, 0, 2},
      301, 0, 0}},
    {"uniform/bounded64",
     {12034, 11345,
      {11345, 1729, 671, 16, 6217, 845, 776, 424, 85847,
       910, 2073, 8, 616, 70, 12, 3660, 522, 173, 232},
      {2664, 36570, 111, 2138, 1, 28, 333, 189, 244, 0, 0, 2},
      1097, 2, 0}},
    {"ocean/cc",
     {4706, 4384,
      {4384, 368, 128, 32, 32640, 0, 0, 5061, 0,
       304, 318, 0, 0, 0, 2, 1096, 278, 13, 58},
      {598, 536, 5, 527, 0, 0, 64, 13, 58, 8, 4, 2},
      0, 0, 0}},
    {"ocean/adaptive",
     {4700, 4384,
      {4384, 368, 128, 32, 5176, 0, 0, 911, 30587,
       304, 318, 0, 0, 0, 2, 1096, 278, 13, 58},
      {598, 596, 5, 527, 0, 0, 64, 13, 58, 8, 5, 2},
      7, 0, 0}},
    {"ocean/quantum",
     {4698, 4384,
      {4384, 368, 128, 32, 5408, 0, 0, 780, 30472,
       304, 318, 0, 0, 0, 2, 1096, 278, 13, 58},
      {598, 549, 5, 527, 0, 0, 64, 13, 58, 8, 5, 2},
      13, 0, 0}},
    {"ocean/bounded64",
     {5506, 4384,
      {4384, 368, 128, 32, 2109, 0, 0, 298, 40213,
       304, 318, 0, 0, 0, 2, 1096, 278, 13, 58},
      {598, 7294, 5, 527, 0, 0, 64, 13, 58, 8, 4, 2},
      203, 4, 0}},
    {"radix/cc",
     {13548, 9440,
      {9440, 5920, 1216, 64, 76022, 26601, 33359, 12249, 0,
       3259, 4132, 286, 1465743, 20, 954, 28683, 592, 1634, 495},
      {4935, 2942, 2838, 924, 0, 0, 962, 1810, 495, 0, 0, 8},
      0, 0, 0}},
    {"radix/adaptive",
     {13640, 9440,
      {9440, 5920, 1216, 64, 31864, 12539, 18242, 5693, 60487,
       3270, 4127, 286, 520067, 20, 758, 14622, 592, 1671, 497},
      {4933, 3713, 2826, 924, 0, 0, 969, 1837, 498, 0, 0, 8},
      230, 7, 0}},
    {"radix/quantum",
     {13674, 9440,
      {9440, 5920, 1216, 64, 16433, 5822, 7047, 2524, 84077,
       3269, 4119, 287, 346094, 20, 355, 7909, 592, 1665, 495},
      {4925, 6638, 2828, 924, 0, 0, 959, 1833, 496, 0, 0, 8},
      685, 35, 0}},
    {"radix/bounded64",
     {17090, 9440,
      {9440, 5920, 1216, 64, 9218, 3561, 4084, 1762, 121173,
       3287, 4105, 280, 204221, 21, 234, 5642, 592, 1674, 495},
      {4915, 98741, 2816, 924, 0, 0, 957, 1846, 496, 0, 0, 8},
      2354, 355, 0}},
    {"syncstorm/cc",
     {57985, 26116,
      {26116, 2400, 2400, 7216, 14268, 436046, 0, 453200, 0,
       2692, 4208, 0, 0, 0, 300, 441074, 128, 4200, 300},
      {4636, 2624, 1800, 136, 0, 0, 2400, 4200, 300, 2400, 2100, 302},
      0, 0, 0}},
    {"syncstorm/adaptive",
     {57778, 26116,
      {26116, 2400, 2400, 7216, 3549, 228878, 0, 232310, 220154,
       2692, 4208, 0, 0, 0, 300, 233907, 128, 4200, 300},
      {4636, 2230, 1800, 136, 0, 0, 2400, 4200, 300, 2400, 2100, 302},
      261, 1, 0}},
    {"syncstorm/quantum",
     {57980, 26116,
      {26116, 2400, 2400, 7216, 2348, 88721, 0, 87966, 366102,
       2692, 4208, 0, 0, 0, 300, 93751, 128, 4200, 300},
      {4636, 2434, 1800, 136, 0, 0, 2400, 4200, 300, 2400, 2100, 302},
      387, 23, 0}},
    {"syncstorm/bounded64",
     {192706, 26116,
      {26116, 2400, 2400, 7216, 786, 57315, 0, 54470, 1477518,
       2692, 4208, 0, 0, 0, 300, 62342, 128, 4200, 300},
      {4636, 5843, 1800, 136, 0, 0, 2400, 4200, 300, 2400, 2100, 302},
      830, 37, 0}},
    {"barnes/spec",
     {36900, 59970,
      {59970, 9220, 721, 436, 213815, 65383, 270, 76254, 0,
       7261, 3105, 40, 1575, 5, 263, 80226, 2009, 1164, 485},
      {5288, 3209, 1964, 2469, 0, 287, 587, 1301, 500, 198, 28, 5},
      0, 0, 19}},
};

SimConfig
goldenConfig(const std::string &kernel)
{
    SimConfig c;
    c.workload.kernel = kernel;
    c.workload.numThreads = 8;
    c.workload.iters = 300;
    c.workload.bodies = 128;
    c.workload.timesteps = 1;
    c.workload.fftPoints = 1024;
    c.workload.matrixN = 32;
    c.workload.blockB = 8;
    c.workload.molecules = 16;
    c.workload.footprintBytes = 64 * 1024;
    c.engine.parallelHost = false;
    c.engine.scheme = SchemeKind::CycleByCycle;
    return c;
}

} // namespace

class GoldenRun : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenRun, CycleByCycleResultsArePinned)
{
    const std::string kernel = GetParam();
    const Golden &expect = goldenValues.at(kernel);
    const RunResult r = runSimulation(goldenConfig(kernel));
    EXPECT_EQ(r.execCycles, expect.execCycles);
    EXPECT_EQ(r.committedUops, expect.committedUops);
    EXPECT_EQ(r.coreTotal.l1dMisses, expect.l1dMisses);
    EXPECT_EQ(r.coreTotal.l1iMisses, expect.l1iMisses);
    EXPECT_EQ(r.uncore.busRequests, expect.busRequests);
    EXPECT_EQ(r.uncore.l2Misses, expect.l2Misses);
    EXPECT_EQ(r.violations.total(), 0u); // CC never violates
}

TEST_P(GoldenRun, ParallelEngineReproducesGoldenValues)
{
    const std::string kernel = GetParam();
    const Golden &expect = goldenValues.at(kernel);
    SimConfig config = goldenConfig(kernel);
    config.engine.parallelHost = true;
    const RunResult r = runSimulation(config);
    EXPECT_EQ(r.execCycles, expect.execCycles);
    EXPECT_EQ(r.committedUops, expect.committedUops);
    EXPECT_EQ(r.uncore.busRequests, expect.busRequests);
}

TEST_P(GoldenRun, BothEnginesReproduceGoldenValues)
{
    // Both engines land on the pinned goldens, L2 misses included,
    // with no violation counted.
    const std::string kernel = GetParam();
    const Golden &expect = goldenValues.at(kernel);
    for (const bool parallel : {false, true}) {
        SCOPED_TRACE(testing::Message() << "parallel=" << parallel);
        SimConfig config = goldenConfig(kernel);
        config.engine.parallelHost = parallel;
        const RunResult r = runSimulation(config);
        EXPECT_EQ(r.execCycles, expect.execCycles);
        EXPECT_EQ(r.committedUops, expect.committedUops);
        EXPECT_EQ(r.uncore.busRequests, expect.busRequests);
        EXPECT_EQ(r.uncore.l2Misses, expect.l2Misses);
        EXPECT_EQ(r.violations.total(), 0u);
    }
}

namespace {

void
expectPinned(const RunResult &r, const PinnedStats &expect)
{
    EXPECT_EQ(r.execCycles, expect.execCycles);
    EXPECT_EQ(r.committedUops, expect.committedUops);
    CoreStats core = r.coreTotal;
    int field = 0;
    core.zipWith(expect.core, [&](std::uint64_t &got, std::uint64_t want) {
        EXPECT_EQ(got, want) << "CoreStats field #" << field;
        ++field;
    });
    const UncoreStats &u = r.uncore;
    const UncoreStats &e = expect.uncore;
    EXPECT_EQ(u.busRequests, e.busRequests);
    EXPECT_EQ(u.busQueueingCycles, e.busQueueingCycles);
    EXPECT_EQ(u.l2Hits, e.l2Hits);
    EXPECT_EQ(u.l2Misses, e.l2Misses);
    EXPECT_EQ(u.l2Writebacks, e.l2Writebacks);
    EXPECT_EQ(u.backInvalidations, e.backInvalidations);
    EXPECT_EQ(u.cacheToCacheTransfers, e.cacheToCacheTransfers);
    EXPECT_EQ(u.invalidationsSent, e.invalidationsSent);
    EXPECT_EQ(u.downgradesSent, e.downgradesSent);
    EXPECT_EQ(u.lockAcquires, e.lockAcquires);
    EXPECT_EQ(u.lockQueued, e.lockQueued);
    EXPECT_EQ(u.barrierEpisodes, e.barrierEpisodes);
    EXPECT_EQ(r.violations.busViolations, expect.busViolations);
    EXPECT_EQ(r.violations.mapViolations, expect.mapViolations);
    EXPECT_EQ(r.host.rollbacks, expect.rollbacks);
}

} // namespace

TEST_P(GoldenRun, CycleByCycleStatisticsArePinnedOnEveryEngine)
{
    // CC is the same machine on every engine and thread count.
    const std::string kernel = GetParam();
    const PinnedStats &expect = pinnedStats.at(kernel + "/cc");
    {
        SCOPED_TRACE("serial");
        expectPinned(runSimulation(goldenConfig(kernel)), expect);
    }
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << "hostThreads=" << threads);
        SimConfig config = goldenConfig(kernel);
        config.engine.parallelHost = true;
        config.engine.hostThreads = threads;
        const RunResult r = runSimulation(config);
        expectPinned(r, expect);
        EXPECT_GT(r.host.inertCycles, 0u);
    }
}

namespace {

/** Both ways to ask for one host thread: they must be one engine, so
 *  slack schemes (whose results depend on the host's service order)
 *  pin the same numbers on each. */
std::vector<SimConfig>
oneThreadSpellings(const SimConfig &base)
{
    SimConfig serial = base;
    serial.engine.parallelHost = false;
    serial.engine.hostThreads = 0;
    SimConfig inline_ = base;
    inline_.engine.parallelHost = true;
    inline_.engine.hostThreads = 1;
    return {serial, inline_};
}

} // namespace

TEST_P(GoldenRun, SlackStatisticsArePinnedOnOneHostThread)
{
    const std::string kernel = GetParam();
    struct Scheme
    {
        const char *key;
        SchemeKind kind;
    };
    for (const Scheme s : {Scheme{"adaptive", SchemeKind::Adaptive},
                           Scheme{"quantum", SchemeKind::Quantum},
                           Scheme{"bounded64", SchemeKind::Bounded}}) {
        SimConfig config = goldenConfig(kernel);
        config.engine.scheme = s.kind;
        if (s.kind == SchemeKind::Bounded)
            config.engine.slackBound = 64;
        for (const SimConfig &c : oneThreadSpellings(config)) {
            SCOPED_TRACE(testing::Message()
                         << s.key << " parallelHost="
                         << c.engine.parallelHost);
            expectPinned(runSimulation(c),
                         pinnedStats.at(kernel + "/" + s.key));
        }
    }
}

TEST(GoldenSpeculative, RollbackRunStatisticsArePinned)
{
    SimConfig config = goldenConfig("barnes");
    config.engine.scheme = SchemeKind::Adaptive;
    CheckpointParams &ck = config.engine.checkpoint;
    ck.mode = CheckpointMode::Speculative;
    ck.interval = 2000;
    ck.rollbackOnBus = true;
    ck.rollbackOnMap = true;
    for (const SimConfig &c : oneThreadSpellings(config)) {
        SCOPED_TRACE(testing::Message()
                     << "parallelHost=" << c.engine.parallelHost);
        const RunResult r = runSimulation(c);
        ASSERT_GT(r.host.rollbacks, 0u);
        expectPinned(r, pinnedStats.at("barnes/spec"));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, GoldenRun,
    ::testing::Values("barnes", "fft", "lu", "water", "pingpong",
                      "falseshare", "uniform", "ocean", "radix",
                      "syncstorm"),
    [](const auto &info) { return info.param; });
