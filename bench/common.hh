/**
 * @file
 * Shared bench-harness helpers: the paper's experimental setup scaled
 * to tractable run lengths, plus flag handling common to every
 * table/figure binary.
 *
 * Scaling note (see EXPERIMENTS.md): the paper simulates 100M
 * committed instructions per run on a 2x4-core Xeon host. These
 * harnesses default to much shorter windows so the full suite runs in
 * minutes inside a 1-CPU container; pass --uops=... to lengthen runs.
 */

#ifndef SLACKSIM_BENCH_COMMON_HH
#define SLACKSIM_BENCH_COMMON_HH

#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "core/run.hh"
#include "obs/obs_flags.hh"
#include "util/logging.hh"
#include "util/options.hh"

namespace slacksim::bench {

/**
 * Flags every table/figure harness accepts: the shared run knobs,
 * CSV export, and the observability outputs. Harness-specific flags
 * ride in via @p extra.
 */
inline std::vector<OptionSpec>
commonSpecs(std::initializer_list<OptionSpec> extra = {})
{
    std::vector<OptionSpec> specs = {
        {"uops", "N", "committed micro-op budget per run"},
        {"kernel", "NAME", "run only this workload kernel"},
        {"cores", "N", "simulated core count (default 8)"},
        {"serial", "", "run on one host thread (the deterministic reference)"},
        {"verbose", "", "keep warn/inform chatter on"},
        {"csv", "PREFIX", "also write each table as PREFIX<table>.csv"},
    };
    specs.insert(specs.end(), extra.begin(), extra.end());
    for (const auto &spec : obs::obsOptionSpecs())
        specs.push_back(spec);
    return specs;
}

/** --help / unknown-flag handling for a bench harness. */
inline void
checkFlags(const Options &opts, const std::string &tool,
           std::initializer_list<OptionSpec> extra = {})
{
    opts.enforceKnown(tool, commonSpecs(extra));
}

/** Paper Table 1 input sets (LU block 16; FFT scaled, see docs). */
inline SimConfig
paperSetup(const std::string &kernel, std::uint64_t max_uops)
{
    SimConfig config;
    config.workload.kernel = kernel;
    config.workload.numThreads = config.target.numCores;
    config.workload.bodies = 1024;   // Barnes: 1024 bodies
    config.workload.timesteps = 2;
    config.workload.fftPoints = 16384; // paper: 64K (see EXPERIMENTS)
    config.workload.matrixN = 256;   // LU: 256x256
    config.workload.blockB = 16;
    config.workload.molecules = 216; // Water-Nsq: 216 molecules
    config.engine.maxCommittedUops = max_uops;
    return config;
}

/** The four Splash benchmarks in paper order, or a --kernel override. */
inline std::vector<std::string>
kernelList(const Options &opts)
{
    const std::string one = opts.get("kernel", "");
    if (!one.empty())
        return {one};
    return {"barnes", "fft", "lu", "water"};
}

/** Shared flags: --uops, --serial, --quiet. */
inline std::uint64_t
uopBudget(const Options &opts, std::uint64_t fallback)
{
    return opts.getUint("uops", fallback);
}

inline bool
parallelHost(const Options &opts)
{
    return !opts.has("serial");
}

inline void
applyCommonFlags(const Options &opts, SimConfig &config)
{
    config.engine.parallelHost = parallelHost(opts);
    if (opts.has("cores")) {
        config.target.numCores =
            static_cast<std::uint32_t>(opts.getUint("cores", 8));
        config.workload.numThreads = config.target.numCores;
    }
    obs::applyObsOptions(opts, config.engine.obs);
    setQuietLogging(!opts.has("verbose"));
}

/**
 * Pin a cycle-by-cycle run to the thread mode speculative replay uses,
 * so its wall time is the model's Tcc. The parallel engine steps every
 * replay window on the manager thread alone (workers parked), which
 * is hostThreads=1 inline mode. Threaded CC at the auto thread count
 * runs lock-step across host threads and measured about 4x slower on
 * a 4-CPU host (EXPERIMENTS.md, "Which Tcc the model gets"), so it
 * would overprice the F*Tcc replay term.
 */
inline void
pinToReplayThreads(SimConfig &config)
{
    if (config.engine.parallelHost)
        config.engine.hostThreads = 1;
}

/** Announce a harness and its knobs on stdout. */
inline void
banner(const std::string &what, const Options &opts,
       std::uint64_t uops)
{
    std::cout << "# " << what << "\n"
              << "# host="
              << (parallelHost(opts) ? "parallel" : "one host thread")
              << " uop-budget=" << uops
              << "  (paper: 100M instructions on 2x quad-core Xeon;"
              << " scaled, see EXPERIMENTS.md)\n\n";
}

} // namespace slacksim::bench

#endif // SLACKSIM_BENCH_COMMON_HH
