/**
 * @file
 * Quickstart: simulate the paper's 8-core CMP running the FFT kernel
 * under a few slack schemes and print what happens to speed and
 * violations.
 *
 * Usage:
 *   quickstart [--kernel=fft] [--uops=400000] [--serial]
 */

#include <iostream>

#include "core/run.hh"
#include "obs/obs_flags.hh"
#include "util/options.hh"

using namespace slacksim;

namespace {

std::vector<OptionSpec>
flagSpecs()
{
    std::vector<OptionSpec> specs = {
        {"kernel", "NAME", "workload kernel (default fft)"},
        {"uops", "N", "committed micro-op budget (default 400000)"},
        {"serial", "", "run on one host thread (the deterministic reference)"},
    };
    for (const auto &spec : obs::obsOptionSpecs())
        specs.push_back(spec);
    return specs;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.enforceKnown("quickstart: slack schemes on one kernel",
                      flagSpecs());
    const std::string kernel = opts.get("kernel", "fft");
    const std::uint64_t uops = opts.getUint("uops", 400000);
    const bool parallel = !opts.has("serial");

    std::cout << "SlackSim quickstart: kernel=" << kernel
              << " uop-budget=" << uops
              << " host=" << (parallel ? "parallel" : "serial")
              << "\n\n";

    // 1. Cycle-by-cycle: the accuracy gold standard.
    SimConfig cc = paperConfig(kernel, uops);
    cc.engine.parallelHost = parallel;
    cc.engine.scheme = SchemeKind::CycleByCycle;
    // The later configs copy from `cc`, so every run honours the
    // observability flags; the files end up describing the last run.
    obs::applyObsOptions(opts, cc.engine.obs);
    const RunResult r_cc = runSimulation(cc);
    r_cc.printSummary(std::cout);
    std::cout << "\n";

    // 2. Bounded slack: cores may drift up to 10 cycles apart.
    SimConfig bounded = cc;
    bounded.engine.scheme = SchemeKind::Bounded;
    bounded.engine.slackBound = 10;
    const RunResult r_b = runSimulation(bounded);
    r_b.printSummary(std::cout);
    std::cout << "\n";

    // 3. Adaptive slack: hold the violation rate at 0.01%.
    SimConfig adaptive = cc;
    adaptive.engine.scheme = SchemeKind::Adaptive;
    adaptive.engine.adaptive.targetViolationRate = 1e-4;
    adaptive.engine.adaptive.violationBand = 0.05;
    const RunResult r_a = runSimulation(adaptive);
    r_a.printSummary(std::cout);
    std::cout << "\n";

    const double err_b =
        r_cc.execCycles
            ? 100.0 *
                  (static_cast<double>(r_b.execCycles) -
                   static_cast<double>(r_cc.execCycles)) /
                  static_cast<double>(r_cc.execCycles)
            : 0.0;
    const double err_a =
        r_cc.execCycles
            ? 100.0 *
                  (static_cast<double>(r_a.execCycles) -
                   static_cast<double>(r_cc.execCycles)) /
                  static_cast<double>(r_cc.execCycles)
            : 0.0;

    std::cout << "speedup (wall clock) vs cycle-by-cycle:\n"
              << "  bounded(10): " << r_cc.host.wallSeconds /
                     (r_b.host.wallSeconds > 0 ? r_b.host.wallSeconds
                                               : 1e-9)
              << "x   exec-time error " << err_b << "%\n"
              << "  adaptive   : " << r_cc.host.wallSeconds /
                     (r_a.host.wallSeconds > 0 ? r_a.host.wallSeconds
                                               : 1e-9)
              << "x   exec-time error " << err_a << "%\n";
    return 0;
}
