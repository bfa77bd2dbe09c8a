/**
 * @file
 * A guided tour through the paper's ideas, each demonstrated live on
 * the simulator. Follows the paper's structure: slack simulation and
 * the gold standard (Sections 1-2), violation detection (Section 3),
 * adaptive slack (Section 4), speculative slack and its analytical
 * model (Section 5).
 *
 * Usage: paper_tour [--kernel=water] [--uops=50000] [--serial]
 */

#include <iostream>

#include "core/run.hh"
#include "core/spec_model.hh"
#include "obs/obs_flags.hh"
#include "util/options.hh"

using namespace slacksim;

namespace {

SimConfig
base(const Options &opts)
{
    SimConfig config;
    config.workload.kernel = opts.get("kernel", "water");
    config.workload.numThreads = config.target.numCores;
    config.engine.maxCommittedUops = opts.getUint("uops", 50000);
    config.engine.parallelHost = !opts.has("serial");
    obs::applyObsOptions(opts, config.engine.obs);
    return config;
}

std::vector<OptionSpec>
flagSpecs()
{
    std::vector<OptionSpec> specs = {
        {"kernel", "NAME", "workload kernel (default water)"},
        {"uops", "N", "committed micro-op budget (default 50000)"},
        {"serial", "", "run on one host thread (the deterministic reference)"},
    };
    for (const auto &spec : obs::obsOptionSpecs())
        specs.push_back(spec);
    return specs;
}

void
section(const std::string &title)
{
    std::cout << "\n=== " << title << " ===\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.enforceKnown("paper_tour: the paper's ideas demonstrated live",
                      flagSpecs());
    std::cout << "SlackSim paper tour, workload '"
              << opts.get("kernel", "water") << "'\n";

    section("Sections 1-2: the gold standard vs slack");
    std::cout
        << "Cycle-by-cycle simulation synchronizes all core threads "
           "after every target\ncycle; slack simulation lets their "
           "clocks drift up to a bound.\n";
    SimConfig cc_config = base(opts);
    cc_config.engine.scheme = SchemeKind::CycleByCycle;
    const RunResult cc = runSimulation(cc_config);
    SimConfig s20_config = base(opts);
    s20_config.engine.scheme = SchemeKind::Bounded;
    s20_config.engine.slackBound = 20;
    const RunResult s20 = runSimulation(s20_config);
    std::cout << "  cycle-by-cycle : " << cc.host.wallSeconds
              << " s, exec " << cc.execCycles << " cycles, "
              << cc.violations.total() << " violations\n";
    std::cout << "  bounded(20)    : " << s20.host.wallSeconds
              << " s  ("
              << cc.host.wallSeconds / (s20.host.wallSeconds + 1e-12)
              << "x), exec " << s20.execCycles << " cycles ("
              << 100.0 *
                     (static_cast<double>(s20.execCycles) -
                      static_cast<double>(cc.execCycles)) /
                     cc.execCycles
              << "% error), " << s20.violations.total()
              << " violations\n";

    section("Section 3: violations are the accuracy proxy");
    std::cout
        << "A violation is a resource touched in a different order "
           "than in the target.\nThe bus is touched constantly (many, "
           "low-impact violations); the manager's\ncache status map "
           "rarely (few, high-impact):\n";
    std::cout << "  bounded(20): bus " << s20.violations.busViolations
              << " (" << s20.busViolationRate() * 100 << "%/cyc)  map "
              << s20.violations.mapViolations << " ("
              << s20.mapViolationRate() * 100 << "%/cyc)\n";

    section("Section 4: adaptive slack (slack throttling)");
    SimConfig ad_config = base(opts);
    ad_config.engine.scheme = SchemeKind::Adaptive;
    ad_config.engine.adaptive.targetViolationRate =
        s20.violationRate() / 4; // aim below what bounded(20) caused
    ad_config.engine.adaptive.violationBand = 0.05;
    const RunResult ad = runSimulation(ad_config);
    std::cout << "  target " << ad_config.engine.adaptive
                                     .targetViolationRate *
                                 100
              << "%/cyc -> measured " << ad.violationRate() * 100
              << "%/cyc, final bound " << ad.finalSlackBound << ", "
              << ad.host.slackAdjustments << " adjustments, "
              << ad.host.wallSeconds << " s (CC was "
              << cc.host.wallSeconds << " s)\n";

    section("Section 5: speculative slack (checkpoint + rollback)");
    SimConfig sp_config = base(opts);
    sp_config.engine.scheme = SchemeKind::Adaptive;
    sp_config.engine.adaptive.targetViolationRate = 1e-4;
    sp_config.engine.checkpoint.mode = CheckpointMode::Speculative;
    sp_config.engine.checkpoint.interval = 10000;
    const RunResult sp = runSimulation(sp_config);
    std::cout << "  rollback on every violation: "
              << sp.host.wallSeconds << " s, " << sp.host.rollbacks
              << " rollbacks, " << sp.host.wastedCycles
              << " wasted + " << sp.host.replayCycles
              << " replayed cycles\n";

    SimConfig sel_config = sp_config;
    sel_config.engine.checkpoint.rollbackOnBus = false;
    const RunResult sel = runSimulation(sel_config);
    std::cout << "  rollback on map violations only (the paper's "
                 "suggestion): "
              << sel.host.wallSeconds << " s, " << sel.host.rollbacks
              << " rollbacks\n";

    section("Section 5.2: the analytical model");
    SimConfig meas_config = sp_config;
    meas_config.engine.checkpoint.mode = CheckpointMode::Measure;
    const RunResult meas = runSimulation(meas_config);
    SpecModelInputs in;
    in.tCc = cc.host.wallSeconds;
    in.tCpt = meas.host.wallSeconds;
    in.fraction = meas.fractionIntervalsViolated();
    in.rollbackDistance = meas.meanFirstViolationDistance();
    in.interval = 10000;
    std::cout << "  Ts = (1-F)*Tcpt + F*Dr*Tcpt/I + F*Tcc with F="
              << in.fraction * 100 << "%, Dr=" << in.rollbackDistance
              << ":\n  modeled " << speculativeTimeEstimate(in)
              << " s vs measured " << sp.host.wallSeconds
              << " s vs CC " << cc.host.wallSeconds << " s\n";

    std::cout << "\nConclusion (the paper's): slack buys speed; "
                 "adaptive throttling bounds the\nerror; speculation "
                 "only pays once rollbacks are rare — e.g. by "
                 "tracking only\nthe rare, high-impact violation "
                 "classes.\n";
    return 0;
}
