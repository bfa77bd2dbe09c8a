/**
 * @file
 * Speculative slack simulation study: runs the full checkpoint /
 * rollback / cycle-by-cycle-replay machinery (paper Section 5) on one
 * benchmark and contrasts three operating points:
 *   - measurement only (checkpoints, no rollback),
 *   - speculation on every violation,
 *   - speculation on cache-map violations only (the paper's proposed
 *     way to make speculation viable).
 *
 * Usage: speculative_study [--kernel=lu] [--uops=100000]
 *                          [--interval=20000] [--serial]
 */

#include <iostream>

#include "core/run.hh"
#include "core/spec_model.hh"
#include "obs/obs_flags.hh"
#include "stats/table.hh"
#include "util/options.hh"

using namespace slacksim;

namespace {

std::vector<OptionSpec>
flagSpecs()
{
    std::vector<OptionSpec> specs = {
        {"kernel", "NAME", "workload kernel (default lu)"},
        {"uops", "N", "committed micro-op budget (default 100000)"},
        {"interval", "CYCLES", "checkpoint interval (default 20000)"},
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
    opts.enforceKnown("speculative_study: checkpoint/rollback/replay "
                      "operating points",
                      flagSpecs());
    const std::string kernel = opts.get("kernel", "lu");
    const std::uint64_t uops = opts.getUint("uops", 100000);
    const Tick interval = opts.getUint("interval", 20000);
    const bool parallel = !opts.has("serial");

    auto base = [&](CheckpointMode mode) {
        SimConfig config = paperConfig(kernel, uops);
        config.engine.parallelHost = parallel;
        config.engine.scheme = SchemeKind::Adaptive;
        config.engine.adaptive.targetViolationRate = 1e-4;
        config.engine.adaptive.violationBand = 0.05;
        config.engine.checkpoint.mode = mode;
        config.engine.checkpoint.interval = interval;
        obs::applyObsOptions(opts, config.engine.obs);
        return config;
    };

    std::cout << "Speculative slack study: kernel=" << kernel
              << " interval=" << interval << " cycles\n\n";

    SimConfig cc = paperConfig(kernel, uops);
    cc.engine.parallelHost = parallel;
    cc.engine.scheme = SchemeKind::CycleByCycle;
    const RunResult r_cc = runSimulation(cc);

    const RunResult r_measure =
        runSimulation(base(CheckpointMode::Measure));

    SimConfig spec_all = base(CheckpointMode::Speculative);
    const RunResult r_all = runSimulation(spec_all);

    SimConfig spec_map = base(CheckpointMode::Speculative);
    spec_map.engine.checkpoint.rollbackOnBus = false;
    const RunResult r_map = runSimulation(spec_map);

    Table table("speculation operating points");
    table.setHeader({"config", "sim time (s)", "rollbacks",
                     "wasted cyc", "replay cyc", "ckpt bytes"});
    auto row = [&](const std::string &label, const RunResult &r) {
        table.cell(label)
            .cell(r.host.wallSeconds, 3)
            .cell(r.host.rollbacks)
            .cell(r.host.wastedCycles)
            .cell(r.host.replayCycles)
            .cell(r.host.checkpointBytes)
            .endRow();
    };
    row("cycle-by-cycle", r_cc);
    row("measure only", r_measure);
    row("rollback on all violations", r_all);
    row("rollback on map violations", r_map);
    table.print(std::cout);

    SpecModelInputs in;
    in.tCc = r_cc.host.wallSeconds;
    in.tCpt = r_measure.host.wallSeconds;
    in.fraction = r_measure.fractionIntervalsViolated();
    in.rollbackDistance = r_measure.meanFirstViolationDistance();
    in.interval = static_cast<double>(interval);
    std::cout << "\nanalytical model: F="
              << formatDouble(in.fraction * 100.0, 0) << "%  Dr="
              << formatDouble(in.rollbackDistance, 0) << " cycles  ->"
              << " Ts ~= "
              << formatDouble(speculativeTimeEstimate(in), 3)
              << " s (vs CC " << formatDouble(in.tCc, 3) << " s)\n";
    std::cout << "\nThe paper's conclusion: speculation only pays off "
                 "when rollbacks are rare — restrict the tracked "
                 "violation classes or lower the base violation rate.\n";
    return 0;
}
