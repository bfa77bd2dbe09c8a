/**
 * @file
 * End-to-end speculative slack simulation (the machinery the paper
 * describes in Section 5 but only modeled analytically): periodic
 * global checkpoints, rollback on detected violations, and
 * cycle-by-cycle replay to the next checkpoint. Compares measured
 * wall-clock time of the full mechanism against cycle-by-cycle and
 * against the paper's analytical estimate from measurement-mode runs,
 * while sweeping the checkpoint interval and the violation classes
 * that trigger rollback.
 *
 * Flags: --kernel=NAME --uops=N --serial
 */

#include <iostream>

#include "common.hh"
#include "core/spec_model.hh"
#include "stats/table.hh"
#include "table_io.hh"

using namespace slacksim;
using namespace slacksim::bench;

namespace {

SimConfig
specBase(const Options &opts, const std::string &kernel,
         std::uint64_t uops)
{
    SimConfig config = paperSetup(kernel, uops);
    applyCommonFlags(opts, config);
    config.engine.scheme = SchemeKind::Adaptive;
    config.engine.adaptive.targetViolationRate = 1e-4;
    config.engine.adaptive.violationBand = 0.05;
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    checkFlags(opts, "speculative_e2e: real rollbacks vs the analytical model");
    const std::uint64_t uops = uopBudget(opts, 120000);
    banner("Speculative slack end-to-end: real rollbacks vs the "
           "analytical model",
           opts, uops);

    for (const auto &kernel : kernelList(opts)) {
        SimConfig cc = paperSetup(kernel, uops);
        applyCommonFlags(opts, cc);
        cc.engine.scheme = SchemeKind::CycleByCycle;
        pinToReplayThreads(cc); // Tcc prices the replay term
        const RunResult r_cc = runSimulation(cc);

        Table table("Speculative e2e [" + kernel + "] (CC = " +
                    formatDouble(r_cc.host.wallSeconds, 2) + " s)");
        table.setHeader({"config", "sim time (s)", "model est (s)",
                         "rollbacks", "wasted cyc", "replay cyc",
                         "ckpts"});

        for (const Tick interval : {10000u, 50000u}) {
            // Measurement run feeds the model...
            SimConfig measure = specBase(opts, kernel, uops);
            measure.engine.checkpoint.mode = CheckpointMode::Measure;
            measure.engine.checkpoint.interval = interval;
            const RunResult r_m = runSimulation(measure);
            SpecModelInputs in;
            in.tCc = r_cc.host.wallSeconds;
            in.tCpt = r_m.host.wallSeconds;
            in.fraction = r_m.fractionIntervalsViolated();
            in.rollbackDistance = r_m.meanFirstViolationDistance();
            in.interval = static_cast<double>(interval);
            const double est = speculativeTimeEstimate(in);

            // ...and the real thing rolls back on every violation.
            SimConfig spec = specBase(opts, kernel, uops);
            spec.engine.checkpoint.mode = CheckpointMode::Speculative;
            spec.engine.checkpoint.interval = interval;
            const RunResult r_s = runSimulation(spec);
            table.cell("all-violations @" + formatCycles(interval))
                .cell(r_s.host.wallSeconds, 2)
                .cell(est, 2)
                .cell(r_s.host.rollbacks)
                .cell(r_s.host.wastedCycles)
                .cell(r_s.host.replayCycles)
                .cell(r_s.host.checkpointsTaken)
                .endRow();

            // Paper Section 5.2's suggestion: roll back only on the
            // rare map violations.
            SimConfig map_only = spec;
            map_only.engine.checkpoint.rollbackOnBus = false;
            const RunResult r_map = runSimulation(map_only);
            table.cell("map-only @" + formatCycles(interval))
                .cell(r_map.host.wallSeconds, 2)
                .cell("-")
                .cell(r_map.host.rollbacks)
                .cell(r_map.host.wastedCycles)
                .cell(r_map.host.replayCycles)
                .cell(r_map.host.checkpointsTaken)
                .endRow();
        }

        table.print(std::cout);
        std::cout << "\n";
        emitCsv(opts, {&table});
    }
    return 0;
}
