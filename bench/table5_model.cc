/**
 * @file
 * Table 5 reproduction: estimated overall simulation time of a fully
 * functional speculative slack simulation, from the paper's
 * analytical model
 *     Ts = (1-F)*Tcpt + F*Dr*Tcpt/I + F*Tcc
 * fed with measured Tcc (cycle-by-cycle time), Tcpt (adaptive +
 * checkpointing time), F (Table 3) and Dr (Table 4), for 50k and
 * 100k checkpoint intervals.
 *
 * Expected shape (paper Section 5.2): the estimated speculative time
 * exceeds cycle-by-cycle for every benchmark — the paper's negative
 * result on speculation at a 0.01% base violation rate.
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

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    checkFlags(opts, "table5_model: modeled speculative simulation time");
    const std::uint64_t uops = uopBudget(opts, 300000);
    banner("Table 5: estimated overall simulation time of speculative "
           "simulation (sec)",
           opts, uops);

    Table table("Table 5: modeled speculative time vs CC");
    table.setHeader({"", "CC", "50K est", "100K est", "F@50K",
                     "Dr@50K", "F@100K", "Dr@100K"});

    for (const auto &kernel : kernelList(opts)) {
        SimConfig cc = paperSetup(kernel, uops);
        applyCommonFlags(opts, cc);
        cc.engine.scheme = SchemeKind::CycleByCycle;
        pinToReplayThreads(cc); // Tcc prices the replay term
        const RunResult r_cc = runSimulation(cc);

        double est[2], fs[2], drs[2];
        int idx = 0;
        for (const Tick interval : {50000u, 100000u}) {
            SimConfig config = paperSetup(kernel, uops);
            applyCommonFlags(opts, config);
            config.engine.scheme = SchemeKind::Adaptive;
            config.engine.adaptive.targetViolationRate = 1e-4;
            config.engine.adaptive.violationBand = 0.05;
            config.engine.checkpoint.mode = CheckpointMode::Measure;
            config.engine.checkpoint.interval = interval;
            config.engine.warmupUops = uops / 5;
            const RunResult r = runSimulation(config);

            SpecModelInputs in;
            in.tCc = r_cc.host.wallSeconds;
            in.tCpt = r.host.wallSeconds;
            in.fraction = r.fractionIntervalsViolated();
            in.rollbackDistance = r.meanFirstViolationDistance();
            in.interval = static_cast<double>(interval);
            est[idx] = speculativeTimeEstimate(in);
            fs[idx] = in.fraction;
            drs[idx] = in.rollbackDistance;
            ++idx;
        }

        table.cell(kernel)
            .cell(r_cc.host.wallSeconds, 2)
            .cell(est[0], 2)
            .cell(est[1], 2)
            .cell(formatDouble(fs[0] * 100.0, 0) + "%")
            .cell(formatCycles(static_cast<std::uint64_t>(drs[0] + 0.5)))
            .cell(formatDouble(fs[1] * 100.0, 0) + "%")
            .cell(formatCycles(static_cast<std::uint64_t>(drs[1] + 0.5)))
            .endRow();
    }

    table.print(std::cout);
    emitCsv(opts, {&table});
    return 0;
}
