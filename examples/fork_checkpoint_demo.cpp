/**
 * @file
 * Demonstrates the paper's Section 5.1 checkpointing exactly as
 * described: fork()-based process checkpoints with waitpid()
 * suspension, _exit() rollback, and kill() release of obsolete
 * checkpoints — running a full speculative slack simulation on one
 * host thread.
 *
 * Because completion propagates through the chain of suspended
 * checkpoint-holder processes, main() forks a driver process and
 * reads the final report over a pipe.
 *
 * Usage: fork_checkpoint_demo [--kernel=falseshare] [--uops=60000]
 *                             [--interval=5000] [--measure]
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "core/run.hh"
#include "obs/obs_flags.hh"
#include "util/options.hh"

using namespace slacksim;

namespace {

std::vector<OptionSpec>
flagSpecs()
{
    std::vector<OptionSpec> specs = {
        {"kernel", "NAME", "workload kernel (default falseshare)"},
        {"iters", "N", "workload iterations (default 4000)"},
        {"uops", "N", "committed micro-op budget (default 60000)"},
        {"target", "R", "adaptive target violation rate (default 0.01)"},
        {"interval", "CYCLES", "checkpoint interval (default 5000)"},
        {"measure", "", "measurement checkpoints only (no rollback)"},
    };
    for (const auto &spec : obs::obsOptionSpecs())
        specs.push_back(spec);
    return specs;
}

void
driver(int fd, const Options &opts)
{
    SimConfig config;
    config.workload.kernel = opts.get("kernel", "falseshare");
    config.workload.numThreads = config.target.numCores;
    config.workload.iters = opts.getUint("iters", 4000);
    config.engine.maxCommittedUops = opts.getUint("uops", 60000);
    config.engine.parallelHost = false; // fork() needs one thread
    config.engine.scheme = SchemeKind::Adaptive;
    config.engine.adaptive.targetViolationRate =
        opts.getDouble("target", 0.01);
    config.engine.adaptive.initialBound = 32;
    config.engine.checkpoint.mode = opts.has("measure")
                                        ? CheckpointMode::Measure
                                        : CheckpointMode::Speculative;
    config.engine.checkpoint.tech = CheckpointTech::ForkProcess;
    config.engine.checkpoint.interval = opts.getUint("interval", 5000);
    obs::applyObsOptions(opts, config.engine.obs);

    // Everything from here on may execute in a chain of forked
    // processes; the one that finishes writes the report.
    const RunResult r = runSimulation(config);

    std::ostringstream os;
    r.printSummary(os);
    os << "\nfork-checkpoint mechanics:\n"
       << "  process checkpoints taken : " << r.host.checkpointsTaken
       << "\n"
       << "  rollbacks (child _exit)   : " << r.host.rollbacks << "\n"
       << "  wasted simulated cycles   : " << r.host.wastedCycles
       << "\n"
       << "  fork() time total (s)     : " << r.host.checkpointSeconds
       << "\n";
    const std::string text = os.str();
    [[maybe_unused]] const ssize_t n =
        write(fd, text.c_str(), text.size());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    opts.enforceKnown("fork_checkpoint_demo: real fork() process "
                      "checkpoints on one host thread",
                      flagSpecs());
    std::cout << "Running a speculative slack simulation with REAL "
                 "fork() process checkpoints...\n\n";
    std::cout.flush();

    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("pipe");
        return 1;
    }
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        return 1;
    }
    if (pid == 0) {
        close(fds[0]);
        driver(fds[1], opts);
        _exit(0);
    }
    close(fds[1]);
    std::string report;
    char buf[1024];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0)
        report.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);

    std::cout << report;
    if (report.empty()) {
        std::cerr << "driver produced no report (status=" << status
                  << ")\n";
        return 1;
    }
    return 0;
}
