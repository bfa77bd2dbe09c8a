/**
 * @file
 * perfbench: the repository benchmark harness.
 *
 * Measures the paper's claim — slack simulation is faster than
 * cycle-by-cycle (CC) at a measured loss of accuracy — from outside
 * the library, by timing calls into its public entry points:
 * makeWorkload(), runSimulation() and the RunResult it returns, and a
 * serve::Client talking to a slacksim-serve daemon.
 *
 * Workloads (README.md explains the choice of each, and why the
 * cc-barnes and adaptive-barnes workloads were dropped):
 *   spec-barnes  adaptive slack + speculative checkpoints on the
 *                parallel engine
 *   serve-sweep  64-job parameter sweeps through the daemon
 *
 * Untraced runs (--trace 0) print the end-to-end metrics; traced runs
 * (--trace 1) time half the window untraced and half with the host
 * profiler on, print the per-layer metrics, and write a Chrome trace
 * of the harness's own spans. Every run checks its outputs; a failed
 * check counts its operation as failed. The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/run.hh"
#include "obs/profiler.hh"
#include "serve/client.hh"
#include "serve/job_spec.hh"
#include "util/build_info.hh"
#include "util/checksum.hh"
#include "util/json_parse.hh"
#include "workload/kernels.hh"

extern char **environ;

using namespace slacksim;

namespace {

using Clock = std::chrono::steady_clock;

// ---- Workload inputs -------------------------------------------------

/** Committed-uop budget of every barnes run (of ~2.1M in the trace). */
constexpr std::uint64_t barnesUops = 200000;
/** Committed-uop budget of every sweep job; below the shortest
 *  kernel's trace (fft, ~300K) so every job stops on its budget. */
constexpr std::uint64_t sweepUops = 200000;
/** Copies of each (kernel, scheme) pair in one sweep: 4 x 4 x 4. Each
 *  copy has inputs of its own (see inputSeed()). */
constexpr unsigned sweepCopies = 4;
/** The daemon's host-thread budget (= nproc on the reference host). */
constexpr unsigned serveThreads = 4;

const std::vector<std::string> sweepKernels = {"barnes", "fft", "lu",
                                               "water"};
const std::vector<std::string> sweepSchemes = {"cc", "adaptive",
                                               "bounded", "quantum"};

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Quantile with linear interpolation between order statistics (the
 *  "inclusive" method); 0 for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Peak resident set of this process and of every reaped descendant
 *  (for a daemon: the daemon and the job children it reaped). */
double
peakRssMb()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

/** Peak resident set (MB) of one runSimulation(@p config) in a
 *  forked child, so earlier work in this process does not count;
 *  negative when the child fails. Call while single-threaded. */
double
childPeakRssMb(const SimConfig &config)
{
    const pid_t pid = fork();
    if (pid == 0) {
        const RunResult r = runSimulation(config);
        _exit(r.cancelled ? 1 : 0);
    }
    if (pid < 0)
        return -1.0;
    int status = 0;
    rusage usage{};
    if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        return -1.0;
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Fingerprint of generated inputs: every trace record of every
 *  thread plus the sync-object counts. */
std::uint64_t
inputFingerprint(const Workload &w)
{
    std::uint64_t h = xxh64(&w.numLocks, sizeof(w.numLocks),
                            w.numBarriers);
    for (const TraceProgram &t : w.threads) {
        h = xxh64(t.instrs.data(), t.instrs.size() * sizeof(TraceInstr),
                  h);
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** JSON string literal (the harness only quotes plain identifiers,
 *  paths and check messages). */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

// ---- Spans -------------------------------------------------------------

/**
 * The harness's own spans around each call into a layer, kept in
 * memory and written once as a Chrome trace. Disabled (untraced runs)
 * it records nothing.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** Open a span; @return its id (0 when disabled). */
    std::uint64_t
    begin(const std::string &name, std::uint64_t parent = 0,
          std::uint64_t job = 0)
    {
        if (!enabled_)
            return 0;
        spans_.push_back({name, spans_.size() + 1, parent, job,
                          Clock::now(), Clock::time_point{}});
        return spans_.back().id;
    }

    void
    end(std::uint64_t id)
    {
        if (id != 0)
            spans_[id - 1].end = Clock::now();
    }

    /** Tag an open span with the job it served. */
    void
    setJob(std::uint64_t id, std::uint64_t job)
    {
        if (id != 0)
            spans_[id - 1].job = job;
    }

    /** Write {"traceEvents": [...]} with one complete event per span.
     *  @return false when the file cannot be written. */
    bool
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":1,\"args\":{\"name\":\"perfbench\"}}";
        for (const Span &s : spans_) {
            const Clock::time_point end =
                s.end == Clock::time_point{} ? s.start : s.end;
            // Waits overlap, so each job's wait gets its own track.
            const std::uint64_t tid =
                s.name == "wait" ? 1000 + s.job : 1;
            os << ",{\"name\":" << quote(s.name)
               << ",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":"
               << tid << ",\"ts\":"
               << num(us(s.start)) << ",\"dur\":"
               << num(us(end) - us(s.start))
               << ",\"args\":{\"span_id\":" << s.id
               << ",\"parent_id\":" << s.parent;
            if (s.job != 0)
                os << ",\"job_id\":" << s.job;
            os << "}}";
        }
        os << "]}\n";
        os.close();
        return static_cast<bool>(os);
    }

  private:
    struct Span
    {
        std::string name;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t job;
        Clock::time_point start;
        Clock::time_point end;
    };

    double
    us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** RAII span. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const std::string &name, std::uint64_t parent = 0)
        : log_(log), id_(log.begin(name, parent))
    {
    }
    ~Scoped() { log_.end(id_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanLog &log_;
    std::uint64_t id_;
};

// ---- Result accounting -------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serveBin;
    std::string traceOut = "perfbench_trace.json";
};

/** Operations attempted/failed, the metrics, and provenance. */
class Outcome
{
  public:
    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, {value, unit}});
    }

    /** A figure printed in the table and the provenance line but not
     *  gated (not a BENCHMARK.json metric). */
    void
    shown(const std::string &name, double value, const std::string &unit)
    {
        shown_.push_back({name, {value, unit}});
        note(name, num(value));
    }

    /** Count one operation; it fails when any of @p problems is set. */
    void
    operation(const std::vector<std::string> &problems,
              const std::string &what)
    {
        ++attempted_;
        if (problems.empty())
            return;
        ++failed_;
        for (const std::string &p : problems)
            std::cerr << "perfbench: FAILED " << what << ": " << p << "\n";
    }

    /** A check on the run as a whole (not one operation). */
    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        wholeRunOk_ = false;
        std::cerr << "perfbench: FAILED check: " << what << "\n";
    }

    /** Provenance / outputs line fields, printed before the result. */
    void
    note(const std::string &key, const std::string &jsonValue)
    {
        notes_.push_back({key, jsonValue});
    }

    void
    print(const Args &args) const
    {
        // Human-readable table first, then the machine lines.
        std::printf("perfbench %s seed=%" PRIu64 " trace=%d\n",
                    args.workload.c_str(), args.seed, args.trace ? 1 : 0);
        for (const auto &[name, vu] : metrics_)
            std::printf("  %-34s %16.6g %s\n", name.c_str(), vu.first,
                        vu.second.c_str());
        for (const auto &[name, vu] : shown_)
            std::printf("  %-34s %16.6g %s (not gated)\n", name.c_str(),
                        vu.first, vu.second.c_str());
        std::printf("  operations attempted=%" PRIu64 " failed=%" PRIu64
                    "\n",
                    attempted_, failed_);
        std::string prov = "{";
        for (std::size_t i = 0; i < notes_.size(); ++i) {
            prov += (i ? "," : "") + quote(notes_[i].first) + ":" +
                    notes_[i].second;
        }
        std::printf("perfbench.provenance %s}\n", prov.c_str());

        std::string out = "{\"correct\": ";
        out += (failed_ == 0 && wholeRunOk_) ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted_);
        out += ", \"failed\": " + std::to_string(failed_);
        out += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const auto &[name, vu] = metrics_[i];
            out += (i ? ", " : "") + quote(name) + ": {\"value\": " +
                   num(vu.first) + ", \"unit\": " + quote(vu.second) + "}";
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_, shown_;
    std::vector<std::pair<std::string, std::string>> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool wholeRunOk_ = true;
};

// ---- Per-layer numbers from one run ------------------------------------

/** Profiler phase names ("wait-for-slack") with the metric key each
 *  is reported under ("wait_for_slack"), in obs::Phase order. */
const std::vector<std::pair<std::string, std::string>> &
reportedPhases()
{
    static const auto p = [] {
        std::vector<std::pair<std::string, std::string>> v;
        for (std::size_t i = 0; i < obs::numPhases; ++i) {
            const std::string name =
                obs::phaseName(static_cast<obs::Phase>(i));
            std::string key = name;
            std::replace(key.begin(), key.end(), '-', '_');
            v.push_back({name, key});
        }
        return v;
    }();
    return p;
}

/** Named per-layer values of one run, folded into medians later. */
using LayerSample = std::map<std::string, double>;

/** Thread-time per phase from a profile (seconds), plus "other". */
void
addPhases(LayerSample &s, const std::map<std::string, double> &phaseNs,
          double otherNs)
{
    double total = otherNs;
    for (const auto &[phase, key] : reportedPhases()) {
        const auto it = phaseNs.find(phase);
        const double ns = it == phaseNs.end() ? 0.0 : it->second;
        s["core.phase." + key + "_s"] = ns * 1e-9;
        total += ns;
    }
    s["core.phase.other_s"] = otherNs * 1e-9;
    s["core.other_frac"] = ratio(otherNs, total);
}

/** Simulated and host counters every RunResult carries. */
void
addCounters(LayerSample &s, const RunResult &r)
{
    const HostStats &h = r.host;
    const UncoreStats &u = r.uncore;
    const CoreStats &c = r.coreTotal;
    s["core.engine_wall_s"] = h.wallSeconds;
    s["core.host_threads"] = h.hostThreadsUsed;
    s["core.manager_wakeups"] = static_cast<double>(h.managerWakeups);
    s["core.core_parks"] = static_cast<double>(h.coreParkEvents);
    s["core.max_slack_cycles"] = static_cast<double>(h.maxObservedSlack);
    s["pacer.slack_adjustments"] = static_cast<double>(h.slackAdjustments);
    s["pacer.final_bound"] = static_cast<double>(r.finalSlackBound);
    s["ckpt.count"] = static_cast<double>(h.checkpointsTaken);
    s["ckpt.bytes"] = static_cast<double>(h.checkpointBytes);
    s["ckpt.critical_s"] = h.checkpointSeconds;
    s["ckpt.async_s"] = h.checkpointAsyncSeconds;
    s["ckpt.rollbacks"] = static_cast<double>(h.rollbacks);
    s["ckpt.replay_cycles"] = static_cast<double>(h.replayCycles);
    s["ckpt.rollback_frac"] = ratio(static_cast<double>(h.rollbacks),
                                    static_cast<double>(h.checkpointsTaken));
    s["ckpt.useful_cycle_frac"] =
        1.0 - ratio(static_cast<double>(h.wastedCycles),
                    static_cast<double>(r.execCycles + h.wastedCycles));
    s["uncore.bus_requests"] = static_cast<double>(u.busRequests);
    s["uncore.bus_wait_cycles_per_req"] =
        ratio(static_cast<double>(u.busQueueingCycles),
              static_cast<double>(u.busRequests));
    s["uncore.l2_miss_rate"] = ratio(static_cast<double>(u.l2Misses),
                                     static_cast<double>(u.l2Hits +
                                                         u.l2Misses));
    s["uncore.c2c_transfers"] = static_cast<double>(u.cacheToCacheTransfers);
    s["uncore.bus_violations"] =
        static_cast<double>(r.violations.busViolations);
    s["uncore.map_violations"] =
        static_cast<double>(r.violations.mapViolations);
    s["uncore.violations_per_kcycle"] =
        ratio(1000.0 * static_cast<double>(r.violations.total()),
              static_cast<double>(r.execCycles));
    s["cpu.ipc"] = r.ipc();
    s["cache.l1d_miss_rate"] = ratio(static_cast<double>(c.l1dMisses),
                                     static_cast<double>(c.l1dHits +
                                                         c.l1dMisses));
}

void
addProfile(LayerSample &s, const obs::ProfileReport &p)
{
    std::map<std::string, double> ns;
    for (const obs::PhaseTotal &t : p.phaseTotals)
        ns[t.name] += static_cast<double>(t.ns);
    double other = 0.0;
    for (const obs::ProfileWorker &w : p.workers)
        other += static_cast<double>(w.otherNs);
    addPhases(s, ns, other);
}

/** Per-layer metric list with units, in print order. Every traced run
 *  prints all of them; a layer a workload does not exercise reads 0. */
const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = [] {
        std::vector<std::pair<std::string, std::string>> v = {
            {"workload.gen_s", "s"},
            {"core.engine_wall_s", "s"},
            {"core.host_threads", "count"},
        };
        for (const auto &phase : reportedPhases())
            v.push_back({"core.phase." + phase.second + "_s", "s"});
        const std::vector<std::pair<std::string, std::string>> rest = {
            {"core.phase.other_s", "s"},
            {"core.other_frac", "frac"},
            {"core.manager_wakeups", "count"},
            {"core.core_parks", "count"},
            {"core.max_slack_cycles", "cycles"},
            {"pacer.slack_adjustments", "count"},
            {"pacer.final_bound", "cycles"},
            {"ckpt.count", "count"},
            {"ckpt.bytes", "bytes"},
            {"ckpt.critical_s", "s"},
            {"ckpt.async_s", "s"},
            {"ckpt.rollbacks", "count"},
            {"ckpt.replay_cycles", "cycles"},
            {"ckpt.rollback_frac", "frac"},
            {"ckpt.useful_cycle_frac", "frac"},
            {"uncore.bus_requests", "count"},
            {"uncore.bus_wait_cycles_per_req", "cycles"},
            {"uncore.l2_miss_rate", "frac"},
            {"uncore.c2c_transfers", "count"},
            {"uncore.bus_violations", "count"},
            {"uncore.map_violations", "count"},
            {"uncore.violations_per_kcycle", "1/kcycle"},
            {"accuracy.cycle_error_pct", "%"},
            {"cpu.ipc", "uops/cycle"},
            {"cache.l1d_miss_rate", "frac"},
            {"serve.submit_rpc_ms", "ms"},
            {"serve.queue_wait_ms", "ms"},
            {"serve.run_ms", "ms"},
            {"serve.concurrency", "frac"},
            {"serve.threads_spawned", "count"},
            {"serve.overflow_spawns", "count"},
            {"obs.traced_overhead_frac", "frac"},
        };
        v.insert(v.end(), rest.begin(), rest.end());
        return v;
    }();
    return m;
}

/** Median of every per-layer value across @p samples into @p out;
 *  keys no sample carries read 0. */
void
emitLayers(Outcome &out, const std::vector<LayerSample> &samples,
           const LayerSample &extra)
{
    for (const auto &[name, unit] : layerMetrics()) {
        double value = 0.0;
        if (const auto it = extra.find(name); it != extra.end()) {
            value = it->second;
        } else {
            std::vector<double> v;
            for (const LayerSample &s : samples)
                if (s.count(name))
                    v.push_back(s.at(name));
            value = median(v);
        }
        out.metric(name, value, unit);
    }
}

/** The end-to-end metrics of untraced runs, in print order.
 *  @p errorPct is |exec cycles - CC exec cycles| / CC exec cycles x
 *  100 and @p violationsPerKcycle bus plus map violations per 1000
 *  simulated cycles. On spec-barnes, where every violation is rolled
 *  back, both are 0 or within a cycle of it, and a gate needs a
 *  non-zero median, so they are gated as the share of the result that
 *  is right: 100 - error, and 100 - violations per 100 cycles.
 *  README.md gives the error rise each bound detects. */
void
emitEndToEnd(Outcome &out, double uopsPerS, double jobsPerMin,
             const std::vector<double> &turnarounds, double errorPct,
             double violationsPerKcycle, double setupS, double rssMb)
{
    out.metric("uops_per_s", uopsPerS, "uops/s");
    out.metric("jobs_per_min", jobsPerMin, "jobs/min");
    out.metric("turnaround_p50_s", quantile(turnarounds, 0.5), "s");
    out.metric("cycle_accuracy_pct", 100.0 - errorPct, "%");
    out.metric("violation_free_pct", 100.0 - violationsPerKcycle / 10.0,
               "%");
    out.metric("setup_s", setupS, "s");
    out.metric("peak_rss_mb", rssMb, "MB");
    // A tail of a few dozen runs moves with the host's scheduling
    // noise more than any gate allows; it is printed, not gated.
    out.shown("turnaround_p80_s", quantile(turnarounds, 0.8), "s");
    out.shown("cycle_error_pct", errorPct, "%");
    out.shown("violations_per_kcycle", violationsPerKcycle, "1/kcycle");
}

void
noteProvenance(Outcome &out, const Args &args, const std::string &scheme)
{
    const BuildInfo &b = buildInfo();
    out.note("host_cpus", std::to_string(std::thread::hardware_concurrency()));
    out.note("workload", quote(args.workload));
    out.note("scheme", quote(scheme));
    out.note("seed", std::to_string(args.seed));
    out.note("seconds", num(args.seconds));
    out.note("trace", args.trace ? "true" : "false");
    out.note("build_type", quote(b.buildType));
    out.note("git", quote(std::string(b.gitHash) +
                          (b.gitDirty[0] ? "-dirty" : "")));
    out.note("compiler", quote(b.compiler));
    if (std::string(b.buildType) != "Release") {
        std::fprintf(stderr,
                     "perfbench: WARNING: build type is '%s', not "
                     "Release; timings are not comparable\n",
                     b.buildType);
        std::printf("perfbench: WARNING: NOT A RELEASE BUILD (%s)\n",
                    b.buildType);
    }
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + num(v[i]);
    return s + "]";
}

// ---- spec-barnes -----------------------------------------------------------

SimConfig
specBarnesConfig(std::uint64_t seed)
{
    SimConfig config = paperConfig("barnes", barnesUops);
    config.workload.bodies = 1024;
    config.workload.timesteps = 2;
    config.workload.seed = seed;
    config.engine.parallelHost = true;
    config.engine.hostThreads = 0; // the engine's default policy
    config.engine.scheme = SchemeKind::Adaptive;
    config.engine.adaptive.targetViolationRate = 1e-4;
    config.engine.adaptive.violationBand = 0.05;
    CheckpointParams &ck = config.engine.checkpoint;
    ck.mode = CheckpointMode::Speculative;
    ck.interval = 2000;
    ck.rollbackOnBus = true;
    ck.rollbackOnMap = true;
    return config;
}

/** Runs per minute, as the median over blocks of five consecutive
 *  runs. A run that stalls on the host lowers its block's rate, which
 *  the median run time never shows; the median over blocks keeps one
 *  stalled block from swinging the result (a plain mean over the
 *  window spread by 0.25 between runs). */
double
runsPerMinute(const std::vector<double> &walls)
{
    constexpr std::size_t block = 5;
    std::vector<double> rates;
    for (std::size_t i = 0; i + block <= walls.size(); i += block) {
        double sum = 0.0;
        for (std::size_t j = i; j < i + block; ++j)
            sum += walls[j];
        rates.push_back(ratio(60.0 * block, sum));
    }
    if (rates.empty()) // a window shorter than one block
        return ratio(60.0, mean(walls));
    return median(rates);
}

/** One timed runSimulation() call. */
struct SimRep
{
    double wall = 0.0;   //!< runSimulation() wall time
    double engine = 0.0; //!< engine wall time inside it
    RunResult result;
};

void
runSpecBarnes(const Args &args, SpanLog &spans, Outcome &out)
{
    const SimConfig config = specBarnesConfig(args.seed);
    noteProvenance(out, args, schemeName(config.engine.scheme));

    // Peak memory of one run in a fresh process (forked before this
    // process starts threads or fragments its heap with repeated runs).
    double rss = 0.0;
    if (!args.trace) {
        Scoped span(spans, "runSimulation (forked, peak RSS)");
        rss = childPeakRssMb(config);
        out.check(rss > 0.0, "forked peak-RSS run completed");
    }

    // Input generation, timed on its own (runSimulation repeats it).
    std::vector<double> gen;
    for (int i = 0; i < 3; ++i) {
        Scoped span(spans, "makeWorkload");
        const Clock::time_point t0 = Clock::now();
        const Workload w = makeWorkload(config.workload);
        gen.push_back(since(t0));
        if (i == 0) {
            out.note("inputs", "{\"barnes\":" + quote(hex(
                                   inputFingerprint(w))) + "}");
        }
    }

    // The CC reference: serial engine, same inputs and budget. Not
    // timed; it is the accuracy baseline.
    SimConfig refConfig = config;
    refConfig.engine.scheme = SchemeKind::CycleByCycle;
    refConfig.engine.parallelHost = false;
    refConfig.engine.checkpoint.mode = CheckpointMode::Off;
    RunResult ref;
    {
        Scoped span(spans, "reference runSimulation (serial cc)");
        ref = runSimulation(refConfig);
    }
    out.note("reference_engine_wall_s", num(ref.host.wallSeconds));
    out.check(ref.committedUops >= barnesUops && !ref.cancelled,
              "serial CC reference reached its uop budget");

    auto runReps = [&](bool profiled, double window) {
        std::vector<SimRep> reps;
        SimConfig c = config;
        c.engine.obs.profile = profiled;
        const Clock::time_point start = Clock::now();
        do {
            Scoped span(spans, profiled ? "runSimulation (profiled)"
                                        : "runSimulation");
            SimRep rep;
            const Clock::time_point t0 = Clock::now();
            rep.result = runSimulation(c);
            rep.wall = since(t0);
            rep.engine = rep.result.host.wallSeconds;
            const RunResult &r = rep.result;
            std::vector<std::string> problems;
            if (r.cancelled)
                problems.push_back("run was cancelled");
            if (r.committedUops < barnesUops) {
                problems.push_back("stopped at " +
                                   std::to_string(r.committedUops) +
                                   " uops, budget " +
                                   std::to_string(barnesUops));
            }
            out.operation(problems, args.workload + " run");
            reps.push_back(std::move(rep));
        } while (since(start) < window);
        return reps;
    };

    auto errorPct = [&](const RunResult &r) {
        return 100.0 *
               std::fabs(static_cast<double>(r.execCycles) -
                         static_cast<double>(ref.execCycles)) /
               static_cast<double>(ref.execCycles);
    };

    const std::vector<SimRep> plain =
        runReps(false, args.trace ? args.seconds / 2 : args.seconds);
    std::vector<double> walls, threads;
    for (const SimRep &rep : plain) {
        walls.push_back(rep.wall);
        threads.push_back(rep.result.host.hostThreadsUsed);
    }
    out.note("host_threads_per_run", jsonList(threads));
    out.note("run_walls_s", jsonList(walls));

    if (!args.trace) {
        std::vector<double> rate, setup, error, viol;
        for (const SimRep &rep : plain) {
            rate.push_back(ratio(static_cast<double>(
                                     rep.result.committedUops),
                                 rep.engine));
            setup.push_back(rep.wall - rep.engine);
            error.push_back(errorPct(rep.result));
            viol.push_back(ratio(
                1000.0 * static_cast<double>(rep.result.violations.total()),
                static_cast<double>(rep.result.execCycles)));
        }
        // Error and violations are means, so one inaccurate run in
        // many shows.
        emitEndToEnd(out, median(rate), runsPerMinute(walls), walls,
                     mean(error), mean(viol), median(setup), rss);
        out.note("outputs",
                 "{\"reference_exec_cycles\":" +
                     std::to_string(ref.execCycles) +
                     ",\"reference_committed_uops\":" +
                     std::to_string(ref.committedUops) +
                     ",\"reference_bus_requests\":" +
                     std::to_string(ref.uncore.busRequests) +
                     ",\"reference_l2_misses\":" +
                     std::to_string(ref.uncore.l2Misses) + "}");
        return;
    }

    const std::vector<SimRep> traced = runReps(true, args.seconds / 2);
    std::vector<LayerSample> samples;
    std::vector<double> tracedWalls;
    for (const SimRep &rep : traced) {
        LayerSample s;
        addCounters(s, rep.result);
        addProfile(s, rep.result.forensics.profile);
        s["accuracy.cycle_error_pct"] = errorPct(rep.result);
        samples.push_back(std::move(s));
        tracedWalls.push_back(rep.wall);
    }
    emitLayers(out, samples,
               {{"workload.gen_s", median(gen)},
                {"obs.traced_overhead_frac",
                 ratio(median(tracedWalls), median(walls)) - 1.0}});
}

// ---- serve-sweep ---------------------------------------------------------

/** A slacksim-serve child process on its own socket and out root. */
class Daemon
{
  public:
    Daemon(const std::string &bin, unsigned index)
        : socket_("serve-" + std::to_string(index) + ".sock"),
          outRoot_("serve-out-" + std::to_string(index))
    {
        const std::vector<std::string> argv = {
            bin,
            "--socket=" + socket_,
            "--out-root=" + outRoot_,
            "--threads=" + std::to_string(serveThreads),
            "--isolation=process",
            "--quiet",
        };
        std::vector<char *> cargv;
        for (const std::string &a : argv)
            cargv.push_back(const_cast<char *>(a.c_str()));
        cargv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        const std::string log = "serve-" + std::to_string(index) + ".log";
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                         log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                         STDERR_FILENO);
        started_ = Clock::now();
        if (posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                        cargv.data(), environ) != 0) {
            pid_ = -1;
        }
        posix_spawn_file_actions_destroy(&actions);
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }
    const std::string &outRoot() const { return outRoot_; }

    /** Seconds from spawn to the first answered ping, or a negative
     *  value when the daemon never answered within 30 s. */
    double
    waitReady()
    {
        if (pid_ < 0)
            return -1.0;
        const Clock::time_point deadline =
            started_ + std::chrono::seconds(30);
        while (Clock::now() < deadline) {
            // Connect only once the socket exists: a refused connect
            // logs a warning.
            if (access(socket_.c_str(), F_OK) == 0) {
                serve::Client client(socket_);
                std::string error;
                if (client.valid() &&
                    client.request("{\"op\":\"ping\"}", nullptr,
                                   &error)) {
                    return since(started_);
                }
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return -1.0;
    }

    /** Graceful drain-shutdown; SIGKILL after 30 s. @return true when
     *  the daemon exited with status 0. */
    bool
    stop()
    {
        if (pid_ < 0)
            return exitedOk_;
        serve::Client client(socket_);
        std::string error;
        if (client.valid())
            client.shutdown(true, &error);
        const Clock::time_point deadline =
            Clock::now() + std::chrono::seconds(30);
        int status = 0;
        for (;;) {
            const pid_t r = waitpid(pid_, &status, WNOHANG);
            if (r == pid_ || (r < 0 && errno != EINTR))
                break;
            if (Clock::now() > deadline) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        exitedOk_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = -1;
        return exitedOk_;
    }

  private:
    std::string socket_;
    std::string outRoot_;
    pid_t pid_ = -1;
    bool exitedOk_ = false;
    Clock::time_point started_;
};

/** One sweep job as the client sees it. */
struct Job
{
    std::string kernel;
    std::string scheme;
    unsigned copy = 0;
    std::uint64_t seed = 0; //!< workload seed of the job's inputs
    std::uint64_t id = 0;
    Clock::time_point submitted;
    double submitMs = 0.0;
    double turnaround = -1.0; //!< seconds; < 0 while not terminal
    std::string state;
    std::string outDir;
    std::uint64_t committed = 0;
    std::uint64_t cycles = 0;
};

/** Splitmix64 step: a toolchain-independent shuffle source. */
std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Workload seed of copy @p copy in sweep @p sweep of the run seeded
 *  @p seed. Every copy of every sweep draws inputs of its own, so the
 *  accuracy figures average over dozens of barnes and water inputs and
 *  repeat closely from one run seed to the next. */
std::uint64_t
inputSeed(std::uint64_t seed, std::size_t sweep, unsigned copy)
{
    std::uint64_t state = seed ^ (sweep * sweepCopies + copy) << 32;
    return splitmix(state) & 0xffffffffULL;
}

/** Sweep @p sweep of the run seeded @p seed, in the order the seed
 *  fixes. */
std::vector<Job>
sweepJobs(std::uint64_t seed, std::size_t sweep)
{
    std::vector<Job> jobs;
    for (unsigned copy = 0; copy < sweepCopies; ++copy)
        for (const std::string &k : sweepKernels)
            for (const std::string &s : sweepSchemes)
                jobs.push_back({k, s, copy, inputSeed(seed, sweep, copy)});
    std::uint64_t state = seed + sweep;
    for (std::size_t i = jobs.size() - 1; i > 0; --i)
        std::swap(jobs[i], jobs[splitmix(state) % (i + 1)]);
    return jobs;
}

std::string
jobSpec(const Job &job, bool profile)
{
    std::string spec = "{\"kernel\":" + quote(job.kernel) +
                       ",\"scheme\":" + quote(job.scheme) +
                       ",\"seed\":" + std::to_string(job.seed) +
                       ",\"max_uops\":" + std::to_string(sweepUops) +
                       ",\"parallel_host\":false" +
                       ",\"isolation\":\"process\"";
    if (job.scheme == "bounded")
        spec += ",\"slack\":64";
    if (profile)
        spec += ",\"profile\":true";
    return spec + "}";
}

bool
terminal(const std::string &state)
{
    return state == "done" || state == "failed" || state == "cancelled" ||
           state == "timeout" || state == "crashed";
}

/** Submit one sweep, poll until every job is terminal.
 *  @return the sweep's wall time (first submit to last terminal). */
double
runSweep(serve::Client &client, std::vector<Job> &jobs, bool profile,
         SpanLog &spans, std::uint64_t parentSpan, Outcome &out)
{
    const Clock::time_point start = Clock::now();
    std::map<std::uint64_t, Job *> byId;
    std::map<std::uint64_t, std::uint64_t> waitSpans;
    for (Job &job : jobs) {
        std::string error;
        const std::uint64_t span = spans.begin("submit", parentSpan);
        job.submitted = Clock::now();
        job.id = client.submit(jobSpec(job, profile), &error);
        job.submitMs = since(job.submitted) * 1e3;
        spans.setJob(span, job.id);
        spans.end(span);
        if (job.id == 0) {
            job.state = "rejected: " + error;
            job.turnaround = since(job.submitted);
            continue;
        }
        byId[job.id] = &job;
        waitSpans[job.id] = spans.begin("wait", parentSpan, job.id);
    }

    // Poll the small stats reply; fetch every job's status only when
    // the terminal count moved.
    std::uint64_t seenTerminal = ~0ULL;
    std::size_t pending = byId.size();
    const Clock::time_point deadline = start + std::chrono::seconds(150);
    while (pending > 0 && Clock::now() < deadline) {
        json::Value stats;
        std::string error;
        if (!client.stats(&stats, &error)) {
            out.check(false, "stats op: " + error);
            break;
        }
        const json::Value &q = stats.at("queue");
        const std::uint64_t nowTerminal =
            q.at("done").asUint() + q.at("failed").asUint() +
            q.at("cancelled").asUint() + q.at("timeout").asUint() +
            q.at("crashed").asUint();
        if (nowTerminal != seenTerminal) {
            const Clock::time_point seenAt = Clock::now();
            seenTerminal = nowTerminal;
            json::Value status;
            if (!client.status(0, &status, &error)) {
                out.check(false, "status op: " + error);
                break;
            }
            for (const json::Value &v : status.at("jobs").array) {
                const auto it = byId.find(v.at("id").asUint());
                if (it == byId.end() || it->second->turnaround >= 0.0)
                    continue;
                Job &job = *it->second;
                const std::string &state = v.at("state").asString();
                if (!terminal(state))
                    continue;
                job.turnaround =
                    std::chrono::duration<double>(seenAt - job.submitted)
                        .count();
                job.state = state;
                job.committed = v.at("committed_uops").asUint();
                job.cycles = v.at("simulated_cycles").asUint();
                if (v.has("out_dir"))
                    job.outDir = v.at("out_dir").asString();
                spans.end(waitSpans[job.id]);
                --pending;
            }
        }
        // 10 ms keeps the poll's share of the host small next to the
        // four jobs; turnarounds are seconds long.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return since(start);
}

/** Events of interest from server_events.jsonl, per job id. */
struct JobEvents
{
    double queueMs = -1.0;
    double runMs = -1.0;
};

std::map<std::uint64_t, JobEvents>
readServerEvents(const std::string &path)
{
    std::map<std::uint64_t, JobEvents> events;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const json::Value v = json::parse(line);
        if (!v.has("job"))
            continue;
        JobEvents &e = events[v.at("job").asUint()];
        if (v.has("queue_ms"))
            e.queueMs = v.at("queue_ms").asNumber();
        if (v.has("run_ms"))
            e.runMs = v.at("run_ms").asNumber();
    }
    return events;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** What the harness reads from a finished job's run report: the
 *  status reply carries neither the engine's own wall time nor the
 *  final violation count (only the last heartbeat's). */
struct JobReport
{
    double engineWall = 0.0;
    double violations = 0.0; //!< bus plus map
};

JobReport
readJobReport(const Job &j, Outcome &out)
{
    try {
        const json::Value result =
            json::parse(readFile(j.outDir + "/report.json")).at("result");
        const json::Value &v = result.at("violations");
        return {result.at("wall_seconds").asNumber(),
                v.at("bus").asNumber() + v.at("map").asNumber()};
    } catch (const std::exception &e) {
        out.check(false, "run report of job " + std::to_string(j.id) +
                             ": " + e.what());
        return {};
    }
}

void
runServeWorkload(const Args &args, SpanLog &spans, Outcome &out)
{
    noteProvenance(out, args, "cc,adaptive,bounded(64),quantum serial");

    // Generation cost of one copy's four inputs, and their fingerprints
    // (barnes and water use the seed; fft and lu do not).
    double gen = 0.0;
    std::string inputs = "{";
    for (const std::string &k : sweepKernels) {
        WorkloadParams p;
        p.kernel = k;
        p.numThreads = 8;
        p.seed = inputSeed(args.seed, 0, 0);
        Scoped span(spans, "makeWorkload " + k);
        const Clock::time_point t0 = Clock::now();
        const Workload w = makeWorkload(p);
        gen += since(t0);
        inputs += (inputs.size() > 1 ? "," : "") + quote(k) + ":" +
                  quote(hex(inputFingerprint(w)));
    }
    out.note("inputs", inputs + "}");

    // Daemon set-up, spawn to first answered ping: the sweep daemon's
    // own start, plus one throwaway daemon before every sweep so the
    // samples span the whole run, not its first second.
    std::vector<double> setup;
    unsigned daemons = 0;
    auto startDaemon = [&]() {
        Scoped span(spans, "daemon start");
        auto d = std::make_unique<Daemon>(args.serveBin, daemons++);
        const double ready = d->waitReady();
        out.check(ready >= 0.0, "daemon answered a ping within 30 s");
        if (ready >= 0.0)
            setup.push_back(ready);
        return ready >= 0.0 ? std::move(d) : nullptr;
    };
    const std::unique_ptr<Daemon> daemon = startDaemon();
    if (!daemon)
        return;

    serve::Client client(daemon->socket());
    out.check(client.valid(), "client connected");
    std::vector<std::vector<Job>> plainSweeps, tracedSweeps;
    std::vector<double> plainWalls, tracedWalls;
    auto sweepWindow = [&](bool profiled, double window,
                           std::vector<std::vector<Job>> &sweeps,
                           std::vector<double> &walls) {
        const Clock::time_point start = Clock::now();
        do {
            if (const auto probe = startDaemon())
                out.check(probe->stop(), "daemon exited cleanly");
            Scoped span(spans, profiled ? "sweep (profiled)" : "sweep");
            sweeps.push_back(sweepJobs(
                args.seed, plainSweeps.size() + tracedSweeps.size()));
            walls.push_back(runSweep(client, sweeps.back(), profiled, spans,
                                     span.id(), out));
        } while (since(start) < window);
    };
    sweepWindow(false, args.trace ? args.seconds / 2 : args.seconds,
                plainSweeps, plainWalls);
    if (args.trace)
        sweepWindow(true, args.seconds / 2, tracedSweeps, tracedWalls);

    json::Value stats;
    std::string error;
    double spawned = 0.0, overflow = 0.0;
    if (client.stats(&stats, &error)) {
        spawned = stats.at("pool").at("threads_spawned").asNumber();
        overflow = stats.at("pool").at("overflow_spawns").asNumber();
    }
    out.check(overflow == 0.0, "pool overflow_spawns == 0 (got " +
                                   num(overflow) + ")");
    out.check(daemon->stop(), "sweep daemon exited cleanly");
    const std::map<std::uint64_t, JobEvents> events =
        readServerEvents(daemon->outRoot() + "/server_events.jsonl");

    // Per-job checks, and accuracy: each slack job's cycle error is
    // measured against the CC job on the same inputs in its sweep.
    std::vector<double> turnaround, errors, submitMs, queueMs, runMs;
    std::vector<double> runSumS;
    std::vector<double> jobRates; // committed uops / engine wall, per job
    double wall = 0.0, jobsDone = 0.0;
    double slackViolations = 0.0, slackCycles = 0.0;
    auto account = [&](const std::vector<Job> &sweep, double sweepWall,
                       bool collect) {
        std::map<std::pair<std::string, unsigned>, double> ccCycles;
        for (const Job &j : sweep)
            if (j.scheme == "cc" && j.state == "done")
                ccCycles[{j.kernel, j.copy}] = static_cast<double>(j.cycles);
        double runSum = 0.0;
        for (const Job &j : sweep) {
            std::vector<std::string> problems;
            if (j.state != "done")
                problems.push_back("ended '" + j.state + "'");
            if (j.state == "done" && j.committed < sweepUops) {
                problems.push_back("stopped at " +
                                   std::to_string(j.committed) + " uops");
            }
            out.operation(problems, "sweep job " + j.kernel + "/" +
                                        j.scheme);
            const auto ev = events.find(j.id);
            if (ev != events.end())
                runSum += std::max(0.0, ev->second.runMs) * 1e-3;
            if (!collect)
                continue;
            turnaround.push_back(j.turnaround);
            submitMs.push_back(j.submitMs);
            if (ev != events.end()) {
                queueMs.push_back(ev->second.queueMs);
                runMs.push_back(ev->second.runMs);
            }
            if (j.state != "done")
                continue;
            jobsDone += 1.0;
            const JobReport report = readJobReport(j, out);
            jobRates.push_back(
                ratio(static_cast<double>(j.committed), report.engineWall));
            const auto cc = ccCycles.find({j.kernel, j.copy});
            if (j.scheme != "cc" && cc != ccCycles.end()) {
                errors.push_back(100.0 *
                                 std::fabs(static_cast<double>(j.cycles) -
                                           cc->second) /
                                 cc->second);
                slackViolations += report.violations;
                slackCycles += static_cast<double>(j.cycles);
            }
        }
        if (collect) {
            runSumS.push_back(ratio(runSum, sweepWall * serveThreads));
            wall += sweepWall;
        }
    };
    for (std::size_t i = 0; i < plainSweeps.size(); ++i)
        account(plainSweeps[i], plainWalls[i], !args.trace);
    for (std::size_t i = 0; i < tracedSweeps.size(); ++i)
        account(tracedSweeps[i], tracedWalls[i], true);
    out.note("sweeps", std::to_string(plainSweeps.size() +
                                       tracedSweeps.size()));
    out.note("jobs_per_sweep", std::to_string(sweepJobs(0, 0).size()));
    out.note("host_threads_per_job", "1");
    out.note("daemon_starts", std::to_string(setup.size()));
    out.note("serve_thread_budget", std::to_string(serveThreads));

    if (!args.trace) {
        emitEndToEnd(out, median(jobRates), ratio(60.0 * jobsDone, wall),
                     turnaround, mean(errors),
                     ratio(1000.0 * slackViolations, slackCycles),
                     median(setup), peakRssMb());
        out.note("turnaround_samples", std::to_string(turnaround.size()));
        out.note("accuracy_samples", std::to_string(errors.size()));
        return;
    }

    // Traced: per-job profiles from the daemon's run reports, and the
    // simulated counters from one in-process rerun of each distinct
    // job config on the same serial engine, which must reproduce the
    // daemon's cycles and uops exactly.
    std::vector<LayerSample> samples;
    for (const std::vector<Job> &sweep : tracedSweeps) {
        for (const Job &j : sweep) {
            if (j.outDir.empty())
                continue;
            try {
                const json::Value report =
                    json::parse(readFile(j.outDir + "/report.json"));
                const json::Value &prof = report.at("profile");
                std::map<std::string, double> ns;
                for (const json::Value &p : prof.at("phases").array)
                    ns[p.at("name").asString()] += p.at("ns").asNumber();
                double other = 0.0;
                for (const json::Value &w : prof.at("workers").array)
                    other += w.at("other_ns").asNumber();
                LayerSample s;
                addPhases(s, ns, other);
                s["core.engine_wall_s"] =
                    report.at("result").at("wall_seconds").asNumber();
                samples.push_back(std::move(s));
            } catch (const std::exception &e) {
                out.check(false, "run report of job " +
                                     std::to_string(j.id) + ": " +
                                     e.what());
            }
        }
    }
    // Simulated counters summed over one rerun of each distinct config;
    // rates then come out of the sums.
    RunResult total;
    std::vector<double> finalBounds;
    const std::vector<Job> &firstSweep = tracedSweeps.front();
    for (const std::string &k : sweepKernels) {
        for (const std::string &s : sweepSchemes) {
            const auto it = std::find_if(
                firstSweep.begin(), firstSweep.end(), [&](const Job &j) {
                    return j.kernel == k && j.scheme == s;
                });
            serve::JobSpec spec;
            std::string specError;
            const bool parsed = serve::JobSpec::parse(
                json::parse(jobSpec(*it, false)), &spec,
                &specError);
            out.check(parsed, "job spec parses: " + specError);
            if (!parsed)
                continue;
            Scoped span(spans, "rerun " + k + "/" + s);
            const RunResult r = runSimulation(spec.toConfig());
            out.check(r.execCycles == it->cycles &&
                          r.committedUops == it->committed,
                      "in-process rerun of " + k + "/" + s +
                          " matches the daemon job");
            total.execCycles += r.execCycles;
            total.committedUops += r.committedUops;
            total.coreTotal.add(r.coreTotal);
            total.uncore.add(r.uncore);
            total.violations.add(r.violations);
            total.host.managerWakeups += r.host.managerWakeups;
            total.host.coreParkEvents += r.host.coreParkEvents;
            total.host.slackAdjustments += r.host.slackAdjustments;
            total.host.maxObservedSlack = std::max(
                total.host.maxObservedSlack, r.host.maxObservedSlack);
            if (s == "adaptive")
                finalBounds.push_back(
                    static_cast<double>(r.finalSlackBound));
        }
    }
    LayerSample counters;
    addCounters(counters, total);
    counters.erase("core.engine_wall_s"); // per job, from the reports
    counters["pacer.final_bound"] = mean(finalBounds);
    counters["workload.gen_s"] = gen;
    counters["accuracy.cycle_error_pct"] = mean(errors);
    counters["serve.submit_rpc_ms"] = median(submitMs);
    counters["serve.queue_wait_ms"] = median(queueMs);
    counters["serve.run_ms"] = median(runMs);
    counters["serve.concurrency"] = median(runSumS);
    counters["serve.threads_spawned"] = spawned;
    counters["serve.overflow_spawns"] = overflow;
    counters["obs.traced_overhead_frac"] =
        ratio(median(tracedWalls), median(plainWalls)) - 1.0;
    emitLayers(out, samples, counters);
}

// ---- Entry ---------------------------------------------------------------

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --serve-bin PATH "
                 "[--trace-out PATH]\nworkloads: spec-barnes "
                 "serve-sweep\n",
                 problem.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = value;
            } else if (flag == "--seed") {
                a.seed = std::stoull(value);
                haveSeed = true;
            } else if (flag == "--seconds") {
                a.seconds = std::stod(value);
                haveSeconds = true;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                a.trace = value == "1";
                haveTrace = true;
            } else if (flag == "--serve-bin") {
                a.serveBin = value;
            } else if (flag == "--trace-out") {
                a.traceOut = value;
            } else {
                usage("unknown option " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        usage("--seed, --seconds and --trace are required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    if (a.workload == "serve-sweep" && a.serveBin.empty())
        usage("serve-sweep needs --serve-bin");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    // Pin glibc's mmap and trim thresholds at the values its dynamic
    // rule reaches once a process has freed a large block (the 64-bit
    // maximum). Left dynamic, where they stand depends on the order in
    // which the engine's threads free memory, and runSimulation()'s
    // set-up time flips between two modes about 60% apart from one
    // run to the next.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    const Args args = parseArgs(argc, argv);
    SpanLog spans(args.trace);
    Outcome out;
    if (args.workload == "spec-barnes") {
        runSpecBarnes(args, spans, out);
    } else if (args.workload == "serve-sweep") {
        runServeWorkload(args, spans, out);
    } else {
        usage("unknown workload '" + args.workload + "'");
    }
    if (args.trace) {
        out.check(spans.write(args.traceOut),
                  "Chrome trace written to " + args.traceOut);
    }
    out.print(args);
    return 0;
}
