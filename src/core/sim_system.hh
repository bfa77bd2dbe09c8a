/**
 * @file
 * The complete simulated world: all core complexes plus the uncore,
 * built from one SimConfig. Engines drive it; the checkpoint
 * machinery serializes it wholesale.
 */

#ifndef SLACKSIM_CORE_SIM_SYSTEM_HH
#define SLACKSIM_CORE_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/core_complex.hh"
#include "mem/address_space.hh"
#include "stats/stats.hh"
#include "uncore/uncore.hh"
#include "util/snapshot.hh"
#include "workload/trace.hh"

namespace slacksim {

namespace fault {
class FaultPlan;
}

/** The target machine + workload instantiated and ready to run. */
class SimSystem : public Snapshotable
{
  public:
    /** Build the world: generates the workload and all components. */
    explicit SimSystem(const SimConfig &config);

    SimSystem(const SimSystem &) = delete;
    SimSystem &operator=(const SimSystem &) = delete;

    const SimConfig &config() const { return config_; }
    const Workload &workload() const { return workload_; }

    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

    CoreComplex &core(CoreId i) { return *cores_[i]; }
    const CoreComplex &core(CoreId i) const { return *cores_[i]; }
    Uncore &uncore() { return *uncore_; }
    const Uncore &uncore() const { return *uncore_; }

    const UncoreStats &uncoreStats() const { return uncoreStats_; }
    const ViolationStats &violations() const { return violations_; }

    /** @return sum of committed micro-ops over all cores. */
    std::uint64_t totalCommittedUops() const;

    /**
     * Zero every simulated statistic (core, uncore, violation
     * counters, histograms) without touching architectural state —
     * the warmup-discard operation. Caller must guarantee no core
     * worker thread is running (one host thread, or workers paused).
     */
    void resetSimStats();

    /** @return true when every core finished its trace. */
    bool allFinished() const;

    /** @return the smallest local time among unfinished cores, or
     *  the largest local time when all cores finished. */
    Tick globalTime() const;

    /** @return the largest local time among all cores. */
    Tick maxLocalTime() const;

    void save(SnapshotWriter &writer) const override;
    void restore(SnapshotReader &reader) override;

    /**
     * Bind this world to its run: the token runSimulation() minted
     * and the (possibly null) fault plan it installed. The engines
     * read the binding to replicate both onto every worker thread
     * they borrow (ScopedRunToken + ScopedFaultPlan), which is what
     * keeps concurrent runs in one process from cross-registering
     * obs threads or firing each other's faults.
     */
    void
    setRunBinding(std::uint64_t token, fault::FaultPlan *plan)
    {
        runToken_ = token;
        faultPlan_ = plan;
    }

    /** @return the run token bound by runSimulation() (0: unbound). */
    std::uint64_t runToken() const { return runToken_; }

    /** @return the fault plan of this run, or nullptr. */
    fault::FaultPlan *faultPlan() const { return faultPlan_; }

  private:
    SimConfig config_;
    std::uint64_t runToken_ = 0;
    fault::FaultPlan *faultPlan_ = nullptr;
    Workload workload_;
    UncoreStats uncoreStats_;
    ViolationStats violations_;
    std::vector<std::unique_ptr<CoreComplex>> cores_;
    std::unique_ptr<Uncore> uncore_;
};

} // namespace slacksim

#endif // SLACKSIM_CORE_SIM_SYSTEM_HH
