/**
 * @file
 * The paper's Section 5.1 checkpoint mechanism, implemented for real:
 * memory-based process checkpoints built on fork().
 *
 * At a checkpoint the running process forks; the parent suspends in
 * waitpid() and *is* the checkpoint (its entire address space). The
 * child continues the simulation. On a rollback the child _exit()s
 * with a distinguished status and the parent wakes up and resumes
 * from the point where the checkpoint was made. When a newer
 * checkpoint is established, the now-obsolete older checkpoint holder
 * is released with kill(), exactly as the paper describes.
 *
 * Restrictions: fork() only clones the calling thread, so this
 * technology is only legal on one host thread (parallelHost = false
 * or hostThreads = 1; SimConfig::validate enforces it). Completion propagates by exit
 * status through the chain of holders, so the final results must be
 * emitted by the finishing process (print them, or write them to a
 * pipe created before the first checkpoint) — see
 * examples/fork_checkpoint_demo.cpp.
 *
 * Cross-rollback bookkeeping (rollback and checkpoint counters,
 * wasted cycles) lives in a MAP_SHARED page that survives rollbacks.
 */

#ifndef SLACKSIM_CORE_FORK_CHECKPOINT_HH
#define SLACKSIM_CORE_FORK_CHECKPOINT_HH

#include <atomic>
#include <cstdint>

#include "util/types.hh"

namespace slacksim {

/** fork()-based process checkpointing. */
class ForkCheckpointer
{
  public:
    /** What checkpoint() reports to the caller. */
    enum class Outcome : std::uint8_t
    {
        Continue,   //!< fresh checkpoint taken; keep simulating
        RolledBack, //!< this process just woke up as the checkpoint:
                    //!< all memory is back at checkpoint state
    };

    /**
     * @param child_timeout_ms kill and recover a child that produces
     *        no exit status within this many host ms (0: wait
     *        forever, the historical behavior)
     */
    explicit ForkCheckpointer(std::uint64_t child_timeout_ms = 0);
    ~ForkCheckpointer();

    ForkCheckpointer(const ForkCheckpointer &) = delete;
    ForkCheckpointer &operator=(const ForkCheckpointer &) = delete;

    /** Injected child self-destruction (fault/fault_plan.hh). */
    enum class ChildFault : std::uint8_t
    {
        None, //!< run normally
        Kill, //!< raise(SIGKILL) right after fork
        Exit, //!< _exit() with a distinguished nonzero status
    };

    /**
     * Establish a checkpoint here. The caller's process forks: the
     * parent becomes the suspended checkpoint holder and the child
     * returns Continue. If the simulation later rolls back, control
     * returns from this very call in the (former) parent with
     * RolledBack and pre-fork memory contents.
     *
     * A child that dies by signal (including an injected @p inject
     * fault or a child-timeout kill) is *recovered*: the suspended
     * parent counts it in recoveredDeaths and resumes as if a
     * rollback had been requested, up to a bounded number of times
     * before propagating the failure up the holder chain. Ordinary
     * nonzero child exits still propagate unchanged — an application
     * error is not a crash to retry.
     */
    Outcome checkpoint(ChildFault inject = ChildFault::None);

    /**
     * Abandon the current execution and resume from the last
     * checkpoint. Never returns: the calling process exits and the
     * checkpoint holder wakes up inside its checkpoint() call.
     */
    [[noreturn]] void rollback();

    /** @return rollbacks performed so far (survives rollbacks). */
    std::uint64_t rollbackCount() const;

    /** @return checkpoints established so far (survives rollbacks). */
    std::uint64_t checkpointCount() const;

    /** Accumulate simulated cycles wasted by an upcoming rollback. */
    void addWastedCycles(std::uint64_t cycles);

    /** @return accumulated wasted cycles (survives rollbacks). */
    std::uint64_t wastedCycles() const;

    /** @return accumulated fork() call time in seconds. */
    double checkpointSeconds() const;

    /** @return child deaths absorbed as rollbacks so far. */
    std::uint64_t recoveredDeaths() const;

    /** Unexpected child deaths recovered before giving up. */
    static constexpr std::uint64_t maxRecoveredDeaths = 3;

  private:
    struct SharedPage
    {
        std::atomic<std::uint64_t> rollbacks{0};
        std::atomic<std::uint64_t> checkpoints{0};
        std::atomic<std::uint64_t> wastedCycles{0};
        std::atomic<std::uint64_t> checkpointMicros{0};
        std::atomic<std::uint64_t> recoveredDeaths{0};
        std::atomic<std::int32_t> obsoleteHolder{0};
    };

    SharedPage *shared_ = nullptr;
    std::uint64_t childTimeoutMs_ = 0;
};

} // namespace slacksim

#endif // SLACKSIM_CORE_FORK_CHECKPOINT_HH
