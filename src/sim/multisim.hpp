/**
 * @file
 * MultiSim: run a list of step-wise simulations one after another.
 *
 * Callers register Jobs, each a driver (traffic generation, harvest,
 * completion test) wrapped around its own PhastlaneNetwork, and
 * runAll() runs every job to completion in registration order:
 * preStep, network().step(), postStep, for as long as done() is
 * false. A job's results are therefore exactly those of its own
 * serial driver loop. step() itself skips idle routers and NICs
 * (DESIGN.md §3.9), so no job needs a separate engine for speed.
 */

#ifndef PHASTLANE_SIM_MULTISIM_HPP
#define PHASTLANE_SIM_MULTISIM_HPP

#include <vector>

#include "core/network.hpp"

namespace phastlane::sim {

/**
 * Runs registered Jobs to completion (see file comment).
 */
class MultiSim
{
  public:
    /** Default of the constructor's argument, which is ignored. */
    static constexpr int kDefaultBatch = 64;

    /** One step-wise simulation. runAll() calls preStep / postStep
     *  around every network cycle and stops once done() turns true;
     *  the caller finalizes results after runAll() (the Job outlives
     *  the MultiSim). */
    class Job
    {
      public:
        virtual ~Job() = default;

        /** The network this job drives. */
        virtual core::PhastlaneNetwork &network() = 0;

        /** True when the job needs no more cycles. Checked before
         *  every cycle, exactly like a serial driver loop's
         *  condition. */
        virtual bool done() = 0;

        /** Injection side of the next cycle (runs before step). */
        virtual void preStep() = 0;

        /** Harvest side of the cycle (runs after step). */
        virtual void postStep() = 0;
    };

    /** The argument is ignored: jobs run one at a time. */
    explicit MultiSim(int = kDefaultBatch) {}

    /** Register @p job (caller keeps ownership; must outlive
     *  runAll()). */
    void add(Job &job) { jobs_.push_back(&job); }

    /** Run every registered job to completion, in registration
     *  order, then forget them. */
    void runAll()
    {
        for (Job *job : jobs_) {
            while (!job->done()) {
                job->preStep();
                job->network().step();
                job->postStep();
            }
        }
        jobs_.clear();
    }

  private:
    std::vector<Job *> jobs_;
};

} // namespace phastlane::sim

#endif // PHASTLANE_SIM_MULTISIM_HPP
