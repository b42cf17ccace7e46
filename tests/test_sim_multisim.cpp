/**
 * @file
 * sim::MultiSim runs step-wise jobs to completion one after another.
 * Sweep points driven as MultiSim jobs must give exactly the points
 * runSweep gives, at any thread count.
 */

#include <gtest/gtest.h>
#include <memory>
#include <utility>
#include <vector>

#include "core/network.hpp"
#include "sim/multisim.hpp"
#include "sim/sweep.hpp"

namespace phastlane::sim {
namespace {

/** One sweep point as a MultiSim job, configured as runSweep
 *  configures its points. */
class SweepPointJob final : public MultiSim::Job
{
  public:
    SweepPointJob(const NetConfig &cfg, const SweepConfig &sc,
                  double rate)
        : net_(cfg.make(sc.seed)), driver_(*net_, synthetic(sc, rate))
    {
        driver_.begin();
    }

    core::PhastlaneNetwork &network() override
    {
        return static_cast<core::PhastlaneNetwork &>(*net_);
    }
    bool done() override { return driver_.done(); }
    void preStep() override { driver_.preStep(); }
    void postStep() override { driver_.postStep(); }

    traffic::SyntheticResult finish() { return driver_.finish(); }
    Cycle cycles() const { return net_->now(); }

  private:
    static traffic::SyntheticConfig synthetic(const SweepConfig &sc,
                                              double rate)
    {
        traffic::SyntheticConfig cfg;
        cfg.pattern = sc.pattern;
        cfg.patternOpts = sc.patternOpts;
        cfg.adversarial = sc.adversarial;
        cfg.injectionRate = rate;
        cfg.warmupCycles = sc.warmupCycles;
        cfg.measureCycles = sc.measureCycles;
        cfg.seed = sc.seed;
        return cfg;
    }

    std::unique_ptr<Network> net_;
    traffic::SyntheticDriver driver_;
};

/** Optical4 on a @p width x @p height mesh. */
NetConfig
optical4(int width, int height)
{
    NetConfig cfg = makeConfig("Optical4");
    cfg.make = [inner = cfg.make, width,
                height](uint64_t seed) -> std::unique_ptr<Network> {
        const auto net = inner(seed);
        core::PhastlaneParams p =
            static_cast<const core::PhastlaneNetwork &>(*net).params();
        p.meshWidth = width;
        p.meshHeight = height;
        return std::make_unique<core::PhastlaneNetwork>(p);
    };
    return cfg;
}

void
expectSamePoint(const traffic::SyntheticResult &got,
                const traffic::SyntheticResult &want, double rate)
{
    EXPECT_EQ(got.offeredRate, want.offeredRate) << "rate " << rate;
    EXPECT_EQ(got.acceptedRate, want.acceptedRate) << "rate " << rate;
    EXPECT_EQ(got.avgLatency, want.avgLatency) << "rate " << rate;
    EXPECT_EQ(got.avgNetLatency, want.avgNetLatency) << "rate " << rate;
    EXPECT_EQ(got.p99Latency, want.p99Latency) << "rate " << rate;
    EXPECT_EQ(got.measuredPackets, want.measuredPackets)
        << "rate " << rate;
    EXPECT_EQ(got.saturated, want.saturated) << "rate " << rate;
}

/** One sweep whose points run as MultiSim jobs. */
struct JobSweep {
    NetConfig cfg;
    SweepConfig sc;
    std::vector<std::unique_ptr<SweepPointJob>> jobs;
};

JobSweep
jobSweep(NetConfig cfg, Cycle measureCycles)
{
    JobSweep s;
    s.cfg = std::move(cfg);
    s.sc.rates = {0.01, 0.05, 0.2};
    s.sc.warmupCycles = 100;
    s.sc.measureCycles = measureCycles;
    s.sc.seed = 17;
    s.sc.stopAtSaturation = false;
    return s;
}

/** Registers the sweeps' points with one MultiSim, interleaved point
 *  by point, and runs them all. */
void
runInterleaved(std::vector<JobSweep> &sweeps)
{
    MultiSim ms;
    for (size_t i = 0; i < sweeps.front().sc.rates.size(); ++i) {
        for (JobSweep &s : sweeps) {
            s.jobs.push_back(std::make_unique<SweepPointJob>(
                s.cfg, s.sc, s.sc.rates[i]));
            ms.add(*s.jobs.back());
        }
    }
    ms.runAll();
}

/** Every sweep's job results equal runSweep's points at 1 and 2
 *  threads. */
void
expectMatchesRunSweep(std::vector<JobSweep> &sweeps)
{
    for (JobSweep &s : sweeps) {
        std::vector<traffic::SyntheticResult> got;
        for (auto &job : s.jobs)
            got.push_back(job->finish());
        for (int threads : {1, 2}) {
            SCOPED_TRACE(threads);
            s.sc.threads = threads;
            const auto want = runSweep(s.cfg, s.sc);
            ASSERT_EQ(want.size(), got.size());
            for (size_t i = 0; i < want.size(); ++i)
                expectSamePoint(got[i], want[i].result,
                                want[i].injectionRate);
        }
    }
}

// The two test names below date from the batched gang MultiSim once
// drove; they now check the same properties of the plain job loop.

/** Jobs of two mesh shapes, registered interleaved in one MultiSim,
 *  each give runSweep's point. */
TEST(MultiSimDifferential, MixedMeshShapesGangByShape)
{
    std::vector<JobSweep> sweeps;
    sweeps.push_back(jobSweep(optical4(8, 8), 600));
    sweeps.push_back(jobSweep(optical4(4, 4), 600));
    runInterleaved(sweeps);
    expectMatchesRunSweep(sweeps);
}

/** Jobs that finish early, registered between longer ones, leave the
 *  later jobs' results untouched. */
TEST(MultiSimDifferential, StaggeredCompletionInOneGang)
{
    std::vector<JobSweep> sweeps;
    sweeps.push_back(jobSweep(optical4(8, 8), 600));
    sweeps.push_back(jobSweep(optical4(8, 8), 150));
    runInterleaved(sweeps);
    for (size_t i = 0; i < sweeps[0].jobs.size(); ++i)
        EXPECT_LT(sweeps[1].jobs[i]->cycles(),
                  sweeps[0].jobs[i]->cycles());
    expectMatchesRunSweep(sweeps);
}

} // namespace
} // namespace phastlane::sim
