/**
 * @file
 * Tests of the parallel simulation harness (common/parallel.hpp):
 * parallelFor's scheduling and exception contract, and the determinism
 * contract -- sweeps and experiments produce bit-identical results at
 * any thread count.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "traffic/splash.hpp"

namespace phastlane::sim {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    // n < threads included: surplus workers must not run anything.
    for (int threads : {1, 2, 4, 8}) {
        for (size_t n : {size_t{1}, size_t{3}, size_t{1000}}) {
            std::vector<std::atomic<int>> hits(n);
            parallelFor(
                n,
                [&](size_t i) {
                    hits[i].fetch_add(1, std::memory_order_relaxed);
                },
                threads);
            for (size_t i = 0; i < n; ++i) {
                EXPECT_EQ(hits[i].load(), 1)
                    << "index " << i << " of " << n << " at "
                    << threads << " threads";
            }
        }
    }
}

TEST(ParallelFor, PropagatesTheFirstException)
{
    for (int threads : {1, 2, 4, 8}) {
        for (size_t n : {size_t{2}, size_t{16}}) {
            // Indices 1 and n - 1 throw; inline, index 1 is first.
            std::atomic<int> ran{0};
            std::string what;
            try {
                parallelFor(
                    n,
                    [&](size_t i) {
                        ++ran;
                        if (i == 1 || i == n - 1)
                            throw std::runtime_error(
                                "boom " + std::to_string(i));
                    },
                    threads);
            } catch (const std::runtime_error &e) {
                what = e.what();
            }
            if (threads == 1) {
                EXPECT_EQ(what, "boom 1");
                continue;
            }
            EXPECT_TRUE(what == "boom 1" ||
                        what == "boom " + std::to_string(n - 1))
                << what << " at " << threads << " threads";
            // Workers finish the other indices before rethrowing.
            EXPECT_EQ(ran.load(), static_cast<int>(n))
                << threads << " threads";
        }
    }
}

TEST(ParallelFor, SlowIndexDoesNotHoldOthersBack)
{
    // Index 0 waits (bounded) for every other index. Dealing indices
    // in fixed chunks would strand index 1 behind it in the same
    // chunk; self-scheduling lets the second worker run them all.
    constexpr size_t kN = 16;
    std::atomic<size_t> others{0};
    bool saw_all = false;
    parallelFor(
        kN,
        [&](size_t i) {
            if (i != 0) {
                ++others;
                return;
            }
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(10);
            while (others.load() < kN - 1 &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            saw_all = others.load() == kN - 1;
        },
        2);
    EXPECT_TRUE(saw_all);
}

TEST(ParallelFor, SerialAndZeroSizedEdgeCases)
{
    int ran = 0;
    parallelFor(0, [&](size_t) { ++ran; }, 4);
    EXPECT_EQ(ran, 0);
    parallelFor(5, [&](size_t) { ++ran; }, 1);
    EXPECT_EQ(ran, 5);
}

TEST(ParallelFor, DerivedSeedsAreStableAndDistinct)
{
    // Stability across calls and platforms (golden-free: identical
    // recomputation), distinctness across indices and bases.
    std::vector<uint64_t> seeds;
    for (uint64_t i = 0; i < 64; ++i) {
        seeds.push_back(derivePointSeed(12345, i));
        EXPECT_EQ(seeds.back(), derivePointSeed(12345, i));
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
    EXPECT_NE(derivePointSeed(1, 0), derivePointSeed(2, 0));
}

TEST(ResolveThreadCount, ExplicitRequestWins)
{
    EXPECT_EQ(resolveThreadCount(3), 3);
    EXPECT_GE(resolveThreadCount(0), 1);
}

/** The default rate grid must have exact, drift-free endpoints. */
TEST(RateGrid, IntegerGeneratedEndpoints)
{
    const auto rates = defaultRateGrid();
    ASSERT_EQ(rates.size(), 26u); // 9 fine + 17 coarse points
    EXPECT_EQ(rates.front(), 0.01);
    EXPECT_EQ(rates[8], 0.09);
    EXPECT_EQ(rates[9], 0.10);
    EXPECT_EQ(rates.back(), 0.50); // exactly, not 0.499999...
    for (size_t i = 1; i < rates.size(); ++i)
        EXPECT_GT(rates[i], rates[i - 1]);
}

SweepConfig
smallSweep(int threads)
{
    SweepConfig sc;
    sc.pattern = traffic::Pattern::Transpose;
    sc.rates = {0.02, 0.05, 0.10, 0.20, 0.30, 0.40};
    sc.warmupCycles = 200;
    sc.measureCycles = 800;
    sc.seed = 99;
    sc.threads = threads;
    return sc;
}

void
expectIdenticalPoints(const std::vector<SweepPoint> &a,
                      const std::vector<SweepPoint> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].injectionRate, b[i].injectionRate);
        EXPECT_EQ(a[i].result.avgLatency, b[i].result.avgLatency);
        EXPECT_EQ(a[i].result.p99Latency, b[i].result.p99Latency);
        EXPECT_EQ(a[i].result.acceptedRate,
                  b[i].result.acceptedRate);
        EXPECT_EQ(a[i].result.offeredRate, b[i].result.offeredRate);
        EXPECT_EQ(a[i].result.measuredPackets,
                  b[i].result.measuredPackets);
        EXPECT_EQ(a[i].result.saturated, b[i].result.saturated);
    }
}

TEST(ParallelSweep, BitIdenticalToSerial)
{
    const auto serial =
        runSweep(makeConfig("Optical4"), smallSweep(1));
    const auto parallel =
        runSweep(makeConfig("Optical4"), smallSweep(4));
    expectIdenticalPoints(serial, parallel);
}

TEST(ParallelSweep, SaturationTruncationMatchesSerial)
{
    // Electrical2 saturates within this grid, exercising the
    // wave-and-truncate early-exit path of the parallel sweep.
    auto sc1 = smallSweep(1);
    auto sc4 = smallSweep(4);
    sc1.stopAtSaturation = sc4.stopAtSaturation = true;
    const auto serial = runSweep(makeConfig("Electrical2"), sc1);
    const auto parallel = runSweep(makeConfig("Electrical2"), sc4);
    expectIdenticalPoints(serial, parallel);
}

TEST(ParallelExperiment, BitIdenticalToSerial)
{
    ExperimentSpec spec;
    spec.configs = {"Electrical3", "Optical4"};
    const auto suite = traffic::splashSuite();
    ASSERT_GE(suite.size(), 2u);
    spec.benchmarks = {suite[0], suite[1]};
    spec.txnsPerNode = 20;
    spec.seed = 7;

    spec.threads = 1;
    const auto serial = runExperiment(spec);
    spec.threads = 4;
    const auto parallel = runExperiment(spec);

    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), 4u);
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].benchmark, parallel[i].benchmark);
        EXPECT_EQ(serial[i].config, parallel[i].config);
        EXPECT_EQ(serial[i].result.completionCycles,
                  parallel[i].result.completionCycles);
        EXPECT_EQ(serial[i].result.transactions,
                  parallel[i].result.transactions);
        EXPECT_EQ(serial[i].result.avgMessageLatency,
                  parallel[i].result.avgMessageLatency);
        EXPECT_EQ(serial[i].drops, parallel[i].drops);
        EXPECT_EQ(serial[i].power.totalW, parallel[i].power.totalW);
    }
    // Grouped by benchmark, configs in specification order.
    EXPECT_EQ(serial[0].benchmark, serial[1].benchmark);
    EXPECT_EQ(serial[0].config, "Electrical3");
    EXPECT_EQ(serial[1].config, "Optical4");
}

} // namespace
} // namespace phastlane::sim
