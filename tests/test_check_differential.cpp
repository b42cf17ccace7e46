/**
 * @file
 * Lockstep differential campaign: the optimized wavefront network and
 * the ReferenceNetwork oracle must agree cycle-for-cycle over the
 * randomized matrix of patterns, mesh shapes, hop limits and buffer
 * depths — and a deliberately mutated network must be caught,
 * shrunk to a minimal repro, and rendered as a pasteable test.
 *
 * PL_CHECK_LONG=1 in the environment widens the campaign (more seeds,
 * longer streams) for soak runs; the tier-1 default keeps the suite
 * in seconds.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "check/differential.hpp"

namespace phastlane::check {
namespace {

bool
longMode()
{
    const char *v = std::getenv("PL_CHECK_LONG");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

TEST(CheckDifferential, CampaignAgreesAcrossMatrix)
{
    // Tier-1: every cell x 5 seeds over >= 5 patterns, mesh shapes
    // from 4x2 to 16x16 (multi-word planes included), H in {4,5,8},
    // depths {1,2,10}, shared pools, both arbitrations, exponential
    // backoff, faults, admission policies and adversarial mixes.
    const int seeds = longMode() ? 25 : 5;
    const Cycle cycles = longMode() ? 400 : 120;
    const auto cells = defaultCampaign(seeds, cycles);
    ASSERT_GE(cells.size(), 50u);
    const auto result = runCampaign(cells, 20000);
    EXPECT_EQ(result.runs, static_cast<int>(cells.size()));
    for (const auto &report : result.reports)
        ADD_FAILURE() << report;
    EXPECT_EQ(result.failures, 0);
}

TEST(CheckDifferential, LockstepIsDeterministic)
{
    core::PhastlaneParams p;
    p.meshWidth = 4;
    p.meshHeight = 4;
    p.routerBufferEntries = 2;
    StreamConfig sc;
    sc.rate = 0.4;
    sc.broadcastFraction = 0.2;
    sc.cycles = 80;
    sc.seed = 77;
    p.seed = sc.seed;
    const auto stream = makeStream(p, sc);
    ASSERT_FALSE(stream.empty());
    const auto first = runLockstep(p, stream, 20000);
    const auto second = runLockstep(p, stream, 20000);
    EXPECT_TRUE(first.ok) << first.message;
    EXPECT_EQ(first.ok, second.ok);
    EXPECT_EQ(first.message, second.message);
}

TEST(CheckDifferential, ShrinkerLeavesPassingStreamAlone)
{
    core::PhastlaneParams p;
    p.meshWidth = 4;
    p.meshHeight = 4;
    StreamConfig sc;
    sc.rate = 0.2;
    sc.cycles = 40;
    sc.seed = 5;
    p.seed = sc.seed;
    const auto stream = makeStream(p, sc);
    ASSERT_TRUE(runLockstep(p, stream, 20000).ok);
    EXPECT_EQ(shrinkStream(p, stream, 20000).size(), stream.size());
}

TEST(CheckDifferential, MutationPriorityInversionIsCaught)
{
    // Acceptance demo: flip straight-over-turn priority in the
    // optimized network only (the oracle implements the paper). The
    // differential must catch it, the shrinker must produce a smaller
    // stream that still fails, and the repro must be a gtest case.
    core::PhastlaneParams p;
    p.routerBufferEntries = 1; // contention => priority matters
    StreamConfig sc;
    sc.rate = 0.5;
    sc.broadcastFraction = 0.2;
    sc.cycles = 80;

    bool caught = false;
    for (uint64_t seed = 1; seed <= 8 && !caught; ++seed) {
        sc.seed = seed;
        p.seed = seed;
        p.faults.invertStraightPriority = true;
        const auto stream = makeStream(p, sc);
        const auto result = runLockstep(p, stream, 20000);
        if (result.ok)
            continue;
        caught = true;
        EXPECT_FALSE(result.message.empty());

        const auto shrunk = shrinkStream(p, stream, 20000);
        EXPECT_LT(shrunk.size(), stream.size());
        EXPECT_FALSE(runLockstep(p, shrunk, 20000).ok);

        const auto repro = reproTestCase(p, shrunk);
        EXPECT_NE(repro.find("TEST("), std::string::npos);
        EXPECT_NE(repro.find("runLockstep"), std::string::npos);

        // Sanity: the same seed passes without the fault.
        p.faults.invertStraightPriority = false;
        EXPECT_TRUE(runLockstep(p, stream, 20000).ok);
    }
    EXPECT_TRUE(caught)
        << "priority inversion never diverged in 8 seeds";
}

TEST(CheckDifferential, MakeStreamHonoursRecipe)
{
    core::PhastlaneParams p;
    p.meshWidth = 4;
    p.meshHeight = 4;
    StreamConfig sc;
    sc.rate = 0.3;
    sc.broadcastFraction = 1.0;
    sc.cycles = 50;
    sc.seed = 9;
    const auto stream = makeStream(p, sc);
    ASSERT_FALSE(stream.empty());
    PacketId prev = 0;
    for (const auto &inj : stream) {
        EXPECT_LT(inj.at, sc.cycles);
        EXPECT_TRUE(inj.pkt.broadcast);
        EXPECT_EQ(inj.pkt.id, prev + 1) << "ids must be sequential";
        prev = inj.pkt.id;
    }
    // Same recipe, same stream.
    const auto again = makeStream(p, sc);
    ASSERT_EQ(again.size(), stream.size());
    for (size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(again[i].at, stream[i].at);
        EXPECT_EQ(again[i].pkt.id, stream[i].pkt.id);
        EXPECT_EQ(again[i].pkt.src, stream[i].pkt.src);
        EXPECT_EQ(again[i].pkt.dst, stream[i].pkt.dst);
    }
}

} // namespace
} // namespace phastlane::check
