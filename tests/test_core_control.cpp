/**
 * @file
 * Predecoded control-bit tests (paper Section 2.1 / Fig 3): group
 * encoding, frequency translation, route-program construction, and
 * broadcast splitting.
 */

#include <algorithm>
#include <gtest/gtest.h>
#include <set>

#include "core/control.hpp"

namespace phastlane::core {
namespace {

TEST(ControlGroup, PackUnpackRoundTrip)
{
    for (int bits = 0; bits < 32; ++bits) {
        const ControlGroup g =
            ControlGroup::unpack(static_cast<uint8_t>(bits));
        EXPECT_EQ(g.pack(), bits);
    }
}

TEST(ControlGroup, SetTurnIsExclusive)
{
    ControlGroup g;
    g.setTurn(Turn::Left);
    EXPECT_TRUE(g.left);
    EXPECT_TRUE(g.hasDirection());
    EXPECT_EQ(g.turn(), Turn::Left);
    g.setTurn(Turn::Straight);
    EXPECT_TRUE(g.straight);
    EXPECT_FALSE(g.left);
    EXPECT_EQ(g.turn(), Turn::Straight);
}

TEST(ControlProgram, TranslateConsumesGroups)
{
    ControlProgram p;
    ControlGroup a, b;
    a.setTurn(Turn::Straight);
    b.local = true;
    p.append(a);
    p.append(b);
    EXPECT_EQ(p.remaining(), 2u);
    EXPECT_EQ(p.front(), a);
    p.translate();
    EXPECT_EQ(p.front(), b);
    p.translate();
    EXPECT_TRUE(p.empty());
}

class UnicastPrograms
    : public ::testing::TestWithParam<std::tuple<NodeId, NodeId, int>>
{
  protected:
    MeshTopology mesh_{8, 8};
};

TEST_P(UnicastPrograms, StructureMatchesRoute)
{
    const auto [src, dst, hops] = GetParam();
    ControlProgram p = buildUnicastProgram(mesh_, src, dst, hops);
    const auto route = mesh_.xyRoute(src, dst);
    ASSERT_EQ(p.remaining(), route.size());

    for (size_t i = 0; i < route.size(); ++i) {
        const ControlGroup &g = p.group(i);
        EXPECT_FALSE(g.multicast);
        if (i + 1 < route.size()) {
            // Direction encodes the turn from this router's input to
            // the next route step.
            ASSERT_TRUE(g.hasDirection());
            EXPECT_EQ(applyTurn(opposite(route[i]), g.turn()),
                      route[i + 1]);
            // Interim nodes every `hops` routers.
            EXPECT_EQ(g.local, (i + 1) % static_cast<size_t>(hops) ==
                                   0);
        } else {
            EXPECT_TRUE(g.local);
        }
    }
}

TEST_P(UnicastPrograms, SegmentsNeverExceedHopLimit)
{
    const auto [src, dst, hops] = GetParam();
    ControlProgram p = buildUnicastProgram(mesh_, src, dst, hops);
    int run = 0;
    for (size_t i = 0; i < p.remaining(); ++i) {
        ++run;
        EXPECT_LE(run, hops);
        if (p.group(i).local)
            run = 0;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Routes, UnicastPrograms,
    ::testing::Values(std::tuple{0, 63, 4}, std::tuple{0, 63, 5},
                      std::tuple{0, 63, 8}, std::tuple{63, 0, 4},
                      std::tuple{0, 1, 4}, std::tuple{7, 56, 4},
                      std::tuple{27, 36, 5}, std::tuple{12, 52, 1}));

/**
 * Routes longer than the kMaxGroups control budget (possible only on
 * meshes larger than 8x8) truncate: the program carries exactly
 * kMaxGroups groups, an interim Local stop lands no later than group
 * kMaxGroups - 1, and the last group is never a bare final (the
 * packet re-launches from the interim with a fresh program).
 */
TEST(ControlBudget, LongRoutesTruncateWithForcedInterim)
{
    MeshTopology mesh(32, 32);
    const NodeId src = 0;
    const NodeId dst = mesh.nodeAt({31, 31}); // 62 hops
    for (int hops : {1, 4, 5, 8, 14, 20}) {
        ControlProgram p = buildUnicastProgram(mesh, src, dst, hops);
        ASSERT_EQ(p.remaining(),
                  static_cast<size_t>(ControlProgram::kMaxGroups))
            << "hops " << hops;
        // First Local stop within the truncated spacing, and before
        // the last group.
        size_t first_local = p.remaining();
        for (size_t i = 0; i < p.remaining(); ++i) {
            if (p.group(i).local) {
                first_local = i;
                break;
            }
        }
        const int spacing =
            std::min(hops, ControlProgram::kMaxGroups - 1);
        ASSERT_LT(first_local, p.remaining() - 1) << "hops " << hops;
        EXPECT_EQ(first_local + 1, static_cast<size_t>(spacing))
            << "hops " << hops;
    }
}

TEST(ControlBudget, StopHopsMatchesProgramShape)
{
    MeshTopology mesh(32, 32);
    const NodeId src = 0;
    for (NodeId dst : {mesh.nodeAt({13, 0}), mesh.nodeAt({7, 7}),
                       mesh.nodeAt({31, 31}), mesh.nodeAt({0, 15})}) {
        const size_t route =
            static_cast<size_t>(mesh.hopDistance(src, dst));
        for (int hops : {1, 4, 5, 8, 14}) {
            ControlProgram p =
                buildUnicastProgram(mesh, src, dst, hops);
            // programStopHops is the oracle-shared rule: index of the
            // first Local group, + 1.
            size_t first_local = 0;
            for (size_t i = 0; i < p.remaining(); ++i) {
                if (p.group(i).local) {
                    first_local = i + 1;
                    break;
                }
            }
            EXPECT_EQ(first_local, programStopHops(route, hops))
                << "dst " << dst << " hops " << hops;
        }
    }
}

TEST(ControlBudget, ShortRoutesKeepExactSpacing)
{
    // Routes within the budget are untouched by truncation: one group
    // per router, interim stops exactly every max_hops (the 8x8
    // latency-formula tests depend on this staying bit-identical).
    MeshTopology mesh(32, 32);
    const NodeId src = 0;
    const NodeId dst = mesh.nodeAt({7, 7}); // 14 hops == kMaxGroups
    for (int hops : {4, 5, 14}) {
        ControlProgram p = buildUnicastProgram(mesh, src, dst, hops);
        ASSERT_EQ(p.remaining(), static_cast<size_t>(14));
        for (size_t i = 0; i + 1 < p.remaining(); ++i) {
            EXPECT_EQ(p.group(i).local,
                      (i + 1) % static_cast<size_t>(hops) == 0);
        }
        EXPECT_TRUE(p.group(p.remaining() - 1).local);
        EXPECT_EQ(programStopHops(14, hops),
                  static_cast<size_t>(std::min(hops, 14)));
    }
}

TEST(Broadcast, InteriorSourceHas16Branches)
{
    MeshTopology mesh(8, 8);
    // Paper: up to 16 multicast messages per broadcast.
    for (NodeId src : {9, 27, 36, 20}) {
        EXPECT_EQ(splitBroadcast(mesh, src).size(), 16u)
            << "src " << src;
    }
}

TEST(Broadcast, TopAndBottomRowsHave8Branches)
{
    MeshTopology mesh(8, 8);
    // Paper: eight messages when the source is on the top or bottom
    // row.
    for (NodeId src : {0, 3, 7, 56, 60, 63}) {
        EXPECT_EQ(splitBroadcast(mesh, src).size(), 8u)
            << "src " << src;
    }
}

class BroadcastCoverage : public ::testing::TestWithParam<NodeId>
{
};

TEST_P(BroadcastCoverage, EveryNodeCoveredExactlyOnce)
{
    MeshTopology mesh(8, 8);
    const NodeId src = GetParam();
    std::multiset<NodeId> covered;
    for (const auto &b : splitBroadcast(mesh, src))
        covered.insert(b.taps.begin(), b.taps.end());
    EXPECT_EQ(covered.size(), 63u);
    EXPECT_EQ(covered.count(src), 0u);
    for (NodeId n = 0; n < 64; ++n) {
        if (n != src)
            EXPECT_EQ(covered.count(n), 1u) << "node " << n;
    }
}

TEST_P(BroadcastCoverage, TapsLieOnTheBranchRoute)
{
    MeshTopology mesh(8, 8);
    const NodeId src = GetParam();
    for (const auto &b : splitBroadcast(mesh, src)) {
        const auto path = mesh.xyPath(src, b.finalDst());
        size_t pos = 0;
        for (NodeId tap : b.taps) {
            // Taps appear in path order.
            const auto it =
                std::find(path.begin() + static_cast<long>(pos),
                          path.end(), tap);
            ASSERT_NE(it, path.end())
                << "tap " << tap << " not on route of branch to "
                << b.finalDst();
            pos = static_cast<size_t>(it - path.begin()) + 1;
        }
    }
}

TEST_P(BroadcastCoverage, ProgramsBuildForAllBranches)
{
    MeshTopology mesh(8, 8);
    const NodeId src = GetParam();
    for (int hops : {4, 5, 8}) {
        for (const auto &b : splitBroadcast(mesh, src)) {
            ControlProgram p =
                buildMulticastProgram(mesh, src, b.taps, hops);
            // Count multicast bits: one per tap.
            size_t mcast = 0;
            for (size_t i = 0; i < p.remaining(); ++i)
                mcast += p.group(i).multicast ? 1 : 0;
            EXPECT_EQ(mcast, b.taps.size());
            // The final group is a local+multicast delivery.
            const ControlGroup &last = p.group(p.remaining() - 1);
            EXPECT_TRUE(last.local);
            EXPECT_TRUE(last.multicast);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sources, BroadcastCoverage,
                         ::testing::Values(0, 7, 27, 36, 56, 63, 8,
                                           15, 35));

TEST(Broadcast, WorksOnSmallMeshes)
{
    MeshTopology mesh(2, 2);
    for (NodeId src = 0; src < 4; ++src) {
        std::multiset<NodeId> covered;
        for (const auto &b : splitBroadcast(mesh, src))
            covered.insert(b.taps.begin(), b.taps.end());
        EXPECT_EQ(covered.size(), 3u);
        EXPECT_EQ(covered.count(src), 0u);
    }
}

} // namespace
} // namespace phastlane::core
