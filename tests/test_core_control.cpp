/**
 * @file
 * Predecoded control-bit tests (paper Section 2.1 / Fig 3): group
 * encoding, frequency translation, route-program construction, and
 * broadcast splitting; and a differential campaign of the closed-form
 * program builders against the per-router route walk they replaced.
 */

#include <algorithm>
#include <gtest/gtest.h>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

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
        if (n != src) {
            EXPECT_EQ(covered.count(n), 1u) << "node " << n;
        }
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

/**
 * The reference: the incremental route walk that built every program
 * before the closed form, kept verbatim. It steps router by router
 * along the XY route and derives each group from the directions into
 * and out of that router.
 */
ControlProgram
referenceProgram(const MeshTopology &mesh, NodeId from, NodeId dst,
                 std::span<const NodeId> taps, int max_hops)
{
    PL_ASSERT(from != dst, "empty route");
    PL_ASSERT(max_hops >= 1, "hop limit must be at least 1");

    const Coord d = mesh.coordOf(dst);
    // Next XY-route step out of @p c (X first, then Y); must not be
    // called at the destination.
    const auto stepDir = [&d](const Coord &c) {
        if (c.x < d.x)
            return Port::East;
        if (c.x > d.x)
            return Port::West;
        return c.y < d.y ? Port::North : Port::South;
    };

    const size_t route_hops =
        static_cast<size_t>(mesh.hopDistance(from, dst));
    const bool truncated =
        route_hops > static_cast<size_t>(ControlProgram::kMaxGroups);
    const int spacing =
        truncated ? std::min(max_hops, ControlProgram::kMaxGroups - 1)
                  : max_hops;

    ControlProgram prog;
    size_t tap_idx = 0;
    Coord c = mesh.coordOf(from);
    for (int i = 0; !(c == d); ++i) {
        const Port dir = stepDir(c); // direction into node i
        switch (dir) {
          case Port::East: c.x += 1; break;
          case Port::West: c.x -= 1; break;
          case Port::North: c.y += 1; break;
          default: c.y -= 1; break;
        }
        const NodeId node = mesh.nodeAt(c);
        ControlGroup g;
        if (!(c == d)) {
            // Pass-through (possibly also an interim stop): the
            // direction bits select the output port and arm the
            // return path.
            g.setTurn(turnBetween(opposite(dir), stepDir(c)));
            // Interim node every spacing routers.
            if ((i + 1) % spacing == 0)
                g.local = true;
        } else {
            g.local = true;
        }
        if (tap_idx < taps.size() && taps[tap_idx] == node) {
            g.multicast = true;
            ++tap_idx;
        }
        prog.append(g);
        if (truncated && i + 1 == ControlProgram::kMaxGroups)
            break;
    }
    PL_ASSERT(truncated || tap_idx == taps.size(),
              "multicast tap not on the dimension-order route");
    return prog;
}

/** Faults seeded into the closed-form programs: a comparison that
 *  cannot see them would pass anything. */
enum class Mutation {
    None,
    TurnOffByOne,    ///< the X-to-Y turn lands one group late
    SpacingOffByOne, ///< interim stops every spacing + 1 routers
    MaskOffByOne,    ///< the multicast mask shifted one group early
};

/** @p p with mutation @p m applied; @p spacing is its interim stop
 *  spacing. */
ControlProgram
mutated(const ControlProgram &p, Mutation m, int spacing)
{
    if (m == Mutation::None)
        return p;
    std::vector<ControlGroup> g;
    for (size_t i = 0; i < p.remaining(); ++i)
        g.push_back(p.group(i));
    for (size_t i = 0; i < g.size(); ++i) {
        switch (m) {
          case Mutation::None:
            break;
          case Mutation::TurnOffByOne:
            if (i + 1 < g.size() && (g[i].left || g[i].right) &&
                g[i + 1].straight) {
                g[i + 1].setTurn(g[i].turn());
                g[i].setTurn(Turn::Straight);
                ++i;
            }
            break;
          case Mutation::SpacingOffByOne:
            if (g[i].hasDirection()) {
                g[i].local =
                    (i + 1) % static_cast<size_t>(spacing + 1) == 0;
            }
            break;
          case Mutation::MaskOffByOne:
            g[i].multicast = i + 1 < g.size() && g[i + 1].multicast;
            break;
        }
    }
    ControlProgram out;
    for (const ControlGroup &x : g)
        out.append(x);
    return out;
}

/**
 * Compare @p got with @p want group by group through translate(),
 * checking remaining() at every step; a description of the first
 * difference, or nullopt.
 */
std::optional<std::string>
programMismatch(const ControlProgram &got, const ControlProgram &want)
{
    const auto where = [&](const std::string &what, size_t step) {
        return what + " after " + std::to_string(step) +
               " groups: " + got.toString() + " vs " + want.toString();
    };
    ControlProgram g = got;
    ControlProgram w = want;
    for (size_t step = 0;; ++step) {
        if (g.remaining() != w.remaining()) {
            return where("remaining() " + std::to_string(g.remaining()) +
                             " vs " + std::to_string(w.remaining()),
                         step);
        }
        if (w.empty())
            return std::nullopt;
        if (!(g.front() == w.front()))
            return where("different group", step);
        g.translate();
        w.translate();
    }
}

int
stopSpacing(const MeshTopology &mesh, NodeId from, NodeId dst,
            int max_hops)
{
    return mesh.hopDistance(from, dst) > ControlProgram::kMaxGroups
               ? std::min(max_hops, ControlProgram::kMaxGroups - 1)
               : max_hops;
}

/** The first mismatch between the unicast builder (mutated by @p m)
 *  and the reference over every (from, dst) pair and hop limit. */
std::optional<std::string>
unicastCampaign(const MeshTopology &mesh, Mutation m)
{
    for (NodeId from = 0; from < mesh.nodeCount(); ++from) {
        for (NodeId dst = 0; dst < mesh.nodeCount(); ++dst) {
            if (from == dst)
                continue;
            for (int hops = 1; hops <= ControlProgram::kMaxGroups;
                 ++hops) {
                const auto bad = programMismatch(
                    mutated(buildUnicastProgram(mesh, from, dst, hops),
                            m, stopSpacing(mesh, from, dst, hops)),
                    referenceProgram(mesh, from, dst, {}, hops));
                if (bad) {
                    std::ostringstream os;
                    os << mesh.width() << "x" << mesh.height() << " "
                       << from << "->" << dst << " hops " << hops
                       << ": " << *bad;
                    return os.str();
                }
            }
        }
    }
    return std::nullopt;
}

/**
 * The first mismatch between the multicast builder (mutated by @p m)
 * and the reference for every splitBroadcast() branch, launched from
 * every router on its route (the source, an interim, a blocking or
 * diverting router, a drop holder) with the taps after that router.
 */
std::optional<std::string>
broadcastCampaign(const MeshTopology &mesh, Mutation m)
{
    std::vector<int> pos(static_cast<size_t>(mesh.nodeCount()), -1);
    for (NodeId src = 0; src < mesh.nodeCount(); ++src) {
        for (const MulticastBranch &b : splitBroadcast(mesh, src)) {
            const NodeId dst = b.finalDst();
            const std::vector<NodeId> path = mesh.xyPath(src, dst);
            std::fill(pos.begin(), pos.end(), -1);
            for (size_t i = 0; i < path.size(); ++i)
                pos[static_cast<size_t>(path[i])] = static_cast<int>(i);
            // Launch at path index `at` (-1 = the source).
            for (int at = -1; at + 1 < static_cast<int>(path.size());
                 ++at) {
                const NodeId from =
                    at < 0 ? src : path[static_cast<size_t>(at)];
                size_t first = 0;
                while (pos[static_cast<size_t>(b.taps[first])] <= at)
                    ++first;
                const std::span<const NodeId> unserved =
                    std::span<const NodeId>(b.taps).subspan(first);
                for (int hops = 1; hops <= ControlProgram::kMaxGroups;
                     ++hops) {
                    const auto bad = programMismatch(
                        mutated(buildMulticastProgram(mesh, from,
                                                      unserved, hops),
                                m, stopSpacing(mesh, from, dst, hops)),
                        referenceProgram(mesh, from, dst, unserved,
                                         hops));
                    if (bad) {
                        std::ostringstream os;
                        os << mesh.width() << "x" << mesh.height()
                           << " src " << src << " branch to " << dst
                           << " from " << from << " with "
                           << unserved.size() << " taps, hops " << hops
                           << ": " << *bad;
                        return os.str();
                    }
                }
            }
        }
    }
    return std::nullopt;
}

/** 13x9 and 64x2 are not square; 16x16 and 64x2 have routes past
 *  the 14-group budget. */
const std::vector<MeshTopology> &
campaignMeshes()
{
    static const std::vector<MeshTopology> meshes = {
        {2, 2}, {8, 8}, {13, 9}, {16, 16}, {64, 2}};
    return meshes;
}

TEST(ControlDifferential, UnicastMatchesRouteWalk)
{
    for (const MeshTopology &mesh : campaignMeshes()) {
        const auto bad = unicastCampaign(mesh, Mutation::None);
        EXPECT_FALSE(bad.has_value()) << *bad;
    }
}

TEST(ControlDifferential, BroadcastBranchesMatchRouteWalk)
{
    for (const MeshTopology &mesh : campaignMeshes()) {
        const auto bad = broadcastCampaign(mesh, Mutation::None);
        EXPECT_FALSE(bad.has_value()) << *bad;
    }
}

TEST(ControlDifferential, SeededMutationsAreCaught)
{
    const MeshTopology mesh(8, 8);
    for (Mutation m :
         {Mutation::TurnOffByOne, Mutation::SpacingOffByOne}) {
        EXPECT_TRUE(unicastCampaign(mesh, m).has_value())
            << "mutation " << static_cast<int>(m) << " went unnoticed";
    }
    for (Mutation m : {Mutation::TurnOffByOne, Mutation::SpacingOffByOne,
                       Mutation::MaskOffByOne}) {
        EXPECT_TRUE(broadcastCampaign(mesh, m).has_value())
            << "mutation " << static_cast<int>(m) << " went unnoticed";
    }
}

TEST(ControlDifferentialDeathTest, TapsOffTheRouteTailAreRejected)
{
    // A tap list with a gap is not the tail of the route: the O(1)
    // check on the first tap's position must refuse it.
    const MeshTopology mesh(8, 8);
    const std::vector<NodeId> gapped = {mesh.nodeAt({3, 2}),
                                        mesh.nodeAt({3, 4})};
    EXPECT_DEATH(buildMulticastProgram(mesh, mesh.nodeAt({0, 0}),
                                       gapped, 4),
                 "tail of the dimension-order route");
}

} // namespace
} // namespace phastlane::core
