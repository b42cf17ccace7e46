/**
 * @file
 * End-to-end Phastlane network tests: delivery correctness, single-
 * cycle multi-hop transit, interim-node pipelining, contention
 * buffering, drop/retransmit, multicast, and determinism.
 */

#include <gtest/gtest.h>
#include <map>
#include <set>

#include "core/network.hpp"
#include "core/observer.hpp"

namespace phastlane::core {
namespace {

Packet
unicast(PacketId id, NodeId src, NodeId dst, Cycle created = 0)
{
    Packet p;
    p.id = id;
    p.src = src;
    p.dst = dst;
    p.createdAt = created;
    return p;
}

Packet
broadcast(PacketId id, NodeId src, Cycle created = 0)
{
    Packet p;
    p.id = id;
    p.src = src;
    p.broadcast = true;
    p.createdAt = created;
    return p;
}

/** Run until idle; returns all deliveries. */
std::vector<Delivery>
runToIdle(PhastlaneNetwork &net, int max_cycles = 10000)
{
    std::vector<Delivery> all;
    for (int i = 0; i < max_cycles && net.inFlight() > 0; ++i) {
        net.step();
        for (const auto &d : net.deliveries())
            all.push_back(d);
    }
    EXPECT_EQ(net.inFlight(), 0u) << "network did not drain";
    return all;
}

TEST(PhastlaneNet, ShortUnicastArrivesInTwoCycles)
{
    PhastlaneNetwork net(PhastlaneParams{});
    ASSERT_TRUE(net.inject(unicast(1, 0, 3)));
    const auto dels = runToIdle(net);
    ASSERT_EQ(dels.size(), 1u);
    EXPECT_EQ(dels[0].node, 3);
    // NIC transfer (1 cycle) + single-cycle 3-hop optical transit.
    EXPECT_LE(dels[0].at, 2u);
}

TEST(PhastlaneNet, CornerToCornerUsesInterimNodes)
{
    // 14 hops with a 4-hop budget: 4+4+4+2 segments, buffered at
    // three interim nodes -> four transit cycles plus NIC transfer.
    PhastlaneNetwork net(PhastlaneParams{});
    ASSERT_TRUE(net.inject(unicast(1, 0, 63)));
    const auto dels = runToIdle(net);
    ASSERT_EQ(dels.size(), 1u);
    EXPECT_EQ(dels[0].node, 63);
    EXPECT_EQ(dels[0].at, 4u);
    EXPECT_EQ(net.phastlaneCounters().interimAccepts, 3u);
}

TEST(PhastlaneNet, EightHopNetworkNeedsFewerSegments)
{
    PhastlaneParams p;
    p.maxHopsPerCycle = 8;
    PhastlaneNetwork net(p);
    ASSERT_TRUE(net.inject(unicast(1, 0, 63)));
    const auto dels = runToIdle(net);
    ASSERT_EQ(dels.size(), 1u);
    // 14 hops = 8 + 6: one interim node, two transit cycles.
    EXPECT_EQ(dels[0].at, 2u);
    EXPECT_EQ(net.phastlaneCounters().interimAccepts, 1u);
}

TEST(PhastlaneNet, AllPairsUnicastDelivery)
{
    PhastlaneNetwork net(PhastlaneParams{});
    PacketId id = 1;
    std::map<PacketId, NodeId> expect;
    for (NodeId s = 0; s < 64; s += 9) {
        for (NodeId d = 0; d < 64; d += 7) {
            if (s == d)
                continue;
            Packet p = unicast(id, s, d, net.now());
            ASSERT_TRUE(net.inject(p));
            expect[id] = d;
            ++id;
            runToIdle(net); // one at a time: no contention
        }
    }
    EXPECT_EQ(net.counters().deliveries, expect.size());
    EXPECT_EQ(net.phastlaneCounters().drops, 0u);
}

class BroadcastFromEverywhere : public ::testing::TestWithParam<NodeId>
{
};

TEST_P(BroadcastFromEverywhere, Delivers63CopiesExactlyOnce)
{
    PhastlaneNetwork net(PhastlaneParams{});
    ASSERT_TRUE(net.inject(broadcast(1, GetParam())));
    const auto dels = runToIdle(net);
    ASSERT_EQ(dels.size(), 63u);
    std::map<NodeId, int> seen;
    for (const auto &d : dels)
        ++seen[d.node];
    EXPECT_EQ(seen.count(GetParam()), 0u);
    for (const auto &[node, count] : seen)
        EXPECT_EQ(count, 1) << "node " << node;
}

INSTANTIATE_TEST_SUITE_P(Sources, BroadcastFromEverywhere,
                         ::testing::Values(0, 7, 27, 36, 56, 63, 31));

TEST(PhastlaneNet, ContentionBuffersInsteadOfDropping)
{
    // A straight packet and a turning packet reach router (3,3) in
    // the same wavefront sub-step wanting its North port: the
    // turning one must be received and buffered, none dropped.
    PhastlaneNetwork net(PhastlaneParams{});
    const NodeId straight_src = 8 * 2 + 3; // (3,2)
    const NodeId turn_src = 8 * 3 + 2;     // (2,3)
    const NodeId dst = 8 * 6 + 3;          // (3,6)
    ASSERT_TRUE(net.inject(unicast(1, straight_src, dst)));
    ASSERT_TRUE(net.inject(unicast(2, turn_src, dst)));
    const auto dels = runToIdle(net);
    EXPECT_EQ(dels.size(), 2u);
    EXPECT_EQ(net.phastlaneCounters().drops, 0u);
    EXPECT_GT(net.phastlaneCounters().blockedBuffered, 0u);
}

TEST(PhastlaneNet, StraightHasPriorityOverTurn)
{
    // A straight packet and a turning packet contending for the same
    // output in the same cycle: the straight one passes unbuffered.
    PhastlaneNetwork net(PhastlaneParams{});
    // Straight along column 3 northward: 3 -> 59.
    // Turning into column 3 at row 2: 16+7=23... use (0,2)=16 ->
    // (3,7)=59? Both target distinct finals to keep checks simple.
    ASSERT_TRUE(net.inject(unicast(1, 3, 3 + 8 * 7)));  // straight N
    ASSERT_TRUE(net.inject(unicast(2, 16, 3 + 8 * 6))); // turns at col 3
    const auto dels = runToIdle(net);
    ASSERT_EQ(dels.size(), 2u);
    // The straight packet (id 1) is never buffered mid-route; the
    // turning one may be.
    for (const auto &d : dels) {
        if (d.packet.id == 1)
            EXPECT_LE(d.at, 3u);
    }
    EXPECT_EQ(net.phastlaneCounters().drops, 0u);
}

TEST(PhastlaneNet, TinyBuffersDropAndRetransmit)
{
    PhastlaneParams p;
    p.routerBufferEntries = 1;
    PhastlaneNetwork net(p);
    // A burst of broadcasts from every corner floods the one-entry
    // buffers; drops must occur yet every delivery must complete.
    PacketId id = 1;
    for (NodeId src : {0, 7, 56, 63, 27, 36})
        ASSERT_TRUE(net.inject(broadcast(id++, src, net.now())));
    const auto dels = runToIdle(net, 100000);
    EXPECT_EQ(dels.size(), 6u * 63u);
    EXPECT_GT(net.phastlaneCounters().drops, 0u);
    EXPECT_EQ(net.phastlaneCounters().retransmissions,
              net.phastlaneCounters().drops);
}

TEST(PhastlaneNet, InfiniteBuffersNeverDrop)
{
    PhastlaneParams p;
    p.routerBufferEntries = 0; // infinite
    PhastlaneNetwork net(p);
    PacketId id = 1;
    for (int round = 0; round < 3; ++round) {
        for (NodeId src = 0; src < 64; src += 5)
            ASSERT_TRUE(net.inject(broadcast(id++, src, net.now())));
        runToIdle(net, 100000);
    }
    EXPECT_EQ(net.phastlaneCounters().drops, 0u);
}

TEST(PhastlaneNet, NicBackpressure)
{
    PhastlaneParams p;
    p.nicQueueEntries = 16; // one broadcast (16 branches) fills it
    PhastlaneNetwork net(p);
    ASSERT_TRUE(net.inject(broadcast(1, 27)));
    EXPECT_FALSE(net.nicHasSpace(27));
    EXPECT_FALSE(net.inject(broadcast(2, 27)));
    // Other nodes unaffected.
    EXPECT_TRUE(net.inject(broadcast(3, 28)));
    runToIdle(net, 100000);
    EXPECT_TRUE(net.nicHasSpace(27));
}

/** Table 1's 50-entry NIC holds a whole broadcast only on meshes up
 *  to 25 columns wide. On 26x26 an interior-row broadcast splits into
 *  52 branches: even an empty NIC refuses it, so inject() must fail
 *  loudly instead of stalling the source behind it forever. */
TEST(PhastlaneNetDeathTest, BroadcastThatCanNeverFitFailsLoudly)
{
    PhastlaneParams p;
    p.meshWidth = 26;
    p.meshHeight = 26;
    PhastlaneNetwork net(p);
    const NodeId interior = 5 * 26 + 3;
    EXPECT_EXIT(net.inject(broadcast(1, interior)),
                ::testing::ExitedWithCode(1),
                "node 133: a broadcast splits into 52 branches.*"
                "nicQueueEntries = 50");
}

TEST(PhastlaneNet, WideMeshAcceptsUnicastsAndEdgeRowBroadcasts)
{
    PhastlaneParams p;
    p.meshWidth = 26;
    p.meshHeight = 26;
    PhastlaneNetwork net(p);
    const NodeId interior = 5 * 26 + 3;
    const NodeId top_row = 25 * 26 + 7;
    ASSERT_TRUE(net.inject(unicast(1, interior, 0)));
    ASSERT_TRUE(net.inject(broadcast(2, top_row))); // 26 branches
    const auto dels = runToIdle(net, 100000);
    EXPECT_EQ(dels.size(), 1u + 26u * 26u - 1u);
}

TEST(PhastlaneNet, DeterministicAcrossRuns)
{
    auto run = [](uint64_t seed) {
        PhastlaneParams p;
        p.seed = seed;
        p.routerBufferEntries = 2;
        PhastlaneNetwork net(p);
        PacketId id = 1;
        for (int round = 0; round < 5; ++round) {
            for (NodeId src = 0; src < 64; src += 3)
                net.inject(broadcast(id++, src, net.now()));
            for (int c = 0; c < 20; ++c)
                net.step();
        }
        while (net.inFlight() > 0)
            net.step();
        return std::tuple{net.now(), net.counters().deliveries,
                          net.phastlaneCounters().drops,
                          net.events().launches};
    };
    EXPECT_EQ(run(1), run(1));
}

class WavefrontModes
    : public ::testing::TestWithParam<WavefrontModel>
{
};

TEST_P(WavefrontModes, HeavyTrafficStillDeliversEverything)
{
    PhastlaneParams p;
    p.wavefront = GetParam();
    p.routerBufferEntries = 4;
    PhastlaneNetwork net(p);
    PacketId id = 1;
    uint64_t expected = 0;
    for (int round = 0; round < 4; ++round) {
        for (NodeId src = 0; src < 64; src += 4) {
            ASSERT_TRUE(net.inject(broadcast(id++, src, net.now())));
            expected += 63;
        }
        for (int c = 0; c < 10; ++c)
            net.step();
    }
    runToIdle(net, 100000);
    EXPECT_EQ(net.counters().deliveries, expected);
}

INSTANTIATE_TEST_SUITE_P(Modes, WavefrontModes,
                         ::testing::Values(
                             WavefrontModel::SubstepFcfs,
                             WavefrontModel::BitplaneFcfs,
                             WavefrontModel::GlobalPriority));

TEST(PhastlaneNet, RoundRobinArbitrationDeliversEverything)
{
    PhastlaneParams p;
    p.opticalArbitration = OpticalArbitration::RoundRobin;
    p.routerBufferEntries = 4;
    PhastlaneNetwork net(p);
    PacketId id = 1;
    for (NodeId src = 0; src < 64; src += 2)
        ASSERT_TRUE(net.inject(broadcast(id++, src, net.now())));
    const auto dels = runToIdle(net, 100000);
    EXPECT_EQ(dels.size(), 32u * 63u);
}

TEST(PhastlaneNet, ExponentialBackoffStillConverges)
{
    PhastlaneParams p;
    p.routerBufferEntries = 1;
    p.exponentialBackoff = true;
    PhastlaneNetwork net(p);
    PacketId id = 1;
    for (NodeId src = 0; src < 64; src += 8)
        ASSERT_TRUE(net.inject(broadcast(id++, src, net.now())));
    const auto dels = runToIdle(net, 200000);
    EXPECT_EQ(dels.size(), 8u * 63u);
}

TEST(PhastlaneNet, EventAccountingConsistent)
{
    PhastlaneNetwork net(PhastlaneParams{});
    PacketId id = 1;
    for (NodeId src = 0; src < 64; src += 6)
        ASSERT_TRUE(net.inject(broadcast(id++, src, net.now())));
    runToIdle(net, 100000);
    const auto &ev = net.events();
    // Every launch reads a buffer entry; every buffered reception
    // writes one.
    EXPECT_EQ(ev.bufferReads, ev.launches);
    EXPECT_GE(ev.launches, net.counters().packetsInjected);
    EXPECT_EQ(ev.drops, net.phastlaneCounters().drops);
    // Taps are a subset of deliveries.
    EXPECT_LE(ev.tapReceives, net.counters().deliveries);
}

TEST(PhastlaneNet, MulticastRetransmitAfterPartialDropIsExactlyOnce)
{
    // A multicast branch that served some taps and is then dropped
    // must be retransmitted covering ONLY the unserved taps (the
    // paper clears the Multicast bits of nodes reached before the
    // drop) — every addressed node once, no node twice.
    struct PartialDropSpy : StepObserver {
        int partialDrops = 0;
        void onDrop(const OpticalPacket &pkt, NodeId, NodeId, int,
                    bool) override
        {
            if (pkt.multicast && pkt.tapCursor > 0)
                ++partialDrops;
        }
    };

    PhastlaneParams p;
    p.routerBufferEntries = 1;
    PhastlaneNetwork net(p);
    PartialDropSpy spy;
    net.setObserver(&spy);
    PacketId id = 1;
    for (NodeId src = 0; src < 64; ++src)
        ASSERT_TRUE(net.inject(broadcast(id++, src, net.now())));
    const auto dels = runToIdle(net, 200000);

    ASSERT_GT(spy.partialDrops, 0)
        << "storm never dropped a partially served multicast branch";
    // Exactly-once delivery per (message, node), full coverage.
    std::map<PacketId, std::set<NodeId>> reached;
    for (const auto &d : dels) {
        EXPECT_TRUE(reached[d.packet.id].insert(d.node).second)
            << "message " << d.packet.id << " delivered twice at node "
            << d.node;
    }
    ASSERT_EQ(reached.size(), 64u);
    for (PacketId m = 1; m <= 64; ++m)
        EXPECT_EQ(reached[m].size(), 63u)
            << "message " << m << " missed nodes";
    EXPECT_EQ(net.phastlaneCounters().drops,
              net.phastlaneCounters().retransmissions);
}

TEST(PhastlaneNet, LatencyStampsAreOrdered)
{
    PhastlaneNetwork net(PhastlaneParams{});
    for (int c = 0; c < 3; ++c)
        net.step();
    Packet p = unicast(1, 5, 60, net.now());
    ASSERT_TRUE(net.inject(p));
    const auto dels = runToIdle(net);
    ASSERT_EQ(dels.size(), 1u);
    EXPECT_LE(dels[0].acceptedAt, dels[0].injectedAt);
    EXPECT_LE(dels[0].injectedAt, dels[0].at);
    EXPECT_EQ(dels[0].acceptedAt, p.createdAt);
}

} // namespace
} // namespace phastlane::core
