/**
 * @file
 * End-to-end Phastlane network tests: delivery correctness, single-
 * cycle multi-hop transit, interim-node pipelining, contention
 * buffering, drop/retransmit, multicast, and determinism.
 */

#include <gtest/gtest.h>
#include <iterator>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include "core/network.hpp"
#include "core/observer.hpp"
#include "traffic/coherence.hpp"
#include "traffic/splash.hpp"
#include "traffic/synthetic.hpp"

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

// ---------------------------------------------------------------------
// Golden pins under contention: whole-run results of loads that keep
// router buffers full, so every arbitration, launch, drop and
// retransmission decision is visible in the pinned values.

/** FNV-1a, folded in one 64-bit word at a time. */
void
fnv(uint64_t &h, uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
    }
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/** Everything an optical golden run pins: every OpticalEvents and
 *  PhastlaneCounters field, the run's length, the starvation
 *  high-water marks, where the claims went and when each copy landed. */
struct OpticalGolden {
    uint64_t launches, passTraversals, receives, tapReceives;
    uint64_t bufferWrites, bufferReads, drops, dropSignalHops;
    uint64_t retransmissions, routerCycles, lostUnits, dropSignalsLost;
    uint64_t faultMisTurns, faultMissedReceives, faultCorruptions;
    uint64_t faultDeadArrivals, duplicatesSuppressed;
    uint64_t plDrops, plRetransmissions, plBlockedBuffered;
    uint64_t plInterimAccepts, plLaunches;
    uint64_t cycles; ///< completionCycles (SPLASH) or now() (synthetic)
    uint64_t maxStarvation;
    uint64_t starvationHash; ///< sourceStarvation(n) over all nodes
    uint64_t claimHash;      ///< portClaimCounts()
    uint64_t deliveryHash;   ///< (packet, node, cycle) in order

    bool operator==(const OpticalGolden &) const = default;
};

/** Prints a mismatching golden as a ready-to-paste initializer. */
void
PrintTo(const OpticalGolden &g, std::ostream *os)
{
    const uint64_t v[] = {
        g.launches, g.passTraversals, g.receives, g.tapReceives,
        g.bufferWrites, g.bufferReads, g.drops, g.dropSignalHops,
        g.retransmissions, g.routerCycles, g.lostUnits,
        g.dropSignalsLost, g.faultMisTurns, g.faultMissedReceives,
        g.faultCorruptions, g.faultDeadArrivals, g.duplicatesSuppressed,
        g.plDrops, g.plRetransmissions, g.plBlockedBuffered,
        g.plInterimAccepts, g.plLaunches, g.cycles, g.maxStarvation,
        g.starvationHash, g.claimHash, g.deliveryHash};
    *os << "{";
    for (size_t i = 0; i < std::size(v); ++i)
        *os << (i ? ", " : "") << v[i]
            << (v[i] > 0xffffffffu ? "ull" : "");
    *os << "}";
}

OpticalGolden
observeGolden(const PhastlaneNetwork &net, uint64_t cycles,
              uint64_t delivery_hash)
{
    const OpticalEvents &ev = net.events();
    const PhastlaneCounters &pl = net.phastlaneCounters();
    uint64_t starvation = kFnvBasis;
    for (NodeId n = 0; n < net.nodeCount(); ++n)
        fnv(starvation, net.sourceStarvation(n));
    uint64_t claims = kFnvBasis;
    for (uint64_t c : net.portClaimCounts())
        fnv(claims, c);
    return OpticalGolden{
        ev.launches, ev.passTraversals, ev.receives, ev.tapReceives,
        ev.bufferWrites, ev.bufferReads, ev.drops, ev.dropSignalHops,
        ev.retransmissions, ev.routerCycles, ev.lostUnits,
        ev.dropSignalsLost, ev.faultMisTurns, ev.faultMissedReceives,
        ev.faultCorruptions, ev.faultDeadArrivals,
        ev.duplicatesSuppressed, pl.drops, pl.retransmissions,
        pl.blockedBuffered, pl.interimAccepts, pl.launches, cycles,
        net.maxStarvation(), starvation, claims, delivery_hash};
}

/** Runs a step-wise driver to completion, hashing every delivery in
 *  the order the network reports it. */
template <typename Driver>
uint64_t
runHashingDeliveries(Driver &driver, Network &net)
{
    uint64_t h = kFnvBasis;
    while (!driver.done()) {
        driver.preStep();
        net.step();
        for (const Delivery &d : net.deliveries()) {
            fnv(h, d.packet.id);
            fnv(h, static_cast<uint64_t>(d.node));
            fnv(h, d.at);
        }
        driver.postStep();
    }
    return h;
}

/** A SPLASH benchmark at reduced transactions, closed loop, on an
 *  Optical4-family config (4 hops; @p buffers entries, 0 = infinite). */
OpticalGolden
runSplashGolden(const std::string &bench, int buffers)
{
    auto prof = traffic::splashProfile(bench);
    prof.txnsPerNode = 12;
    const auto streams = traffic::generateStreams(prof, 64, 7);
    PhastlaneParams p;
    p.maxHopsPerCycle = 4;
    p.routerBufferEntries = buffers;
    PhastlaneNetwork net(p);
    traffic::CoherenceDriver driver(net, streams, prof.mshrLimit);
    driver.begin();
    const uint64_t h = runHashingDeliveries(driver, net);
    const auto res = driver.finish();
    EXPECT_FALSE(res.timedOut);
    return observeGolden(net, res.completionCycles, h);
}

/** Open-loop uniform unicast plus 10% broadcasts at offered load
 *  @p rate (0.14 is near Optical4's saturation point), under the
 *  policy @p tweak selects. */
template <typename Tweak>
OpticalGolden
runContendedGolden(double rate, const Tweak &tweak)
{
    PhastlaneParams p;
    tweak(p);
    traffic::SyntheticConfig cfg;
    cfg.pattern = traffic::Pattern::UniformRandom;
    cfg.injectionRate = rate;
    cfg.broadcastFraction = 0.10;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 1200;
    cfg.maxDrainCycles = 4000;
    cfg.seed = 11;
    PhastlaneNetwork net(p);
    traffic::SyntheticDriver driver(net, cfg);
    driver.begin();
    const uint64_t h = runHashingDeliveries(driver, net);
    driver.finish();
    return observeGolden(net, net.now(), h);
}

TEST(OpticalGolden, BarnesOptical4)
{
    EXPECT_EQ(runSplashGolden("Barnes", 10),
              (OpticalGolden{80135, 13192, 54438, 42336, 44378, 80135,
                             25697, 27562, 25697, 43968, 0, 0, 0, 0, 0,
                             0, 0, 25697, 25697, 42796, 1582, 80135,
                             687, 314, 18373213560318213042ull,
                             18050065149612647268ull,
                             10636056843254188467ull}));
}

TEST(OpticalGolden, BarnesOptical4IB)
{
    EXPECT_EQ(runSplashGolden("Barnes", 0),
              (OpticalGolden{50542, 15223, 50542, 42336, 40482, 50542,
                             0, 0, 0, 43392, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                             37983, 2499, 50542, 678, 157,
                             7971282096371129805ull,
                             1539310412283354588ull,
                             12354592899165209398ull}));
}

TEST(OpticalGolden, BarnesOptical4B64)
{
    EXPECT_EQ(runSplashGolden("Barnes", 64),
              (OpticalGolden{51220, 15107, 50658, 42336, 40598, 51220,
                             562, 562, 562, 43456, 0, 0, 0, 0, 0, 0, 0,
                             562, 562, 38086, 2512, 51220, 679, 157,
                             7971282096371129805ull,
                             16979901188380641962ull,
                             11240139571291774599ull}));
}

TEST(OpticalGolden, OceanOptical4)
{
    EXPECT_EQ(runSplashGolden("Ocean", 10),
              (OpticalGolden{83876, 8393, 50347, 36855, 41556, 83876,
                             33529, 34858, 33529, 39936, 0, 0, 0, 0, 0,
                             0, 0, 33529, 33529, 40630, 926, 83876, 624,
                             388, 9642783081603626228ull,
                             17972174939603934276ull,
                             11699739923890345105ull}));
}

TEST(OpticalGolden, OceanOptical4IB)
{
    EXPECT_EQ(runSplashGolden("Ocean", 0),
              (OpticalGolden{50177, 7234, 50177, 36855, 41386, 50177, 0,
                             0, 0, 38144, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                             40492, 894, 50177, 596, 291,
                             5238549503373140561ull,
                             8502255232712264665ull,
                             13170143231605039736ull}));
}

TEST(OpticalGolden, OceanOptical4B64)
{
    EXPECT_EQ(runSplashGolden("Ocean", 64),
              (OpticalGolden{51259, 7197, 50216, 36855, 41425, 51259,
                             1043, 1045, 1043, 38080, 0, 0, 0, 0, 0, 0,
                             0, 1043, 1043, 40545, 880, 51259, 595, 256,
                             4062330105687463759ull,
                             14671843724203736130ull,
                             7610114736829598165ull}));
}

TEST(OpticalGolden, UniformBroadcastOldestFirst)
{
    const OpticalGolden got =
        runContendedGolden(0.14, [](PhastlaneParams &p) {
            p.bufferArbitration = BufferArbitration::OldestFirst;
        });
    EXPECT_EQ(got,
              (OpticalGolden{98872, 77062, 98250, 79191, 69677, 98872,
                             622, 633, 622, 91840, 0, 0, 0, 0, 0, 0, 0,
                             622, 622, 59399, 10278, 98872, 1435, 29,
                             5819367821787943668ull,
                             8042241220665295854ull,
                             17006592731837283376ull}));
}

TEST(OpticalGolden, UniformBroadcastTokenBucket)
{
    const OpticalGolden got =
        runContendedGolden(0.14, [](PhastlaneParams &p) {
            p.admission = AdmissionPolicy::TokenBucket;
            p.admissionBurst = 2;
            p.admissionPeriod = 3;
        });
    EXPECT_EQ(got,
              (OpticalGolden{90110, 85191, 90110, 79191, 61537, 90110,
                             0, 0, 0, 139072, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                             49808, 11729, 90110, 2173, 46,
                             9564124233627124774ull,
                             6073210088110225853ull,
                             12318460092869810001ull}));
}

TEST(OpticalGolden, UniformBroadcastExponentialBackoff)
{
    const OpticalGolden got =
        runContendedGolden(0.14, [](PhastlaneParams &p) {
            p.routerBufferEntries = 2;
            p.exponentialBackoff = true;
            p.backoffBase = 1;
        });
    EXPECT_EQ(got,
              (OpticalGolden{106255, 83555, 95725, 79191, 67152, 106255,
                             10530, 14509, 10530, 98176, 0, 0, 0, 0, 0,
                             0, 0, 10530, 10530, 57156, 9996, 106255,
                             1534, 13, 10557088616024691244ull,
                             13453603341679024003ull,
                             14638955661718599574ull}));
}

TEST(OpticalGolden, UniformBroadcastDropperIdCorrupt)
{
    const OpticalGolden got =
        runContendedGolden(0.14, [](PhastlaneParams &p) {
            p.routerBufferEntries = 2;
            p.faults.dropperIdCorruptRate = 0.3;
            p.faults.faultSeed = 5;
        });
    EXPECT_EQ(got,
              (OpticalGolden{112435, 79549, 99291, 79191, 70718, 112435,
                             13144, 16683, 13144, 97536, 0, 0, 0, 0,
                             2892, 0, 1231, 13144, 13144, 61122, 9596,
                             112435, 1524, 27, 11386909768222980670ull,
                             2473447780825591605ull,
                             8898060825443080681ull}));
}

// At low load most routers and NICs are idle in most cycles, so these
// pin the cycles step() skips as well as the ones it works in.
TEST(OpticalGolden, LowLoadUniformBroadcast)
{
    const OpticalGolden got =
        runContendedGolden(0.01, [](PhastlaneParams &) {});
    EXPECT_EQ(got,
              (OpticalGolden{4609, 9797, 4609, 6804, 2283, 4609, 0, 0,
                             0, 89792, 0, 0, 0, 0, 0, 0, 0, 0, 0, 266,
                             2017, 4609, 1403, 13,
                             2640750825532304969ull,
                             17532090027205687395ull,
                             15155698986978566127ull}));
}

TEST(OpticalGolden, LowLoadUniformBroadcastTokenBucket)
{
    const OpticalGolden got =
        runContendedGolden(0.01, [](PhastlaneParams &p) {
            p.admission = AdmissionPolicy::TokenBucket;
            p.admissionBurst = 2;
            p.admissionPeriod = 3;
        });
    EXPECT_EQ(got,
              (OpticalGolden{4613, 9793, 4613, 6804, 2287, 4613, 0, 0,
                             0, 90496, 0, 0, 0, 0, 0, 0, 0, 0, 0, 266,
                             2021, 4613, 1414, 28,
                             355141843369734781ull,
                             17532090027205687395ull,
                             3498658549834852122ull}));
}

} // namespace
} // namespace phastlane::core
