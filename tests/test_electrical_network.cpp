/**
 * @file
 * Electrical baseline network tests: per-hop latency, ejection
 * bypass, VC/credit behavior, VCTM tree building and reuse,
 * determinism, and golden counters pinning whole runs.
 */

#include <gtest/gtest.h>
#include <map>

#include "electrical/network.hpp"
#include "traffic/coherence.hpp"
#include "traffic/splash.hpp"
#include "traffic/synthetic.hpp"

namespace phastlane::electrical {
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

std::vector<Delivery>
runToIdle(ElectricalNetwork &net, int max_cycles = 200000)
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

class RouterDelays : public ::testing::TestWithParam<int>
{
};

TEST_P(RouterDelays, ZeroLoadUnicastLatencyFormula)
{
    const int T = GetParam();
    ElectricalParams p;
    p.routerDelay = T;
    for (auto [src, dst] : {std::pair<NodeId, NodeId>{0, 63},
                            {0, 7}, {5, 40}, {63, 0}}) {
        ElectricalNetwork net(p);
        ASSERT_TRUE(net.inject(unicast(1, src, dst)));
        const auto dels = runToIdle(net);
        ASSERT_EQ(dels.size(), 1u);
        const int hops = net.mesh().hopDistance(src, dst);
        // Per hop: routerDelay + 1 channel cycle; ejection adds one.
        EXPECT_EQ(dels[0].at,
                  static_cast<Cycle>(hops * (T + 1) + 1))
            << src << "->" << dst << " T=" << T;
    }
}

INSTANTIATE_TEST_SUITE_P(Delays, RouterDelays,
                         ::testing::Values(2, 3));

TEST(ElectricalNet, TwoCycleRouterIsFaster)
{
    ElectricalParams p2;
    p2.routerDelay = 2;
    ElectricalParams p3;
    p3.routerDelay = 3;
    ElectricalNetwork a(p2), b(p3);
    ASSERT_TRUE(a.inject(unicast(1, 0, 63)));
    ASSERT_TRUE(b.inject(unicast(1, 0, 63)));
    const auto da = runToIdle(a);
    const auto db = runToIdle(b);
    EXPECT_LT(da[0].at, db[0].at);
}

TEST(ElectricalNet, FirstBroadcastBuildsTreeSecondUsesIt)
{
    ElectricalParams p;
    ElectricalNetwork net(p);
    ASSERT_TRUE(net.inject(broadcast(1, 27)));
    const auto first = runToIdle(net);
    EXPECT_EQ(first.size(), 63u);
    EXPECT_EQ(net.electricalCounters().setupUnicasts, 63u);
    EXPECT_EQ(net.electricalCounters().treeMulticasts, 0u);
    const Cycle t0 = net.now();

    ASSERT_TRUE(net.inject(broadcast(2, 27, net.now())));
    const auto second = runToIdle(net);
    EXPECT_EQ(second.size(), 63u);
    EXPECT_EQ(net.electricalCounters().treeMulticasts, 1u);
    // Tree multicast completes much faster than streaming 63 clones.
    EXPECT_LT(net.now() - t0, 63u);
}

TEST(ElectricalNet, BroadcastCoverageExactlyOnce)
{
    ElectricalNetwork net(ElectricalParams{});
    // Run two broadcasts so the second exercises tree replication.
    for (PacketId id : {1, 2}) {
        ASSERT_TRUE(net.inject(broadcast(id, 36, net.now())));
        const auto dels = runToIdle(net);
        ASSERT_EQ(dels.size(), 63u);
        std::map<NodeId, int> seen;
        for (const auto &d : dels)
            ++seen[d.node];
        EXPECT_EQ(seen.count(36), 0u);
        for (const auto &[node, count] : seen)
            EXPECT_EQ(count, 1) << "node " << node;
    }
}

TEST(ElectricalNet, ManyFlowsAllDelivered)
{
    ElectricalNetwork net(ElectricalParams{});
    PacketId id = 1;
    uint64_t expected = 0;
    for (int round = 0; round < 5; ++round) {
        for (NodeId src = 0; src < 64; ++src) {
            const NodeId dst =
                static_cast<NodeId>((src + 17 + round) % 64);
            if (dst == src)
                continue;
            ASSERT_TRUE(net.inject(unicast(id++, src, dst,
                                           net.now())));
            ++expected;
        }
        for (int c = 0; c < 3; ++c)
            net.step();
    }
    const auto dels = runToIdle(net);
    // Deliveries during the rounds were not captured here; rely on
    // the counter instead.
    (void)dels;
    EXPECT_EQ(net.counters().deliveries, expected);
}

TEST(ElectricalNet, MixedBroadcastAndUnicastLoad)
{
    ElectricalNetwork net(ElectricalParams{});
    PacketId id = 1;
    uint64_t expected = 0;
    for (NodeId src = 0; src < 64; src += 4) {
        ASSERT_TRUE(net.inject(broadcast(id++, src, net.now())));
        expected += 63;
        ASSERT_TRUE(net.inject(
            unicast(id++, src, static_cast<NodeId>((src + 31) % 64),
                    net.now())));
        expected += 1;
    }
    runToIdle(net);
    EXPECT_EQ(net.counters().deliveries, expected);
}

TEST(ElectricalNet, NicCapacityBackpressure)
{
    ElectricalParams p;
    p.nicQueueEntries = 2;
    ElectricalNetwork net(p);
    EXPECT_TRUE(net.inject(unicast(1, 0, 63)));
    EXPECT_TRUE(net.inject(unicast(2, 0, 62)));
    EXPECT_FALSE(net.nicHasSpace(0));
    EXPECT_FALSE(net.inject(unicast(3, 0, 61)));
    EXPECT_TRUE(net.inject(unicast(4, 1, 61)));
    runToIdle(net);
    EXPECT_EQ(net.counters().deliveries, 3u);
}

TEST(ElectricalNet, InjectionThroughputOnePerCycle)
{
    // A node can start at most one flit per cycle; back-to-back
    // packets to the same neighbor serialize at the NIC.
    ElectricalNetwork net(ElectricalParams{});
    const int n = 10;
    for (int i = 0; i < n; ++i)
        ASSERT_TRUE(net.inject(unicast(static_cast<PacketId>(i + 1),
                                       0, 1)));
    const auto dels = runToIdle(net);
    ASSERT_EQ(dels.size(), static_cast<size_t>(n));
    Cycle last = 0;
    for (const auto &d : dels) {
        if (last != 0)
            EXPECT_GE(d.at, last + 1);
        last = d.at;
    }
}

TEST(ElectricalNet, SaturatingLoadEventuallyDrains)
{
    ElectricalNetwork net(ElectricalParams{});
    PacketId id = 1;
    for (int round = 0; round < 3; ++round) {
        for (NodeId src = 0; src < 64; src += 2)
            net.inject(broadcast(id++, src, net.now()));
        for (int c = 0; c < 5; ++c)
            net.step();
    }
    runToIdle(net);
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST(ElectricalNet, Deterministic)
{
    auto run = []() {
        ElectricalNetwork net(ElectricalParams{});
        PacketId id = 1;
        for (int round = 0; round < 4; ++round) {
            for (NodeId src = 0; src < 64; src += 3)
                net.inject(broadcast(id++, src, net.now()));
            for (int c = 0; c < 10; ++c)
                net.step();
        }
        while (net.inFlight() > 0)
            net.step();
        return std::tuple{net.now(), net.counters().deliveries,
                          net.events().linkTraversals,
                          net.events().saGrants};
    };
    EXPECT_EQ(run(), run());
}

TEST(ElectricalNet, EventAccountingConsistent)
{
    ElectricalNetwork net(ElectricalParams{});
    PacketId id = 1;
    for (NodeId src = 0; src < 64; src += 6)
        net.inject(broadcast(id++, src, net.now()));
    runToIdle(net);
    const auto &ev = net.events();
    EXPECT_EQ(ev.saGrants, ev.xbarTraversals);
    EXPECT_EQ(ev.saGrants, ev.linkTraversals);
    EXPECT_EQ(ev.saGrants, ev.bufferReads);
    // Every link traversal lands in a buffer; injections also write.
    EXPECT_EQ(ev.bufferWrites,
              ev.linkTraversals + net.counters().packetsInjected);
    EXPECT_EQ(ev.ejections, net.counters().deliveries);
}

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

uint64_t
hashLinkCounts(const std::vector<uint64_t> &counts)
{
    uint64_t h = kFnvBasis;
    for (uint64_t c : counts)
        fnv(h, c);
    return h;
}

/**
 * Runs a step-wise driver to completion, hashing every delivery
 * (packet, node, cycle) in the order the network reports them, so
 * any change to a single allocation decision shows.
 */
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

/** Everything a golden run pins: every event counter, the run's
 *  length, where the flits went and when each copy landed. */
struct Golden {
    uint64_t bufferWrites;
    uint64_t bufferReads;
    uint64_t xbarTraversals;
    uint64_t linkTraversals;
    uint64_t vaGrants;
    uint64_t saGrants;
    uint64_t ejections;
    uint64_t treeLookups;
    uint64_t routerCycles;
    uint64_t treeMulticasts;
    uint64_t setupUnicasts;
    uint64_t cycles; ///< completionCycles (SPLASH) or now() (synthetic)
    uint64_t linkHash;
    uint64_t deliveryHash;
};

void
expectGolden(const ElectricalNetwork &net, uint64_t cycles,
             uint64_t delivery_hash, const Golden &g)
{
    const ElectricalEvents &ev = net.events();
    EXPECT_EQ(ev.bufferWrites, g.bufferWrites);
    EXPECT_EQ(ev.bufferReads, g.bufferReads);
    EXPECT_EQ(ev.xbarTraversals, g.xbarTraversals);
    EXPECT_EQ(ev.linkTraversals, g.linkTraversals);
    EXPECT_EQ(ev.vaGrants, g.vaGrants);
    EXPECT_EQ(ev.saGrants, g.saGrants);
    EXPECT_EQ(ev.ejections, g.ejections);
    EXPECT_EQ(ev.treeLookups, g.treeLookups);
    EXPECT_EQ(ev.routerCycles, g.routerCycles);
    EXPECT_EQ(net.electricalCounters().treeMulticasts, g.treeMulticasts);
    EXPECT_EQ(net.electricalCounters().setupUnicasts, g.setupUnicasts);
    EXPECT_EQ(cycles, g.cycles);
    EXPECT_EQ(hashLinkCounts(net.linkCounts()), g.linkHash);
    EXPECT_EQ(delivery_hash, g.deliveryHash);
}

/**
 * Barnes (broadcast-heavy: VCTM setup streams, then tree multicast)
 * at a reduced transaction count, closed loop.
 */
void
checkBarnesGolden(int router_delay, const Golden &g)
{
    auto prof = traffic::splashProfile("Barnes");
    prof.txnsPerNode = 30;
    const auto streams = traffic::generateStreams(prof, 64, 7);
    ElectricalParams p;
    p.routerDelay = router_delay;
    ElectricalNetwork net(p);
    traffic::CoherenceDriver driver(net, streams, prof.mshrLimit);
    driver.begin();
    const uint64_t h = runHashingDeliveries(driver, net);
    const auto res = driver.finish();
    ASSERT_FALSE(res.timedOut);
    expectGolden(net, res.completionCycles, h, g);
}

TEST(ElectricalGolden, BarnesElectrical2)
{
    checkBarnesGolden(2, Golden{162346, 151021, 151021, 151021, 151021,
                                151021, 108665, 100480, 132416, 1570,
                                8064, 2069, 3870872956859936312ull,
                                9132848336442745519ull});
}

TEST(ElectricalGolden, BarnesElectrical3)
{
    checkBarnesGolden(3, Golden{162346, 151021, 151021, 151021, 151021,
                                151021, 108665, 100480, 134976, 1570,
                                8064, 2109, 3870872956859936312ull,
                                4799614568239048365ull});
}

TEST(ElectricalGolden, UniformNearSaturation)
{
    // Open-loop uniform unicast at 0.25 packets/node/cycle, just
    // under the baseline's saturation point, so VCs and output ports
    // are contended throughout.
    traffic::SyntheticConfig cfg;
    cfg.pattern = traffic::Pattern::UniformRandom;
    cfg.injectionRate = 0.25;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 1500;
    cfg.seed = 5;
    ElectricalNetwork net(ElectricalParams{});
    traffic::SyntheticDriver driver(net, cfg);
    driver.begin();
    const uint64_t h = runHashingDeliveries(driver, net);
    const auto res = driver.finish();
    EXPECT_FALSE(res.saturated);
    expectGolden(net, net.now(), h,
                 Golden{172048, 144939, 144939, 144939, 144939, 144939,
                        27109, 0, 112384, 0, 0, 1756,
                        8014737415641542763ull,
                        3894918988824950494ull});
}

} // namespace
} // namespace phastlane::electrical
