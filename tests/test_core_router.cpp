/**
 * @file
 * Router buffer / rotating arbiter tests (paper Section 2.1.1), plus a
 * differential campaign against the linear-scan reference arbiter
 * (PL_CHECK_LONG=1 widens it).
 */

#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/router.hpp"

namespace phastlane::core {
namespace {

PhastlaneParams
smallParams(int entries)
{
    PhastlaneParams p;
    p.routerBufferEntries = entries;
    return p;
}

OpticalPacket
mkPacket(uint64_t branch, NodeId dst)
{
    OpticalPacket pkt;
    pkt.base.id = branch;
    pkt.branchId = branch;
    pkt.finalDst = dst;
    return pkt;
}

TEST(RouterBuffers, CapacityEnforced)
{
    RouterBuffers rb(0, smallParams(2));
    EXPECT_TRUE(rb.hasSpace(Port::North));
    rb.push(Port::North, mkPacket(1, 5), 0);
    rb.push(Port::North, mkPacket(2, 5), 0);
    EXPECT_FALSE(rb.hasSpace(Port::North));
    EXPECT_EQ(rb.freeSlots(Port::North), 0);
    // Other queues unaffected.
    EXPECT_TRUE(rb.hasSpace(Port::South));
    EXPECT_EQ(rb.totalOccupancy(), 2u);
}

TEST(RouterBuffers, InfiniteBuffers)
{
    RouterBuffers rb(0, smallParams(0));
    for (int i = 0; i < 1000; ++i)
        rb.push(Port::Local, mkPacket(static_cast<uint64_t>(i), 5), 0);
    EXPECT_TRUE(rb.hasSpace(Port::Local));
    EXPECT_EQ(rb.occupancy(Port::Local), 1000u);
}

TEST(RouterBuffers, ArbitrateHonorsEligibility)
{
    RouterBuffers rb(0, smallParams(4));
    rb.push(Port::North, mkPacket(1, 5), 10);
    auto launches = rb.arbitrate(5, [](const OpticalPacket &) {
        return Port::East;
    });
    EXPECT_TRUE(launches.empty());
    launches = rb.arbitrate(10, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].second, Port::East);
    EXPECT_EQ(launches[0].first->state, EntryState::Launched);
}

TEST(RouterBuffers, OnePacketPerOutputPort)
{
    RouterBuffers rb(0, smallParams(4));
    // Two packets in different queues wanting the same output port.
    rb.push(Port::North, mkPacket(1, 5), 0);
    rb.push(Port::South, mkPacket(2, 5), 0);
    auto launches = rb.arbitrate(0, [](const OpticalPacket &) {
        return Port::East;
    });
    EXPECT_EQ(launches.size(), 1u);
}

TEST(RouterBuffers, UpToFourLaunchesAcrossPorts)
{
    RouterBuffers rb(0, smallParams(8));
    const Port outs[4] = {Port::North, Port::East, Port::South,
                          Port::West};
    for (int i = 0; i < 4; ++i) {
        OpticalPacket p = mkPacket(static_cast<uint64_t>(i + 1), 5);
        p.base.tag = static_cast<uint64_t>(i);
        rb.push(Port::Local, p, 0);
    }
    auto launches = rb.arbitrate(0, [&](const OpticalPacket &pkt) {
        return outs[pkt.base.tag];
    });
    EXPECT_EQ(launches.size(), 4u);
}

TEST(RouterBuffers, LaunchedEntriesAreSkipped)
{
    RouterBuffers rb(0, smallParams(4));
    rb.push(Port::North, mkPacket(1, 5), 0);
    auto first = rb.arbitrate(0, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(first.size(), 1u);
    auto second = rb.arbitrate(1, [](const OpticalPacket &) {
        return Port::East;
    });
    EXPECT_TRUE(second.empty());
}

TEST(RouterBuffers, ReleaseFreesTheSlot)
{
    RouterBuffers rb(0, smallParams(1));
    rb.push(Port::North, mkPacket(7, 5), 0);
    rb.arbitrate(0, [](const OpticalPacket &) { return Port::East; });
    EXPECT_FALSE(rb.hasSpace(Port::North));
    rb.releaseLaunched(7);
    EXPECT_TRUE(rb.hasSpace(Port::North));
    EXPECT_EQ(rb.totalOccupancy(), 0u);
}

TEST(RouterBuffers, RestoreDroppedRetriesLater)
{
    RouterBuffers rb(0, smallParams(2));
    rb.push(Port::North, mkPacket(7, 5), 0);
    rb.arbitrate(0, [](const OpticalPacket &) { return Port::East; });
    // The dropped launch served its taps in the held packet in place.
    rb.findLaunched(7)->pkt.taps = {3};
    rb.restoreDropped(7, 20);
    // Not eligible before cycle 20.
    auto launches = rb.arbitrate(10, [](const OpticalPacket &) {
        return Port::East;
    });
    EXPECT_TRUE(launches.empty());
    launches = rb.arbitrate(20, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].first->pkt.taps, std::vector<NodeId>{3});
    EXPECT_EQ(launches[0].first->attempts, 1);
}

TEST(RouterBuffers, FindLaunchedByBranchId)
{
    RouterBuffers rb(0, smallParams(4));
    rb.push(Port::North, mkPacket(1, 5), 0);
    rb.push(Port::East, mkPacket(2, 6), 0);
    rb.arbitrate(0, [](const OpticalPacket &p) {
        return p.branchId == 1 ? Port::South : Port::West;
    });
    Port q = Port::Local;
    BufferEntry *e = rb.findLaunched(2, &q);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(q, Port::East);
    EXPECT_EQ(rb.findLaunched(99), nullptr);
}

TEST(RouterBuffers, RotatingPointerGivesEveryQueueATurn)
{
    // Five queues all wanting the same output port: over five
    // arbitration rounds each queue must win at least once.
    RouterBuffers rb(0, smallParams(4));
    for (Port q : kAllPortList)
        rb.push(q, mkPacket(static_cast<uint64_t>(portIndex(q)) + 1,
                            5), 0);
    std::set<uint64_t> winners;
    for (Cycle c = 0; c < 5; ++c) {
        auto launches = rb.arbitrate(c, [](const OpticalPacket &) {
            return Port::East;
        });
        ASSERT_EQ(launches.size(), 1u);
        winners.insert(launches[0].first->pkt.branchId);
        rb.releaseLaunched(launches[0].first->pkt.branchId);
    }
    EXPECT_EQ(winners.size(), 5u);
}

TEST(RouterBuffers, RotationOrderIsPinned)
{
    // Regression pin for the rotating arbiter: priority starts at the
    // North queue and advances exactly one queue per arbitration
    // round, so with every queue holding a packet that wants the same
    // output port the winners come out in queue-index order.
    RouterBuffers rb(0, smallParams(4));
    for (Port q : kAllPortList)
        rb.push(q, mkPacket(static_cast<uint64_t>(portIndex(q)) + 1,
                            5), 0);
    for (Cycle c = 0; c < 5; ++c) {
        auto launches = rb.arbitrate(c, [](const OpticalPacket &) {
            return Port::East;
        });
        ASSERT_EQ(launches.size(), 1u);
        EXPECT_EQ(launches[0].first->pkt.branchId, c + 1)
            << "round " << c << " must be queue " << c << "'s turn";
        rb.releaseLaunched(launches[0].first->pkt.branchId);
    }
}

TEST(RouterBuffers, RotationAdvancesOnIdleRounds)
{
    // Priority follows the cycle, launches or not: after one empty
    // round the East queue (index 1) holds priority, so East beats
    // North for a contested port even though North has a lower index.
    RouterBuffers rb(0, smallParams(4));
    auto empty = rb.arbitrate(0, [](const OpticalPacket &) {
        return Port::East;
    });
    EXPECT_TRUE(empty.empty());
    rb.push(Port::North, mkPacket(1, 5), 0);
    rb.push(Port::East, mkPacket(2, 5), 0);
    auto launches = rb.arbitrate(1, [](const OpticalPacket &) {
        return Port::South;
    });
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].first->pkt.branchId, 2u);
}

TEST(RouterBuffers, EmptiedQueueDoesNotSkipTheNextTurn)
{
    // Releasing the winner (emptying its queue) mid-rotation must not
    // cost the following queue its turn: with North drained after
    // round 0, round 1 belongs to East, round 2 to South.
    RouterBuffers rb(0, smallParams(4));
    rb.push(Port::North, mkPacket(1, 5), 0);
    rb.push(Port::East, mkPacket(2, 5), 0);
    rb.push(Port::South, mkPacket(3, 5), 0);
    for (Cycle c = 0; c < 3; ++c) {
        auto launches = rb.arbitrate(c, [](const OpticalPacket &) {
            return Port::West;
        });
        ASSERT_EQ(launches.size(), 1u);
        EXPECT_EQ(launches[0].first->pkt.branchId, c + 1);
        rb.releaseLaunched(launches[0].first->pkt.branchId);
    }
}

TEST(RouterBuffers, OldestFirstWinsAcrossQueues)
{
    // OldestFirst arbitration ranks by global insertion age, not
    // queue index: a South-queue packet pushed first beats a younger
    // North-queue packet for a contested port, round after round.
    PhastlaneParams p = smallParams(4);
    p.bufferArbitration = BufferArbitration::OldestFirst;
    RouterBuffers rb(0, p);
    rb.push(Port::South, mkPacket(1, 5), 0);
    rb.push(Port::North, mkPacket(2, 5), 0);
    auto launches = rb.arbitrate(0, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].first->pkt.branchId, 1u);
    // The loser is untouched and wins once the port frees up.
    rb.releaseLaunched(1);
    launches = rb.arbitrate(1, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].first->pkt.branchId, 2u);
}

TEST(RouterBuffers, OldestFirstRespectsPortExclusivity)
{
    // When the two oldest entries contend for one port, the younger
    // of them is skipped but a still-younger entry aimed at a free
    // port launches in the same round.
    PhastlaneParams p = smallParams(4);
    p.bufferArbitration = BufferArbitration::OldestFirst;
    RouterBuffers rb(0, p);
    OpticalPacket a = mkPacket(1, 5);
    a.base.tag = 0; // -> East
    OpticalPacket b = mkPacket(2, 5);
    b.base.tag = 0; // -> East (conflict with a)
    OpticalPacket c = mkPacket(3, 5);
    c.base.tag = 1; // -> West
    rb.push(Port::North, a, 0);
    rb.push(Port::South, b, 0);
    rb.push(Port::Local, c, 0);
    auto launches = rb.arbitrate(0, [](const OpticalPacket &pkt) {
        return pkt.base.tag == 0 ? Port::East : Port::West;
    });
    ASSERT_EQ(launches.size(), 2u);
    EXPECT_EQ(launches[0].first->pkt.branchId, 1u);
    EXPECT_EQ(launches[1].first->pkt.branchId, 3u);
    EXPECT_EQ(rb.findLaunched(2), nullptr);
}

TEST(RouterBuffers, OldestFirstHonorsEligibilityAndState)
{
    // A not-yet-eligible older entry must not block a younger
    // eligible one, and Launched entries never re-launch.
    PhastlaneParams p = smallParams(4);
    p.bufferArbitration = BufferArbitration::OldestFirst;
    RouterBuffers rb(0, p);
    rb.push(Port::North, mkPacket(1, 5), 50); // oldest, not eligible
    rb.push(Port::East, mkPacket(2, 5), 0);
    auto launches = rb.arbitrate(0, [](const OpticalPacket &) {
        return Port::South;
    });
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].first->pkt.branchId, 2u);
    // Entry 2 is now Launched; nothing is eligible at cycle 1.
    launches = rb.arbitrate(1, [](const OpticalPacket &) {
        return Port::South;
    });
    EXPECT_TRUE(launches.empty());
}

TEST(RouterBuffers, LaunchesPerQueueLimit)
{
    PhastlaneParams p = smallParams(8);
    p.launchesPerQueue = 1;
    RouterBuffers rb(0, p);
    // Two local packets wanting different ports: only one may launch
    // per cycle with the limit at 1.
    OpticalPacket a = mkPacket(1, 5);
    a.base.tag = 0;
    OpticalPacket b = mkPacket(2, 5);
    b.base.tag = 1;
    rb.push(Port::Local, a, 0);
    rb.push(Port::Local, b, 0);
    auto launches = rb.arbitrate(0, [](const OpticalPacket &pkt) {
        return pkt.base.tag == 0 ? Port::East : Port::West;
    });
    EXPECT_EQ(launches.size(), 1u);
}

TEST(AdmissionBucketTest, DeterministicLazyAccrual)
{
    AdmissionBucket b;
    b.reset(/*burst=*/2, /*period=*/3, /*now=*/0);
    // The bucket starts full; the first refill is due one period out.
    EXPECT_TRUE(b.consume(2, 3, 0));
    EXPECT_TRUE(b.consume(2, 3, 0));
    EXPECT_FALSE(b.consume(2, 3, 1));
    EXPECT_FALSE(b.consume(2, 3, 2));
    // Cycle 3: one token accrued.
    EXPECT_TRUE(b.consume(2, 3, 3));
    EXPECT_FALSE(b.consume(2, 3, 4));
    // A long idle gap accrues many periods but caps at the burst.
    EXPECT_TRUE(b.consume(2, 3, 30));
    EXPECT_TRUE(b.consume(2, 3, 30));
    EXPECT_FALSE(b.consume(2, 3, 30));
}

TEST(AdmissionBucketTest, AccrualIsIndependentOfQueryPattern)
{
    // Querying every cycle and querying once after a gap must leave
    // the bucket in the same state (lazy accrual determinism).
    AdmissionBucket stepped, jumped;
    stepped.reset(1, 5, 0);
    jumped.reset(1, 5, 0);
    EXPECT_TRUE(stepped.consume(1, 5, 0));
    EXPECT_TRUE(jumped.consume(1, 5, 0));
    for (uint64_t t = 1; t < 17; ++t)
        stepped.consume(1, 5, t);
    // stepped took tokens at t = 5, 10, 15; jumped only sees t = 17.
    EXPECT_FALSE(stepped.consume(1, 5, 17));
    EXPECT_TRUE(jumped.consume(1, 5, 17));
}

TEST(RouterBuffers, TokenBucketThrottlesLocalLaunches)
{
    PhastlaneParams p = smallParams(8);
    p.admission = AdmissionPolicy::TokenBucket;
    p.admissionBurst = 1;
    p.admissionPeriod = 4;
    RouterBuffers rb(0, p);
    OpticalPacket a = mkPacket(1, 5);
    a.base.tag = 0;
    OpticalPacket b = mkPacket(2, 5);
    b.base.tag = 1;
    rb.push(Port::Local, a, 0);
    rb.push(Port::Local, b, 0);
    // Burst 1: only one source-originated launch this cycle even
    // though both want distinct free ports.
    auto launches = rb.arbitrate(0, [](const OpticalPacket &pkt) {
        return pkt.base.tag == 0 ? Port::East : Port::West;
    });
    EXPECT_EQ(launches.size(), 1u);
    // No token until cycle 4.
    launches = rb.arbitrate(1, [](const OpticalPacket &pkt) {
        return pkt.base.tag == 0 ? Port::East : Port::West;
    });
    EXPECT_TRUE(launches.empty());
    launches = rb.arbitrate(4, [](const OpticalPacket &pkt) {
        return pkt.base.tag == 0 ? Port::East : Port::West;
    });
    EXPECT_EQ(launches.size(), 1u);
}

TEST(RouterBuffers, TokenBucketNeverThrottlesTransitQueues)
{
    PhastlaneParams p = smallParams(8);
    p.admission = AdmissionPolicy::TokenBucket;
    p.admissionBurst = 1;
    p.admissionPeriod = 100;
    RouterBuffers rb(0, p);
    // Drain the bucket with a local launch first.
    rb.push(Port::Local, mkPacket(1, 5), 0);
    auto launches = rb.arbitrate(0, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(launches.size(), 1u);
    // Transit (buffered-in-flight) packets are not admission-gated:
    // both launch with the bucket empty.
    OpticalPacket a = mkPacket(2, 5);
    a.base.tag = 0;
    OpticalPacket b = mkPacket(3, 5);
    b.base.tag = 1;
    rb.push(Port::North, a, 1);
    rb.push(Port::South, b, 1);
    launches = rb.arbitrate(1, [](const OpticalPacket &pkt) {
        return pkt.base.tag == 0 ? Port::West : Port::South;
    });
    EXPECT_EQ(launches.size(), 2u);
}

TEST(RouterBuffers, StarvationCounterTracksLosingStreaks)
{
    PhastlaneParams p = smallParams(8);
    RouterBuffers rb(0, p);
    // Three local packets contending for one output port: each
    // arbitration launches one and the rest record a loss.
    rb.push(Port::Local, mkPacket(1, 5), 0);
    rb.push(Port::Local, mkPacket(2, 5), 0);
    rb.push(Port::Local, mkPacket(3, 5), 0);
    auto all_east = [](const OpticalPacket &) { return Port::East; };
    EXPECT_EQ(rb.arbitrate(0, all_east).size(), 1u);
    EXPECT_EQ(rb.maxConsecutiveLosses(), 1u);
    EXPECT_EQ(rb.maxConsecutiveLossesLocal(), 1u);
    // Free the winner's slot; the next round launches one of the two
    // losers while the last packet's streak grows to 2.
    rb.releaseLaunched(1);
    auto launches = rb.arbitrate(1, all_east);
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(rb.maxConsecutiveLosses(), 2u);
    // The high-water mark persists after the streak ends.
    rb.releaseLaunched(launches[0].first->pkt.branchId);
    ASSERT_EQ(rb.arbitrate(2, all_east).size(), 1u);
    EXPECT_EQ(rb.maxConsecutiveLosses(), 2u);

    // A launch ends its packet's streak. The West queue comes before
    // the local one in rounds 0 and 1, so local packet 10 loses twice
    // and wins round 2 (its streak closes at 2). Dropped and retried
    // from cycle 3, it loses round 3 to another West packet: its new
    // streak is 1, where one carried across the launch would read 3.
    RouterBuffers rb2(0, p);
    const auto winner = [&](Cycle c) {
        const auto l = rb2.arbitrate(c, all_east);
        return l.size() == 1 ? l[0].first->pkt.branchId : 0;
    };
    rb2.push(Port::Local, mkPacket(10, 5), 0);
    rb2.push(Port::West, mkPacket(11, 5), 0);
    ASSERT_EQ(winner(0), 11u);
    rb2.releaseLaunched(11);
    rb2.push(Port::West, mkPacket(12, 5), 1);
    ASSERT_EQ(winner(1), 12u);
    rb2.releaseLaunched(12);
    ASSERT_EQ(winner(2), 10u);
    EXPECT_EQ(rb2.maxConsecutiveLossesLocal(), 2u);
    rb2.restoreDropped(10, 3);
    rb2.push(Port::West, mkPacket(13, 5), 3);
    ASSERT_EQ(winner(3), 13u);
    EXPECT_EQ(rb2.maxConsecutiveLossesLocal(), 2u);
}

TEST(RouterBuffers, EnqueuedAtStampsEligibility)
{
    PhastlaneParams p = smallParams(4);
    RouterBuffers rb(0, p);
    rb.push(Port::Local, mkPacket(1, 5), 17);
    auto launches = rb.arbitrate(17, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(launches.size(), 1u);
    // AgeBoost measures queueing age from the eligibility stamp.
    EXPECT_EQ(launches[0].first->enqueuedAt, 17u);
}


// ---------------------------------------------------------------------
// Differential campaign: RouterBuffers' per-port arbitration against
// the linear scan it replaced, kept here verbatim as the reference.

bool
longCampaign()
{
    const char *v = std::getenv("PL_CHECK_LONG");
    return v && v[0] == '1';
}

/** Deliberate reference faults; each must make the campaign fail. */
enum class Mutation {
    None,
    StreakOffByOne,   ///< a launch resets the streak to 1, not 0
    TokenOnTakenPort, ///< the bucket is charged for a blocked port
    BudgetIgnored,    ///< launchesPerQueue is not enforced
};

/**
 * The linear-scan arbiter: every Waiting entry of every queue is
 * visited on every round that is not skipped, and each eligible one
 * not selected is charged a loss. Queues, skip horizon, rotating
 * pointer, token bucket and starvation maxima are its own.
 */
class ReferenceArbiter
{
  public:
    struct Entry {
        OpticalPacket pkt;
        EntryState state = EntryState::Waiting;
        Cycle eligibleAt = 0;
        uint64_t seq = 0;
        uint32_t consecLosses = 0;
        Port desired = Port::Local;
    };
    struct Pick {
        Entry *entry;
        Port out;
        Port queue;
    };

    ReferenceArbiter(const PhastlaneParams &params, Mutation mutation)
        : launchesPerQueue_(params.launchesPerQueue),
          policy_(params.bufferArbitration),
          admission_(params.admission),
          admissionBurst_(params.admissionBurst),
          admissionPeriod_(params.admissionPeriod),
          mutation_(mutation)
    {
        if (admission_ == AdmissionPolicy::TokenBucket)
            bucket_.reset(admissionBurst_, admissionPeriod_, 0);
    }

    void push(Port q, OpticalPacket pkt, Cycle eligible_at)
    {
        Entry e;
        e.pkt = std::move(pkt);
        e.eligibleAt = eligible_at;
        e.seq = nextSeq_++;
        queues_[portIndex(q)].push_back(std::move(e));
        ++total_;
        nextEligible_ = std::min(nextEligible_, eligible_at);
    }

    Entry *findLaunched(PacketId id)
    {
        for (auto &queue : queues_)
            for (auto &e : queue)
                if (e.state == EntryState::Launched &&
                    e.pkt.branchId == id)
                    return &e;
        return nullptr;
    }

    void release(PacketId id)
    {
        for (auto &queue : queues_) {
            for (auto it = queue.begin(); it != queue.end(); ++it) {
                if (it->state == EntryState::Launched &&
                    it->pkt.branchId == id) {
                    queue.erase(it);
                    --total_;
                    return;
                }
            }
        }
        FAIL() << "reference lost packet " << id;
    }

    void restore(PacketId id, Cycle eligible_at)
    {
        Entry *e = findLaunched(id);
        ASSERT_NE(e, nullptr);
        e->state = EntryState::Waiting;
        e->eligibleAt = eligible_at;
        nextEligible_ = std::min(nextEligible_, eligible_at);
    }

    size_t occupancy(Port q) const
    {
        return queues_[portIndex(q)].size();
    }
    size_t total() const { return total_; }
    Cycle horizon() const
    {
        return total_ == 0 ? kNeverCycle : nextEligible_;
    }
    uint64_t maxAll() const { return maxConsecLossAll_; }
    uint64_t maxLocal() const { return maxConsecLossLocal_; }

    template <typename DesiredPortFn>
    std::vector<Pick> arbitrate(Cycle now, DesiredPortFn &&desired_port)
    {
        std::vector<Pick> launches;
        if (total_ == 0 || now < nextEligible_) {
            if (policy_ != BufferArbitration::OldestFirst)
                rotate_ = (rotate_ + 1) % kAllPorts;
            return launches;
        }
        bool port_taken[kMeshPorts] = {false, false, false, false};
        Cycle next_eligible = kNeverCycle;

        auto try_launch = [&](Entry &entry, Port q, int &queue_budget) {
            if (entry.state == EntryState::Waiting &&
                entry.eligibleAt <= now) {
                bool selected = false;
                if (queue_budget > 0) {
                    if (entry.desired == Port::Local)
                        entry.desired = desired_port(entry.pkt);
                    const Port out = entry.desired;
                    const bool charge =
                        admission_ == AdmissionPolicy::TokenBucket &&
                        q == Port::Local;
                    bool admitted;
                    if (mutation_ == Mutation::TokenOnTakenPort) {
                        admitted = !charge ||
                                   bucket_.consume(admissionBurst_,
                                                   admissionPeriod_,
                                                   now);
                        admitted = admitted && out != Port::Local &&
                                   !port_taken[portIndex(out)];
                    } else {
                        admitted = out != Port::Local &&
                                   !port_taken[portIndex(out)] &&
                                   (!charge ||
                                    bucket_.consume(admissionBurst_,
                                                    admissionPeriod_,
                                                    now));
                    }
                    if (admitted) {
                        port_taken[portIndex(out)] = true;
                        entry.state = EntryState::Launched;
                        launches.push_back(Pick{&entry, out, q});
                        if (mutation_ != Mutation::BudgetIgnored)
                            --queue_budget;
                        entry.consecLosses =
                            mutation_ == Mutation::StreakOffByOne ? 1
                                                                  : 0;
                        selected = true;
                    }
                }
                if (!selected)
                    noteLoss(entry, q);
            }
            if (entry.state == EntryState::Waiting)
                next_eligible =
                    std::min(next_eligible, entry.eligibleAt);
        };

        if (policy_ == BufferArbitration::OldestFirst) {
            std::vector<std::pair<uint64_t, std::pair<Entry *, Port>>>
                candidates;
            for (int qi = 0; qi < kAllPorts; ++qi) {
                const Port q = portFromIndex(qi);
                for (auto &entry : queues_[qi]) {
                    if (entry.state != EntryState::Waiting)
                        continue;
                    if (entry.eligibleAt <= now) {
                        candidates.emplace_back(
                            entry.seq, std::make_pair(&entry, q));
                    } else {
                        next_eligible =
                            std::min(next_eligible, entry.eligibleAt);
                    }
                }
            }
            std::sort(candidates.begin(), candidates.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            int budget = 4;
            for (auto &[seq, cand] : candidates)
                try_launch(*cand.first, cand.second, budget);
        } else {
            for (int qi = 0; qi < kAllPorts; ++qi) {
                const Port q =
                    portFromIndex((rotate_ + qi) % kAllPorts);
                int queue_budget = launchesPerQueue_;
                for (auto &entry : queues_[portIndex(q)])
                    try_launch(entry, q, queue_budget);
            }
            rotate_ = (rotate_ + 1) % kAllPorts;
        }
        nextEligible_ = next_eligible;
        return launches;
    }

  private:
    void noteLoss(Entry &entry, Port q)
    {
        const uint64_t v = ++entry.consecLosses;
        if (v > maxConsecLossAll_)
            maxConsecLossAll_ = v;
        if (q == Port::Local && v > maxConsecLossLocal_)
            maxConsecLossLocal_ = v;
    }

    int launchesPerQueue_;
    BufferArbitration policy_;
    AdmissionPolicy admission_;
    int admissionBurst_;
    int admissionPeriod_;
    Mutation mutation_;
    AdmissionBucket bucket_;
    std::array<std::deque<Entry>, kAllPorts> queues_;
    int rotate_ = 0;
    uint64_t nextSeq_ = 0;
    size_t total_ = 0;
    Cycle nextEligible_ = 0;
    uint64_t maxConsecLossLocal_ = 0;
    uint64_t maxConsecLossAll_ = 0;
};

/**
 * One randomized campaign: consecutive cycles of pushes into all five
 * queues (random desired ports, eligibleAt in the past, present and
 * future), an arbitration on both arbiters, then releases and
 * restores of launched entries. Returns a description of the first
 * disagreement, or nothing when the two agree throughout.
 */
std::optional<std::string>
runArbitrationCampaign(uint64_t seed, int cycles, Mutation mutation)
{
    Rng rng(seed);
    PhastlaneParams p;
    static constexpr int kDepths[] = {1, 10, 64, 0};
    p.routerBufferEntries = kDepths[rng.uniformInt(0, 3)];
    p.bufferArbitration = rng.bernoulli(0.3)
                              ? BufferArbitration::OldestFirst
                              : BufferArbitration::RotatingPriority;
    p.launchesPerQueue = static_cast<int>(rng.uniformInt(1, 4));
    if (rng.bernoulli(0.4)) {
        p.admission = AdmissionPolicy::TokenBucket;
        p.admissionBurst = static_cast<int>(rng.uniformInt(1, 3));
        p.admissionPeriod = static_cast<int>(rng.uniformInt(1, 4));
    }
    const double push_rate = rng.uniform() * 0.9;
    const double release_rate = 0.2 + rng.uniform() * 0.7;
    const double restore_rate = rng.uniform() * 0.5;

    RouterBuffers fast(0, p);
    ReferenceArbiter ref(p, mutation);
    const auto desired = [](const OpticalPacket &pkt) {
        return portFromIndex(static_cast<int>(pkt.base.tag));
    };

    const auto fail = [&](Cycle now, const std::string &what) {
        std::ostringstream os;
        os << "seed " << seed << " cycle " << now << " (depth "
           << p.routerBufferEntries << ", "
           << (p.bufferArbitration == BufferArbitration::OldestFirst
                   ? "oldest-first"
                   : "rotating")
           << ", " << p.launchesPerQueue << "/queue, "
           << (p.admission == AdmissionPolicy::TokenBucket ? "token"
                                                             : "free")
           << "): " << what;
        return os.str();
    };

    uint64_t next_id = 1;
    std::vector<PacketId> in_flight;
    for (Cycle now = 0; now < static_cast<Cycle>(cycles); ++now) {
        for (Port q : kAllPortList) {
            while (rng.bernoulli(push_rate) && fast.hasSpace(q) &&
                   fast.occupancy(q) < 96) {
                OpticalPacket pkt;
                pkt.branchId = next_id;
                pkt.base.id = next_id++;
                pkt.base.tag =
                    static_cast<uint64_t>(rng.uniformInt(0, 3));
                const Cycle eligible =
                    now + static_cast<Cycle>(rng.uniformInt(0, 6)) -
                    std::min<Cycle>(now, 2);
                fast.push(q, pkt, eligible);
                ref.push(q, pkt, eligible);
            }
            if (fast.occupancy(q) != ref.occupancy(q))
                return fail(now, "occupancy differs");
        }

        const Cycle horizon = fast.horizon();
        const auto got = [&] {
            ArbitrationScratch scratch;
            fast.arbitrate(now, desired, scratch);
            return scratch.launches;
        }();
        const auto want = ref.arbitrate(now, desired);
        // step() skips the arbitration of a router whose horizon lies
        // in the future, so the reference must pick nothing there.
        if (horizon > now && !want.empty())
            return fail(now, "reference launched before the skip "
                             "horizon " + std::to_string(horizon));
        if (got.size() != want.size())
            return fail(now, "launch counts " +
                                 std::to_string(got.size()) + " vs " +
                                 std::to_string(want.size()));
        for (size_t i = 0; i < want.size(); ++i) {
            if (got[i].entry->pkt.branchId !=
                    want[i].entry->pkt.branchId ||
                got[i].out != want[i].out ||
                got[i].queue != want[i].queue)
                return fail(now, "pick " + std::to_string(i) +
                                     " differs");
            in_flight.push_back(want[i].entry->pkt.branchId);
        }
        if (fast.maxConsecutiveLosses() != ref.maxAll() ||
            fast.maxConsecutiveLossesLocal() != ref.maxLocal())
            return fail(now, "starvation maxima " +
                                 std::to_string(
                                     fast.maxConsecutiveLosses()) +
                                 "/" +
                                 std::to_string(
                                     fast.maxConsecutiveLossesLocal()) +
                                 " vs " + std::to_string(ref.maxAll()) +
                                 "/" + std::to_string(ref.maxLocal()));
        // The skip horizon is exact, or at most one cycle out after a
        // scan that stopped early: the next round may then arbitrate
        // for nothing, but never skips a round with work.
        if (fast.horizon() != ref.horizon() && fast.horizon() > now + 1)
            return fail(now, "skip horizon " +
                                 std::to_string(fast.horizon()) + " vs " +
                                 std::to_string(ref.horizon()));

        // Resolve some launches: released, restored for a retry
        // (eligible in the past, present or future), or left in
        // flight for a later cycle.
        std::vector<PacketId> still;
        for (PacketId id : in_flight) {
            if (rng.bernoulli(release_rate)) {
                fast.releaseLaunched(id);
                ref.release(id);
            } else if (rng.bernoulli(restore_rate)) {
                const Cycle eligible =
                    now + static_cast<Cycle>(rng.uniformInt(0, 6)) -
                    std::min<Cycle>(now, 2);
                fast.restoreDropped(id, eligible);
                ref.restore(id, eligible);
            } else {
                still.push_back(id);
            }
        }
        in_flight.swap(still);
        if (fast.totalOccupancy() != ref.total())
            return fail(now, "total occupancy differs");
    }
    return std::nullopt;
}

TEST(ArbitrationDifferential, PerPortArbiterMatchesLinearScanReference)
{
    const int campaigns = longCampaign() ? 2000 : 300;
    const int cycles = longCampaign() ? 1000 : 200;
    for (int c = 0; c < campaigns; ++c) {
        const auto mismatch = runArbitrationCampaign(
            0xa4b17000u + static_cast<uint64_t>(c), cycles,
            Mutation::None);
        ASSERT_FALSE(mismatch.has_value()) << *mismatch;
    }
}

TEST(ArbitrationDifferential, SeededMutationsAreCaught)
{
    // A comparison that cannot see these faults would pass anything.
    for (Mutation m : {Mutation::StreakOffByOne,
                       Mutation::TokenOnTakenPort,
                       Mutation::BudgetIgnored}) {
        bool caught = false;
        for (int c = 0; c < 300 && !caught; ++c) {
            caught = runArbitrationCampaign(
                         0xa4b17000u + static_cast<uint64_t>(c), 200, m)
                         .has_value();
        }
        EXPECT_TRUE(caught) << "mutation " << static_cast<int>(m)
                            << " went unnoticed";
    }
}

} // namespace
} // namespace phastlane::core
