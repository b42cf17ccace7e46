/**
 * @file
 * Direct unit tests of the electrical router's VC state, VC
 * allocation, and iSLIP switch allocation, plus a differential
 * campaign against the scan-and-sort reference allocators
 * (PL_CHECK_LONG=1 widens it).
 */

#include <gtest/gtest.h>
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "electrical/router.hpp"

namespace phastlane::electrical {
namespace {

bool
longCampaign()
{
    const char *v = std::getenv("PL_CHECK_LONG");
    return v && v[0] == '1';
}

EFlit
makeFlit(uint64_t id)
{
    EFlit f;
    f.msg = std::make_shared<const Packet>();
    f.flitId = id;
    return f;
}

class RouterFixture : public ::testing::Test
{
  protected:
    RouterFixture() : router_(0, params_) {}

    /** Place a flit into (port, vc) with a single branch toward
     *  @p out, arrived long enough ago for both stages. */
    void
    placeFlit(Port port, int vc, Port out, Cycle arrived = 0)
    {
        router_.receive(port, vc, makeFlit(nextId_++), arrived,
                        static_cast<uint8_t>(1u << portIndex(out)));
    }

    ElectricalParams params_;
    ElectricalRouter router_;
    uint64_t nextId_ = 1;
};

TEST_F(RouterFixture, StageTimingMatchesRouterDelay)
{
    // routerDelay = 3: VA at arrival+1, SA at arrival+2.
    EXPECT_EQ(router_.vaStage(10), 11u);
    EXPECT_EQ(router_.saStage(10), 12u);
}

TEST_F(RouterFixture, FreeInputVcFindsTheGap)
{
    EXPECT_EQ(router_.freeInputVc(Port::Local), 0);
    placeFlit(Port::Local, 0, Port::East);
    EXPECT_EQ(router_.freeInputVc(Port::Local), 1);
}

TEST_F(RouterFixture, VaAssignsFreeOutputVc)
{
    placeFlit(Port::South, 0, Port::North);
    EXPECT_EQ(router_.allocateVcs(100), 1);
    const InputVc &ivc = router_.inputVc(Port::South, 0);
    const int out_vc = ivc.branchVc[portIndex(Port::North)];
    ASSERT_GE(out_vc, 0);
    EXPECT_EQ(router_.outputVc(Port::North, out_vc).state,
              OutputVc::State::Assigned);
    // A second VA pass grants nothing new.
    EXPECT_EQ(router_.allocateVcs(101), 0);
}

TEST_F(RouterFixture, VaRespectsStageTiming)
{
    placeFlit(Port::South, 0, Port::North, /*arrived=*/50);
    EXPECT_EQ(router_.allocateVcs(50), 0);  // VA stage is 51
    EXPECT_EQ(router_.allocateVcs(51), 1);
}

TEST_F(RouterFixture, VaExhaustsOutputVcs)
{
    // 10 output VCs on the North port: the 11th requester waits.
    for (int v = 0; v < params_.vcsPerPort; ++v)
        placeFlit(Port::South, v, Port::North);
    placeFlit(Port::East, 0, Port::North);
    EXPECT_EQ(router_.allocateVcs(100), params_.vcsPerPort);
    EXPECT_EQ(router_.allocateVcs(101), 0);
}

TEST_F(RouterFixture, SaGrantsOnePerOutputPort)
{
    placeFlit(Port::South, 0, Port::North);
    placeFlit(Port::East, 0, Port::North);
    router_.allocateVcs(100);
    const auto winners = router_.allocateSwitch(100);
    ASSERT_EQ(winners.size(), 1u);
    EXPECT_EQ(winners[0].outPort, Port::North);
}

TEST_F(RouterFixture, SaMatchesDisjointPortsInOneCycle)
{
    placeFlit(Port::South, 0, Port::North);
    placeFlit(Port::North, 0, Port::South);
    placeFlit(Port::West, 0, Port::East);
    placeFlit(Port::East, 0, Port::West);
    router_.allocateVcs(100);
    const auto winners = router_.allocateSwitch(100);
    EXPECT_EQ(winners.size(), 4u);
}

TEST_F(RouterFixture, MulticastForkReplicatesAcrossPorts)
{
    // One flit with three branches: input speedup 4 lets all three
    // win SA in the same cycle once VA assigned each branch a VC.
    router_.receive(Port::Local, 0, makeFlit(nextId_++), 0,
                    static_cast<uint8_t>(
                        (1u << portIndex(Port::North)) |
                        (1u << portIndex(Port::East)) |
                        (1u << portIndex(Port::South))));
    EXPECT_EQ(router_.allocateVcs(100), 3);
    const auto winners = router_.allocateSwitch(100);
    EXPECT_EQ(winners.size(), 3u);
    for (const auto &w : winners)
        EXPECT_EQ(w.inPort, Port::Local);
}

TEST_F(RouterFixture, InputSpeedupCapsGrants)
{
    ElectricalParams p;
    p.inputSpeedup = 2;
    ElectricalRouter router(0, p);
    router.receive(Port::Local, 0, makeFlit(1), 0,
                   0x0f); // all four ports
    EXPECT_EQ(router.allocateVcs(100), 4);
    const auto winners = router.allocateSwitch(100);
    EXPECT_EQ(winners.size(), 2u);
}

TEST_F(RouterFixture, IslipRotatesGrantsAcrossRequesters)
{
    // Two persistent contenders for the North port: over repeated
    // allocations each must win (pointer advances past winners).
    placeFlit(Port::South, 0, Port::North);
    placeFlit(Port::East, 0, Port::North);
    router_.allocateVcs(100);
    std::set<int> winner_ports;
    for (int round = 0; round < 2; ++round) {
        const auto winners = router_.allocateSwitch(100 + round);
        ASSERT_EQ(winners.size(), 1u);
        winner_ports.insert(portIndex(winners[0].inPort));
        // Caller-side cleanup: send the branch, free the input VC
        // and return the output VC's credit.
        const SaWinner w = winners[0];
        EXPECT_TRUE(router_.sendBranch(w).last);
        router_.releaseInput(w.inPort, w.inVc);
        router_.returnCredit(Port::North, w.outVc, 100 + round);
    }
    EXPECT_EQ(winner_ports.size(), 2u);
}

TEST_F(RouterFixture, SecondIterationFillsLeftoverOutputs)
{
    // Input-port conflict in iteration 1: VCs on the same input port
    // requesting different outputs can need a second grant/accept
    // round when grants collide on one input's accept stage. Build a
    // scenario with speedup 1 to force it.
    ElectricalParams p;
    p.inputSpeedup = 1;
    p.allocIterations = 2;
    ElectricalRouter router(0, p);
    uint64_t id = 1;
    auto place = [&](Port port, int vc, uint8_t mask) {
        router.receive(port, vc, makeFlit(id++), 0, mask);
    };
    // South VC0 wants North; South VC1 wants East; West VC0 wants
    // East too. With speedup 1, South can send only one flit; the
    // second iteration lets West take East if the first round left
    // it unmatched.
    place(Port::South, 0,
          static_cast<uint8_t>(1u << portIndex(Port::North)));
    place(Port::South, 1,
          static_cast<uint8_t>(1u << portIndex(Port::East)));
    place(Port::West, 0,
          static_cast<uint8_t>(1u << portIndex(Port::East)));
    router.allocateVcs(100);
    const auto winners = router.allocateSwitch(100);
    // Both outputs end up matched to different input ports.
    ASSERT_EQ(winners.size(), 2u);
    std::set<int> in_ports, out_ports;
    for (const auto &w : winners) {
        in_ports.insert(portIndex(w.inPort));
        out_ports.insert(portIndex(w.outPort));
    }
    EXPECT_EQ(in_ports.size(), 2u);
    EXPECT_EQ(out_ports.size(), 2u);
}

TEST_F(RouterFixture, LastBranchMovesTheFlitOut)
{
    // A two-branch fork: the first branch leaves as a copy, the last
    // one takes the flit itself and asks for the VC's release.
    router_.receive(Port::Local, 0, makeFlit(7), 0,
                    static_cast<uint8_t>(
                        (1u << portIndex(Port::North)) |
                        (1u << portIndex(Port::East))));
    ASSERT_EQ(router_.allocateVcs(100), 2);
    const auto winners = router_.allocateSwitch(100);
    ASSERT_EQ(winners.size(), 2u);
    const SentBranch first = router_.sendBranch(winners[0]);
    EXPECT_FALSE(first.last);
    EXPECT_EQ(first.flit.flitId, 7u);
    EXPECT_EQ(router_.outputVc(winners[0].outPort, winners[0].outVc)
                  .state,
              OutputVc::State::Occupied);
    const SentBranch second = router_.sendBranch(winners[1]);
    EXPECT_TRUE(second.last);
    EXPECT_EQ(second.flit.msg, first.flit.msg);
    router_.releaseInput(Port::Local, 0);
    EXPECT_EQ(router_.freeInputVc(Port::Local), 0);
    EXPECT_TRUE(router_.idle());
}

TEST(ElectricalRouterDeathTest, InputVcsMustFitOneMaskWord)
{
    ElectricalParams p;
    p.vcsPerPort = ElectricalRouter::kMaxInputVcs / kAllPorts; // 12
    ElectricalRouter widest(0, p);
    EXPECT_EQ(widest.freeInputVc(Port::Local), 0);
    p.vcsPerPort += 1;
    EXPECT_DEATH(ElectricalRouter(0, p), "vcsPerPort = 13");
    p.vcsPerPort = 0;
    EXPECT_DEATH(ElectricalRouter(0, p), "vcsPerPort = 0");
}

/**
 * The allocators as they were before the router kept VC masks: every
 * call rescans all input VCs per output port and sorts the
 * requesters by their round-robin rank. Kept verbatim (over a
 * mirrored copy of the VC state) as the reference the mask-driven
 * router must match grant for grant and pointer for pointer.
 */
class ReferenceAllocator
{
  public:
    explicit ReferenceAllocator(const ElectricalParams &params)
        : params_(params),
          inputs_(static_cast<size_t>(kAllPorts * params.vcsPerPort)),
          outputs_(static_cast<size_t>(kMeshPorts * params.vcsPerPort)),
          vaPtr_(kMeshPorts, 0),
          saPtr_(kMeshPorts, 0),
          acceptPtr_(kAllPorts, 0)
    {
    }

    /** InputVc without the flit payload. */
    struct Vc {
        bool busy = false;
        Cycle arrivedAt = 0;
        uint8_t pendingMesh = 0;
        bool ejecting = false;
        std::array<int, kMeshPorts> branchVc{-1, -1, -1, -1};
    };

    Vc &inputVc(Port p, int v)
    {
        return inputs_[static_cast<size_t>(
            portIndex(p) * params_.vcsPerPort + v)];
    }
    OutputVc &outputVc(Port p, int v)
    {
        return outputs_[static_cast<size_t>(
            portIndex(p) * params_.vcsPerPort + v)];
    }
    int vaPointer(int po) const { return vaPtr_[po]; }
    int saPointer(int po) const { return saPtr_[po]; }
    int acceptPointer(int pi) const { return acceptPtr_[pi]; }

    void
    receive(Port p, int v, Cycle now, uint8_t mesh_ports)
    {
        Vc &vc = inputVc(p, v);
        vc = Vc{};
        vc.busy = true;
        vc.arrivedAt = now;
        vc.pendingMesh = mesh_ports;
        vc.ejecting = mesh_ports == 0;
    }

    /** Returns true when the input VC has no branch left. */
    bool
    sendBranch(const SaWinner &w)
    {
        Vc &vc = inputVc(w.inPort, w.inVc);
        outputVc(w.outPort, w.outVc).state = OutputVc::State::Occupied;
        vc.pendingMesh &=
            static_cast<uint8_t>(~(1u << portIndex(w.outPort)));
        vc.branchVc[portIndex(w.outPort)] = -1;
        return vc.pendingMesh == 0 && !vc.ejecting;
    }

    void releaseInput(Port p, int v) { inputVc(p, v) = Vc{}; }

    void
    returnCredit(Port out, int v, Cycle visible_at)
    {
        outputVc(out, v).state = OutputVc::State::Free;
        outputVc(out, v).freeAt = visible_at;
    }

    Cycle
    vaStage(Cycle arrival) const
    {
        const int off = std::max(0, params_.routerDelay - 2);
        return arrival + static_cast<Cycle>(off);
    }

    Cycle
    saStage(Cycle arrival) const
    {
        return arrival + static_cast<Cycle>(params_.routerDelay - 1);
    }

    int
    allocateVcs(Cycle now)
    {
        const int V = params_.vcsPerPort;
        int grants = 0;
        for (int po = 0; po < kMeshPorts; ++po) {
            const Port out = portFromIndex(po);
            std::vector<int> reqs;
            for (int gi = 0; gi < kAllPorts * V; ++gi) {
                const Vc &vc = inputs_[static_cast<size_t>(gi)];
                if (!vc.busy || vc.ejecting)
                    continue;
                if (now < vaStage(vc.arrivedAt))
                    continue;
                if ((vc.pendingMesh & (1u << po)) == 0)
                    continue;
                if (vc.branchVc[po] >= 0)
                    continue;
                reqs.push_back(gi);
            }
            if (reqs.empty())
                continue;
            std::vector<int> free_vcs;
            for (int v = 0; v < V; ++v) {
                const OutputVc &ovc = outputVc(out, v);
                if (ovc.state == OutputVc::State::Free &&
                    ovc.freeAt <= now) {
                    free_vcs.push_back(v);
                }
            }
            if (free_vcs.empty())
                continue;
            std::sort(reqs.begin(), reqs.end(), [&](int a, int b) {
                const int total = kAllPorts * V;
                const int ra = (a - vaPtr_[po] + total) % total;
                const int rb = (b - vaPtr_[po] + total) % total;
                return ra < rb;
            });
            const size_t n = std::min(reqs.size(), free_vcs.size());
            for (size_t i = 0; i < n; ++i) {
                Vc &vc = inputs_[static_cast<size_t>(reqs[i])];
                vc.branchVc[po] = free_vcs[i];
                outputVc(out, free_vcs[i]).state =
                    OutputVc::State::Assigned;
                ++grants;
            }
            vaPtr_[po] = (reqs[n - 1] + 1) % (kAllPorts * V);
        }
        return grants;
    }

    std::vector<SaWinner>
    allocateSwitch(Cycle now)
    {
        const int V = params_.vcsPerPort;
        const int total = kAllPorts * V;
        std::vector<SaWinner> winners;
        int input_grants[kAllPorts] = {0, 0, 0, 0, 0};

        std::array<std::vector<int>, kMeshPorts> requests;
        for (int gi = 0; gi < total; ++gi) {
            const Vc &vc = inputs_[static_cast<size_t>(gi)];
            if (!vc.busy || now < saStage(vc.arrivedAt))
                continue;
            for (int po = 0; po < kMeshPorts; ++po) {
                if (vc.branchVc[po] >= 0)
                    requests[static_cast<size_t>(po)].push_back(gi);
            }
        }

        bool output_matched[kMeshPorts] = {false, false, false, false};
        // (gi, po) pairs already matched this cycle. Never true where
        // it is read: a pair is set only as its output gets matched,
        // and only unmatched outputs read it.
        std::vector<uint8_t> pair_matched(
            static_cast<size_t>(total) * kMeshPorts, 0);

        const int iterations = std::max(1, params_.allocIterations);
        for (int iter = 0; iter < iterations; ++iter) {
            int grant_to[kMeshPorts] = {-1, -1, -1, -1};
            for (int po = 0; po < kMeshPorts; ++po) {
                if (output_matched[po])
                    continue;
                int best = -1;
                int best_rank = total;
                for (int gi : requests[static_cast<size_t>(po)]) {
                    if (pair_matched[static_cast<size_t>(gi) *
                                         kMeshPorts + po])
                        continue;
                    if (input_grants[gi / V] >= params_.inputSpeedup)
                        continue;
                    const int rank = (gi - saPtr_[po] + total) % total;
                    if (rank < best_rank) {
                        best = gi;
                        best_rank = rank;
                    }
                }
                grant_to[po] = best;
            }
            bool any = false;
            for (int pi = 0; pi < kAllPorts; ++pi) {
                for (int k = 0; k < kMeshPorts; ++k) {
                    const int po =
                        (acceptPtr_[static_cast<size_t>(pi)] + k) %
                        kMeshPorts;
                    const int gi = grant_to[po];
                    if (gi < 0 || gi / V != pi)
                        continue;
                    if (input_grants[pi] >= params_.inputSpeedup)
                        continue;
                    Vc &vc = inputs_[static_cast<size_t>(gi)];
                    winners.push_back(
                        SaWinner{portFromIndex(pi), gi % V,
                                 portFromIndex(po), vc.branchVc[po]});
                    output_matched[po] = true;
                    pair_matched[static_cast<size_t>(gi) * kMeshPorts +
                                 po] = 1;
                    ++input_grants[pi];
                    grant_to[po] = -1;
                    any = true;
                    if (iter == 0) {
                        saPtr_[po] = (gi + 1) % total;
                        acceptPtr_[static_cast<size_t>(pi)] =
                            (po + 1) % kMeshPorts;
                    }
                }
            }
            if (!any)
                break;
        }
        return winners;
    }

  private:
    ElectricalParams params_;
    std::vector<Vc> inputs_;
    std::vector<OutputVc> outputs_;
    std::vector<int> vaPtr_;
    std::vector<int> saPtr_;
    std::vector<int> acceptPtr_;
};

/** Every VC field and pointer of @p router equals @p ref's. */
void
expectSameState(const ElectricalRouter &router, ReferenceAllocator &ref,
                const ElectricalParams &p, const std::string &where)
{
    for (int pi = 0; pi < kAllPorts; ++pi) {
        const Port port = portFromIndex(pi);
        for (int v = 0; v < p.vcsPerPort; ++v) {
            const InputVc &got = router.inputVc(port, v);
            const ReferenceAllocator::Vc &want = ref.inputVc(port, v);
            ASSERT_EQ(got.busy(), want.busy) << where;
            if (!want.busy)
                continue;
            ASSERT_EQ(got.arrivedAt, want.arrivedAt) << where;
            ASSERT_EQ(got.pendingMesh, want.pendingMesh) << where;
            ASSERT_EQ(got.ejecting, want.ejecting) << where;
            ASSERT_EQ(got.branchVc, want.branchVc)
                << where << " input " << pi << "/" << v;
        }
        if (port == Port::Local)
            continue;
        for (int v = 0; v < p.vcsPerPort; ++v) {
            ASSERT_EQ(router.outputVc(port, v).state,
                      ref.outputVc(port, v).state)
                << where << " output " << pi << "/" << v;
            if (ref.outputVc(port, v).state == OutputVc::State::Free) {
                ASSERT_EQ(router.outputVc(port, v).freeAt,
                          ref.outputVc(port, v).freeAt)
                    << where;
            }
        }
        ASSERT_EQ(router.acceptPointer(port), ref.acceptPointer(pi))
            << where;
        if (pi < kMeshPorts) {
            ASSERT_EQ(router.vaPointer(port), ref.vaPointer(pi)) << where;
            ASSERT_EQ(router.saPointer(port), ref.saPointer(pi)) << where;
        }
    }
}

/**
 * Drives the router and the reference through @p cycles consecutive
 * cycles of randomized traffic: arrivals (unicast, multicast forks
 * and pure ejections) with arrival times straddling the VA/SA stages,
 * random ejection releases, and credits returned at times before and
 * after the allocation cycle. Every grant count, SA winner list (in
 * order), VC field and pointer must match after every step.
 */
void
runAllocatorCampaign(uint64_t seed, int cycles)
{
    Rng rng(seed);
    ElectricalParams p;
    const int vc_choices[] = {1, 2, 3, 10, 12};
    p.vcsPerPort = vc_choices[rng.uniformInt(0, 4)];
    p.inputSpeedup = static_cast<int>(rng.uniformInt(1, 4));
    p.allocIterations = static_cast<int>(rng.uniformInt(1, 3));
    p.routerDelay = static_cast<int>(rng.uniformInt(2, 3));
    // Per-campaign load: sparse to saturated arrivals, slow to fast
    // credit return.
    const double arrive = 0.02 + 0.5 * rng.uniform();
    const double credit = 0.1 + 0.8 * rng.uniform();
    const double eject = 0.2 + 0.7 * rng.uniform();

    ElectricalRouter router(0, p);
    ReferenceAllocator ref(p);
    uint64_t next_id = 1;
    const std::string cfg =
        "seed " + std::to_string(seed) + " V=" +
        std::to_string(p.vcsPerPort) + " speedup=" +
        std::to_string(p.inputSpeedup) + " iters=" +
        std::to_string(p.allocIterations) + " delay=" +
        std::to_string(p.routerDelay);

    for (Cycle now = 0; now < static_cast<Cycle>(cycles); ++now) {
        const std::string where = cfg + " cycle " + std::to_string(now);
        for (int pi = 0; pi < kAllPorts; ++pi) {
            const Port port = portFromIndex(pi);
            for (int v = 0; v < p.vcsPerPort; ++v) {
                // Downstream frees an occupied output VC.
                if (port != Port::Local &&
                    ref.outputVc(port, v).state ==
                        OutputVc::State::Occupied &&
                    rng.bernoulli(credit)) {
                    const int64_t at = static_cast<int64_t>(now) +
                                       rng.uniformInt(-2, 2);
                    const Cycle visible =
                        static_cast<Cycle>(std::max<int64_t>(0, at));
                    router.returnCredit(port, v, visible);
                    ref.returnCredit(port, v, visible);
                }
                const ReferenceAllocator::Vc &vc = ref.inputVc(port, v);
                if (vc.busy && vc.ejecting && rng.bernoulli(eject)) {
                    router.releaseInput(port, v);
                    ref.releaseInput(port, v);
                } else if (!vc.busy && rng.bernoulli(arrive)) {
                    // Mostly unicast, some forks, some ejections.
                    uint8_t mesh = 0;
                    const double kind = rng.uniform();
                    if (kind < 0.6)
                        mesh = static_cast<uint8_t>(
                            1u << rng.uniformInt(0, kMeshPorts - 1));
                    else if (kind < 0.85)
                        mesh = static_cast<uint8_t>(
                            rng.uniformInt(1, 15));
                    const Cycle arrived =
                        now - std::min<Cycle>(
                                  now, static_cast<Cycle>(
                                           rng.uniformInt(0, 3)));
                    router.receive(port, v, makeFlit(next_id++),
                                   arrived, mesh);
                    ref.receive(port, v, arrived, mesh);
                }
            }
        }
        ASSERT_NO_FATAL_FAILURE(
            expectSameState(router, ref, p, where + " (traffic)"));

        ASSERT_EQ(router.allocateVcs(now), ref.allocateVcs(now))
            << where;
        ASSERT_NO_FATAL_FAILURE(
            expectSameState(router, ref, p, where + " (VA)"));

        const auto got = router.allocateSwitch(now);
        const std::vector<SaWinner> want = ref.allocateSwitch(now);
        ASSERT_EQ(got.size(), want.size()) << where;
        for (size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i].inPort, want[i].inPort) << where;
            ASSERT_EQ(got[i].inVc, want[i].inVc) << where;
            ASSERT_EQ(got[i].outPort, want[i].outPort) << where;
            ASSERT_EQ(got[i].outVc, want[i].outVc) << where;
        }
        ASSERT_NO_FATAL_FAILURE(
            expectSameState(router, ref, p, where + " (SA)"));

        // Winners leave; a drained input VC frees at once, as in
        // ElectricalNetwork::handleSaWinners.
        for (const SaWinner &w : want) {
            const bool last = ref.sendBranch(w);
            ASSERT_EQ(router.sendBranch(w).last, last) << where;
            if (last) {
                router.releaseInput(w.inPort, w.inVc);
                ref.releaseInput(w.inPort, w.inVc);
            }
        }
        ASSERT_NO_FATAL_FAILURE(
            expectSameState(router, ref, p, where + " (send)"));
    }
}

TEST(AllocatorDifferential, MaskAllocatorsMatchScanAndSortReference)
{
    const int campaigns = longCampaign() ? 1000 : 120;
    const int cycles = longCampaign() ? 1500 : 300;
    for (int c = 0; c < campaigns; ++c) {
        ASSERT_NO_FATAL_FAILURE(runAllocatorCampaign(
            0x5eed0000u + static_cast<uint64_t>(c), cycles));
    }
}

} // namespace
} // namespace phastlane::electrical
