/**
 * @file
 * The Phastlane optical network: a 2D mesh of optical crossbar routers
 * with electrical buffering, drop signaling, interim-node pipelining
 * and multicast (paper Section 2).
 *
 * Cycle structure of step() (DESIGN.md 3.1):
 *   1. resolve the previous cycle's launch outcomes (drop signals
 *      arrive one cycle after transmission);
 *   2. move NIC packets into the routers' local queues;
 *   3. every router's rotating arbiter launches buffered packets,
 *      claiming output ports;
 *   4. the optical wavefront propagates: packets cross up to
 *      maxHopsPerCycle routers, winning or losing port claims, being
 *      tapped, interim-accepted, buffered, delivered, or dropped.
 * Phases 2 and 3 visit only the non-empty NICs and the routers whose
 * launch horizon has come (DESIGN.md 3.9).
 */

#ifndef PHASTLANE_CORE_NETWORK_HPP
#define PHASTLANE_CORE_NETWORK_HPP

#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/bitplane.hpp"
#include "core/control.hpp"
#include "core/events.hpp"
#include "core/nic.hpp"
#include "core/observer.hpp"
#include "core/params.hpp"
#include "core/return_path.hpp"
#include "core/router.hpp"
#include "net/network.hpp"

namespace phastlane::core {

/** Phastlane-specific statistics beyond the common counters. */
struct PhastlaneCounters {
    uint64_t drops = 0;
    uint64_t retransmissions = 0;
    uint64_t blockedBuffered = 0;  ///< packets received due to blocking
    uint64_t interimAccepts = 0;   ///< interim-node receptions
    uint64_t launches = 0;         ///< all optical launches
};

/**
 * The Phastlane network (Network implementation).
 */
class PhastlaneNetwork : public Network
{
  public:
    explicit PhastlaneNetwork(const PhastlaneParams &params);

    // Network interface.
    int nodeCount() const override { return mesh_.nodeCount(); }
    Cycle now() const override { return cycle_; }
    bool nicHasSpace(NodeId n) const override;
    /** Network::inject(), except that a broadcast with more branches
     *  than the NIC has entries, which no NIC state could accept, is
     *  fatal() (DESIGN.md §12). */
    bool inject(const Packet &pkt) override;
    void step() override;
    const std::vector<Delivery> &deliveries() const override
    {
        return deliveries_;
    }
    uint64_t inFlight() const override { return outstanding_; }
    const NetworkCounters &counters() const override
    {
        return counters_;
    }

    const PhastlaneParams &params() const { return params_; }
    const MeshTopology &mesh() const override { return mesh_; }
    const PhastlaneCounters &phastlaneCounters() const { return pl_; }
    const OpticalEvents &events() const { return events_; }

    /** Total packets currently held in router buffers. */
    uint64_t bufferedPackets() const;

    /** Total packets currently queued in the NICs. */
    uint64_t nicQueuedPackets() const;

    /** Buffer state of router @p n (read-only; for checkers). */
    const RouterBuffers &routerBuffers(NodeId n) const
    {
        return routers_[static_cast<size_t>(n)];
    }

    /** Longest losing arbitration streak of source @p n's packets
     *  (its router's local queue) — the per-source starvation counter
     *  (DESIGN.md §14). */
    uint64_t sourceStarvation(NodeId n) const
    {
        return routers_[static_cast<size_t>(n)]
            .maxConsecutiveLossesLocal();
    }

    /** Longest losing streak on any queue of any router. */
    uint64_t maxStarvation() const
    {
        uint64_t worst = 0;
        for (const auto &rb : routers_)
            worst = std::max(worst, rb.maxConsecutiveLosses());
        return worst;
    }

    /**
     * Attach (or detach with nullptr) a per-cycle observer. At most
     * one observer is supported; the caller keeps ownership and must
     * outlive the network or detach first.
     */
    void setObserver(StepObserver *obs) { observer_ = obs; }

    /**
     * Cumulative optical traversals per (router, mesh output port),
     * indexed router * 4 + portIndex; feeds utilization reports.
     */
    const std::vector<uint64_t> &portClaimCounts() const
    {
        return portClaimCounts_;
    }

    /**
     * True when router @p n was drawn as hard-failed at construction
     * (faults.routerFailRate; DESIGN.md §10). Arrivals at a failed
     * router black-hole; messages injected there are accepted and
     * immediately accounted lost.
     */
    bool routerFailed(NodeId n) const
    {
        return failedRouters_[static_cast<size_t>(n)] != 0;
    }

  private:
    /**
     * A packet in optical transit within the current cycle. It points
     * at its holder entry's packet instead of copying it: deque
     * push_back keeps references, and no entry is erased before the
     * next cycle's resolveOutcomes(), so the address is stable for
     * the flight's life. Taps are served in that packet in place.
     */
    struct Flight {
        OpticalPacket *pkt = nullptr;
        ControlProgram prog;
        NodeId at = kInvalidNode; ///< router just arrived at
        Port inPort = Port::Local;
        int hops = 0;            ///< hops taken this cycle
        NodeId launchRouter = kInvalidNode;
        EntryRef holder;         ///< buffer entry responsible for it
        uint32_t launchCursor = 0; ///< pkt->tapCursor at launch
        /** Reverse connections latched behind the packet, for the
         *  drop-signal return path (Section 2.1.2). Inline: a flight
         *  crosses at most one router per control group, so the path
         *  cannot outgrow the program, and flights are rebuilt every
         *  cycle — heap-backed paths dominated step()'s allocations. */
        std::array<ReturnHop, ControlProgram::kMaxGroups> path;
        uint8_t pathLen = 0;
        bool active = true;

        void recordHop(const ReturnHop &h)
        {
            PL_ASSERT(pathLen < ControlProgram::kMaxGroups,
                      "return path outgrew the control program");
            path[pathLen++] = h;
        }
    };

    /** Deferred resolution of a dropped launch (applied next cycle).
     *  The holder's packet already carries the tap-reduced state; a
     *  corrupted dropper ID rewinds it to the launch-time cursor.
     *  Successes need only the EntryRef and live in their own list. */
    struct LaunchOutcome {
        EntryRef ref;
        uint32_t launchCursor = 0;
    };

    /** A pass-through port request during one wavefront sub-step. */
    struct PassRequest {
        size_t flight = 0;
        NodeId router = kInvalidNode;
        Port out = Port::Local;
        bool straight = false;
        /** AgeBoost promotion: ranks as straight (DESIGN.md §14). */
        bool boosted = false;
    };

    /** One pass claim in a precomputed global-priority itinerary. */
    struct ItineraryClaim {
        NodeId router;
        Port out;
        bool straight;
        bool boosted;
        Port inPort;
    };

    /** A flight's full intra-cycle route under global priority. */
    struct Itinerary {
        std::vector<ItineraryClaim> claims; ///< pass claims in order
        std::vector<NodeId> entered;
        std::vector<Port> inPorts;
        size_t stop = 0; ///< index in entered of the local router
    };

    Port desiredPort(NodeId at, const OpticalPacket &pkt) const;
    ControlProgram buildProgram(NodeId from,
                                const OpticalPacket &pkt) const;

    void resolveOutcomes();
    void nicToLocalQueues();
    void launchPhase();
    void propagateSubstepFcfs(std::vector<Flight> &flights);
    void propagateBitplane(std::vector<Flight> &flights);
    void propagateGlobalPriority(std::vector<Flight> &flights);

    /** Arrival handling + pass-request collection shared by the FCFS
     *  engines: one wavefront sub-step's phase A. */
    void collectPassRequests(std::vector<Flight> &flights,
                             const std::vector<size_t> &active,
                             std::vector<PassRequest> &requests);

    /** Apply a pass-claim win: latch the return hop, advance the
     *  flight one router, and queue it for the next sub-step. */
    void applyPassWin(std::vector<Flight> &flights, size_t flight_idx,
                      NodeId router, Port out,
                      std::vector<size_t> &next);

    /** Handle arrival-side actions; returns true when the flight
     *  terminated at this router (delivered/buffered/dropped). */
    bool handleArrival(Flight &f);

    /** Receive a blocked/interim packet into the input buffer or drop
     *  it; terminates the flight either way. */
    void receiveOrDrop(Flight &f, bool interim);

    void deliver(const OpticalPacket &pkt, NodeId node);
    Cycle dropRetryCycle(int attempts);

    /** Serve the tap at f.at: duplicate-suppress, fault-miss, or
     *  deliver; always advances the tap cursor. */
    void serveTapAt(Flight &f);

    /** Delivery units of @p pkt not yet delivered (1 for unicast;
     *  unserved, non-suppressed taps for a multicast branch). */
    int unitsOutstanding(const OpticalPacket &pkt) const;

    /** Account @p units of @p pkt permanently lost to a fault. */
    void loseUnits(const OpticalPacket &pkt, NodeId router, int units,
                   LostCause cause);

    /** Black-hole an arrival at hard-failed router f.at; terminates
     *  the flight (holder slot frees as a success next cycle). */
    void deadRouterArrival(Flight &f);

    bool claimed(NodeId router, Port out) const;
    void setClaim(NodeId router, Port out);

    /**
     * Per-cycle scratch for the step() hot path: the claim planes,
     * flight list, sub-step work lists, and the flat (router, port)
     * claim-resolution / request-chain tables of the bit-plane engine
     * (DESIGN.md §11). Everything here is dead between cycles: it is
     * either cleared at cycle start or guarded by an epoch tag. It is
     * cleared, never shrunk, so it allocates nothing in steady state;
     * the router buffers' deques still allocate blocks as they grow
     * (DESIGN.md §6).
     */
    struct StepScratch {
        explicit StepScratch(int node_count);

        /** Per-cycle (router, mesh port) claim bits, one plane per
         *  port — shared by every wavefront model. */
        PortPlanes claims;
        std::vector<Flight> flights;
        std::vector<size_t> active;
        std::vector<size_t> nextActive;
        std::vector<PassRequest> requests;
        std::vector<uint32_t> order;
        std::vector<Itinerary> its;
        std::vector<size_t> blocked;
        ArbitrationScratch arb;
        std::vector<uint64_t> bestRank;   ///< per router * kMeshPorts
        std::vector<uint32_t> bestFlight; ///< winner per flat port
        std::vector<uint64_t> bestEpoch;  ///< validity tag
        uint64_t resolveEpoch = 0;

        // Bit-plane engine state (DESIGN.md §11): request presence and
        // multiplicity planes, the uncontested-grant plane, and the
        // epoch-tagged per-(router, port) request chains that preserve
        // arrival order for contested ports.
        PortPlanes reqOnce;
        PortPlanes reqMulti;
        PortPlanes reqWin;
        std::vector<uint32_t> reqHead;  ///< first request per flat port
        std::vector<uint32_t> reqTail;  ///< last request per flat port
        std::vector<uint64_t> reqEpoch; ///< validity tag for head/tail
        std::vector<uint32_t> reqNext;  ///< chain link per request
        uint64_t reqEpochCur = 0;
    };

    PhastlaneParams params_;
    MeshTopology mesh_;
    Rng rng_;
    Cycle cycle_ = 0;

    std::vector<OpticalNic> nics_;
    /** One bit per node whose NIC holds packets: inject() sets it and
     *  the NIC transfer clears it once the NIC drains, so that phase
     *  walks only the non-empty NICs. */
    std::vector<uint64_t> nicOccupied_;
    std::vector<RouterBuffers> routers_;
    std::vector<uint8_t> failedRouters_; ///< drawn once at construction
    ReturnPathRegistry returnPaths_;
    /** Bit-plane mesh geometry for the word-parallel engine. */
    BitPlaneMesh bitMesh_;
    std::vector<uint64_t> portClaimCounts_; ///< cumulative

    /** Launches whose drop-signal window passed clean: the holder
     *  frees the slot next cycle. Releases draw no randomness, so
     *  resolving them before the drops preserves the RNG stream. */
    std::vector<EntryRef> pendingReleases_;
    std::vector<LaunchOutcome> pendingDrops_;
    std::vector<Delivery> deliveries_;

    StepScratch scratch_;

    NetworkCounters counters_;
    PhastlaneCounters pl_;
    OpticalEvents events_;
    StepObserver *observer_ = nullptr;
    uint64_t outstanding_ = 0;
    uint64_t nextBranchId_ = 1;
};

} // namespace phastlane::core

#endif // PHASTLANE_CORE_NETWORK_HPP
