/**
 * @file
 * The electrical side of a Phastlane router: five buffer queues (N, E,
 * S, W input ports plus the local node queue) and the rotating
 * priority arbiter that re-launches buffered packets (paper Section
 * 2.1.1).
 */

#ifndef PHASTLANE_CORE_ROUTER_HPP
#define PHASTLANE_CORE_ROUTER_HPP

#include <algorithm>
#include <array>
#include <climits>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/control.hpp"
#include "core/packet.hpp"
#include "core/params.hpp"

namespace phastlane::core {

/** State of one buffered packet. */
enum class EntryState : uint8_t {
    /** Waiting for the arbiter (once eligibleAt is reached). */
    Waiting,
    /** Launched optically; the slot is held until the drop-signal
     *  window of the next cycle resolves. */
    Launched,
};

/** One router-buffer entry. */
struct BufferEntry {
    OpticalPacket pkt;
    EntryState state = EntryState::Waiting;

    /** Earliest cycle the arbiter may launch this entry. While the
     *  entry waits, it is also where its losing streak started (see
     *  RouterBuffers::maxConsecutiveLosses()). */
    Cycle eligibleAt = 0;

    /** Completed launch attempts (drives exponential backoff). */
    int attempts = 0;

    /** Insertion order (age) for oldest-first arbitration. */
    uint64_t seq = 0;

    /** Cycle the packet first became launchable from this buffer.
     *  Survives restoreDropped(), so it measures total residence —
     *  the age AdmissionPolicy::AgeBoost promotes on. */
    Cycle enqueuedAt = 0;

    /** Desired output port. A buffered packet's residence router and
     *  destination never change, so the XY first hop is classified
     *  once, by the first arbitrate() after the entry arrives. */
    Port desired = Port::Local;
};

/** Identifies a buffer entry for launch-outcome resolution. */
struct EntryRef {
    NodeId router = kInvalidNode;
    Port queue = Port::Local;
    PacketId packet = 0;
};

/** One arbitration winner: the entry, its output port, and the input
 *  queue it sits in (so launch-outcome resolution can go straight to
 *  that queue instead of scanning all five). */
struct LaunchPick {
    BufferEntry *entry;
    Port out;
    Port queue;
};

/**
 * Caller-owned arbitration scratch: the launch list plus the
 * oldest-first candidate buffer, reused across routers and cycles so
 * the per-router arbitrate() call allocates nothing in steady state.
 */
struct ArbitrationScratch {
    std::vector<LaunchPick> launches;
    std::vector<std::pair<uint64_t, std::pair<BufferEntry *, Port>>>
        candidates;
};

/**
 * Buffer queues and rotating arbiter of one router.
 */
class alignas(64) RouterBuffers
{
  public:
    RouterBuffers(NodeId self, const PhastlaneParams &params);

    NodeId self() const { return self_; }

    /** True when queue @p q can accept another packet (inline: this
     *  runs per arrival in the wavefront hot path). */
    bool hasSpace(Port q) const { return freeSlots(q) > 0; }

    /** Free slots in queue @p q (INT_MAX when infinite). */
    int freeSlots(Port q) const
    {
        if (capacity_ <= 0)
            return INT_MAX;
        const int occ = static_cast<int>(queues_[portIndex(q)].size());
        if (!sharedPool_)
            return capacity_ - occ;
        return sharedPoolFreeSlots(occ);
    }

    /** Current occupancy of queue @p q. */
    size_t occupancy(Port q) const
    {
        return queues_[portIndex(q)].size();
    }

    /** Total occupancy across all five queues. */
    size_t totalOccupancy() const { return total_; }

    /**
     * Insert a received packet into queue @p q; the caller must have
     * checked hasSpace(). @p eligible_at is the first cycle the
     * arbiter may re-launch it.
     */
    void push(Port q, OpticalPacket pkt, Cycle eligible_at);

    /**
     * Allocate an empty entry at the tail of queue @p q (same
     * bookkeeping as push()) and return it for the caller to fill its
     * pkt in place — the NIC-transfer path moves one packet instead
     * of a packet plus a whole BufferEntry.
     */
    BufferEntry &emplaceEntry(Port q, Cycle eligible_at);

    /**
     * Launch arbitration: pick up to four launch candidates for
     * distinct output ports among the Waiting entries whose
     * eligibleAt has passed, using the configured policy (rotating
     * priority over the queues, or globally oldest-first).
     * @p desired_port yields the output port an entry needs from this
     * router; it is called once per entry, for the entries that
     * arrived since the last arbitration that did work.
     *
     * Selected entries are flipped to Launched. Returns references to
     * the selected entries paired with their output port.
     *
     * Under rotating priority queue now mod 5 (kAllPortList order)
     * leads, so the order does not depend on which earlier cycles
     * called arbitrate().
     *
     * Precondition: calls come at strictly increasing @p now, and at
     * every cycle at or after horizon(). step() skips a router while
     * its horizon lies in the future: such a call would launch
     * nothing, and the priority order depends on the cycle alone, so
     * the skip changes no result. The starvation streaks are counted
     * in closed form from this (see maxConsecutiveLosses()); a
     * skipped router's last-arbitration cycle goes stale, which the
     * getters do not see, because every Waiting entry there becomes
     * eligible after the skipped cycles.
     */
    template <typename DesiredPortFn>
    std::vector<std::pair<BufferEntry *, Port>>
    arbitrate(Cycle now, DesiredPortFn &&desired_port);

    /**
     * Allocation-free arbitrate: results land in
     * @p scratch.launches (cleared first). A call before horizon()
     * returns at once.
     *
     * Under rotating priority the cost follows launches, not buffered
     * entries: per-(queue, port) counts of Waiting entries say which
     * free ports a queue can still win, and its scan stops once each
     * of those ports is resolved, its budget is spent, or the token
     * bucket runs dry (DESIGN.md §3.7).
     */
    template <typename DesiredPortFn>
    void arbitrate(Cycle now, DesiredPortFn &&desired_port,
                   ArbitrationScratch &scratch);

    /** True when no queue holds any entry (O(1)). */
    bool empty() const { return total_ == 0; }

    /**
     * The launch horizon: a lower bound on the first cycle at which
     * arbitrate() can launch anything here, kNeverCycle while no
     * entry waits (in particular while the router is empty). Pushes
     * and restored drops lower it; each arbitration recomputes it.
     * After an arbitration that stopped scanning early it may be any
     * cycle up to now + 1: the next cycle then arbitrates, at worst
     * with nothing to launch.
     */
    Cycle horizon() const { return nextEligible_; }

    /**
     * Longest losing streak seen on any queue (starvation indicator;
     * DESIGN.md §14): arbitration rounds a packet was eligible but not
     * selected, since it became launchable here. Under the
     * arbitrate() precondition a Waiting entry has lost every round
     * from its eligibleAt on, so its streak is the closed form
     * (last arbitration) - eligibleAt + 1; a launch closes it at
     * now - eligibleAt. O(buffered entries): the open streaks are
     * added here, not counted per round.
     */
    uint64_t maxConsecutiveLosses() const;

    /** Largest streak on the local queue only — i.e. for packets
     *  originated by this router's node (the per-source view). */
    uint64_t maxConsecutiveLossesLocal() const;

  private:
    /** DAMQ shared-pool slot accounting (the uncommon configuration;
     *  kept out of line). */
    int sharedPoolFreeSlots(int occ) const;

  public:

    /** Resolve a prior launch: release the entry on success. */
    void releaseLaunched(PacketId id);

    /** Queue-targeted release: the caller learned the source queue at
     *  launch time, so only that deque is searched. */
    void releaseLaunched(Port q, PacketId id);

    /**
     * Resolve a prior launch that was dropped downstream: the entry
     * goes back to Waiting, eligible again at @p eligible_at. The
     * launch served its taps in the entry's packet in place, so the
     * packet already carries the (possibly tap-reduced) retry state.
     */
    void restoreDropped(PacketId id, Cycle eligible_at);

    /** restoreDropped() for the Launched @p entry of queue @p q. */
    void restoreDropped(Port q, BufferEntry &entry, Cycle eligible_at);

    /** Find the queue holding the Launched entry for @p id. */
    BufferEntry *findLaunched(PacketId id, Port *queue_out = nullptr);

    /** Find the Launched entry for @p id within queue @p q only. */
    BufferEntry *findLaunchedIn(Port q, PacketId id);

  private:
    // The horizon step() reads for every router every cycle sits in
    // the first cache line, ahead of the queues: with the class
    // aligned to a line, a mostly idle mesh pays one line per router.
    NodeId self_;
    int capacity_; // <= 0: infinite
    int launchesPerQueue_;
    bool sharedPool_;
    BufferArbitration policy_;
    size_t total_ = 0;
    /** The launch horizon (see horizon()): a lower bound on the
     *  earliest eligibleAt among Waiting entries; kNeverCycle when
     *  every entry is Launched (or none exist). */
    Cycle nextEligible_ = kNeverCycle;
    /** One past the cycle of the last arbitrate() call. */
    Cycle arbCycle_ = 0;
    /** Queues holding unclassified entries, one bit per queue. */
    unsigned unclassified_ = 0;
    uint64_t nextSeq_ = 0;
    std::array<std::deque<BufferEntry>, kAllPorts> queues_;

    /** Waiting entries per (queue, desired port) among the classified
     *  ones; the Local column counts entries no port can serve. Per
     *  queue, also their total and the ports with a nonzero count. */
    std::array<std::array<uint32_t, kAllPorts>, kAllPorts> waiting_{};
    std::array<uint32_t, kAllPorts> waitingTotal_{};
    std::array<uint8_t, kAllPorts> waitingPorts_{};
    /** Queues with a nonzero waitingTotal_, one bit per queue. */
    unsigned waitingQueues_ = 0;
    /** Per queue, the length of the classified prefix. Entries arrive
     *  at the tail and only Launched (hence classified) ones are
     *  erased, so the unclassified entries are always a suffix. */
    std::array<size_t, kAllPorts> classified_{};

    /** Admission policy (DESIGN.md §14): TokenBucket throttles
     *  local-queue (source-originated) launches through bucket_;
     *  transit queues are never throttled. The state is per router,
     *  so the consume() sequence is exactly the arbitration scan
     *  order whichever engine steps the router. */
    AdmissionPolicy admission_ = AdmissionPolicy::None;
    int admissionBurst_ = 0;
    int admissionPeriod_ = 1;
    AdmissionBucket bucket_;

    /** Longest closed streak (ended by a launch), local queue and any
     *  queue; the getters add the open ones. */
    uint64_t maxConsecLossLocal_ = 0;
    uint64_t maxConsecLossAll_ = 0;

    /** Record that a Waiting entry may become launchable at @p c. */
    void noteEligible(Cycle c)
    {
        nextEligible_ = std::min(nextEligible_, c);
    }

    /** A Launched or new entry turns Waiting at @p eligible_at. An
     *  eligibleAt already past is moved up to the next arbitration, so
     *  its closed-form streak counts only rounds the entry took part
     *  in. */
    void makeWaiting(BufferEntry &entry, Cycle eligible_at)
    {
        entry.state = EntryState::Waiting;
        entry.eligibleAt = std::max(eligible_at, arbCycle_);
        noteEligible(entry.eligibleAt);
    }

    /** Count a classified entry of queue @p qi that turned Waiting. */
    void countWaiting(int qi, Port desired)
    {
        const int p = portIndex(desired);
        if (waiting_[qi][p]++ == 0)
            waitingPorts_[qi] |= static_cast<uint8_t>(1u << p);
        if (waitingTotal_[qi]++ == 0)
            waitingQueues_ |= 1u << qi;
    }

    /** Flip a selected entry of queue @p qi to Launched and close its
     *  streak. */
    void select(int qi, BufferEntry &entry, Cycle now)
    {
        entry.state = EntryState::Launched;
        const int p = portIndex(entry.desired);
        if (--waiting_[qi][p] == 0)
            waitingPorts_[qi] &= static_cast<uint8_t>(~(1u << p));
        if (--waitingTotal_[qi] == 0)
            waitingQueues_ &= ~(1u << qi);
        const uint64_t streak = now - entry.eligibleAt;
        maxConsecLossAll_ = std::max(maxConsecLossAll_, streak);
        if (qi == portIndex(Port::Local))
            maxConsecLossLocal_ = std::max(maxConsecLossLocal_, streak);
    }

    /** Longest open streak among queue @p qi's Waiting entries. */
    uint64_t openStreak(int qi) const;

    /** Erase the Launched entry at @p it of queue @p qi. */
    void erase(int qi, std::deque<BufferEntry>::iterator it);

    /** Classify the entries that arrived since the last arbitration:
     *  desired port, and the per-(queue, port) Waiting counts. */
    template <typename DesiredPortFn>
    void classifyArrivals(DesiredPortFn &desired_port);

    /** One queue of the rotating scan; see arbitrate(). */
    void scanQueue(int qi, Cycle now, unsigned &free_ports,
                   std::vector<LaunchPick> &launches,
                   Cycle &next_eligible);
};

template <typename DesiredPortFn>
void
RouterBuffers::classifyArrivals(DesiredPortFn &desired_port)
{
    for (unsigned m = unclassified_; m != 0; m &= m - 1) {
        const int qi = __builtin_ctz(m);
        auto &queue = queues_[qi];
        for (auto it = queue.begin() +
                       static_cast<std::ptrdiff_t>(classified_[qi]);
             it != queue.end(); ++it) {
            it->desired = desired_port(it->pkt);
            countWaiting(qi, it->desired);
        }
        classified_[qi] = queue.size();
    }
    unclassified_ = 0;
}

template <typename DesiredPortFn>
void
RouterBuffers::arbitrate(Cycle now, DesiredPortFn &&desired_port,
                         ArbitrationScratch &scratch)
{
    auto &launches = scratch.launches;
    launches.clear();
    // Nothing waits or everything still sits in backoff (an empty
    // router's horizon is kNeverCycle).
    if (now < nextEligible_) {
        arbCycle_ = now + 1;
        return;
    }
    classifyArrivals(desired_port);
    Cycle next_eligible = kNeverCycle;

    if (policy_ == BufferArbitration::OldestFirst) {
        // Globally oldest eligible entry first (extension).
        auto &candidates = scratch.candidates;
        candidates.clear();
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
        bool port_taken[kMeshPorts] = {false, false, false, false};
        int budget = 4; // one launch per output port at most
        for (auto &[seq, cand] : candidates) {
            BufferEntry &entry = *cand.first;
            const Port q = cand.second;
            const Port out = entry.desired;
            // The admission token is consumed last, only when the
            // launch would otherwise proceed — a blocked port must
            // not drain the bucket.
            if (budget > 0 && out != Port::Local &&
                !port_taken[portIndex(out)] &&
                (admission_ != AdmissionPolicy::TokenBucket ||
                 q != Port::Local ||
                 bucket_.consume(admissionBurst_, admissionPeriod_,
                                 now))) {
                port_taken[portIndex(out)] = true;
                select(portIndex(q), entry, now);
                launches.push_back(LaunchPick{&entry, out, q});
                --budget;
            } else {
                next_eligible = std::min(next_eligible, entry.eligibleAt);
            }
        }
    } else {
        // Rotating priority over the five queues, led by queue
        // now mod 5; within a queue, oldest-first; at most
        // launchesPerQueue_ per queue. Only queues with Waiting
        // entries are visited, in priority order: bit k of the
        // rotated mask is queue rotate + k.
        const int rotate = static_cast<int>(now % kAllPorts);
        const unsigned all = (1u << kAllPorts) - 1;
        unsigned order = ((waitingQueues_ >> rotate) |
                          (waitingQueues_ << (kAllPorts - rotate))) &
                         all;
        unsigned free_ports = (1u << kMeshPorts) - 1;
        for (; order != 0 && free_ports != 0; order &= order - 1) {
            const int k = rotate + __builtin_ctz(order);
            scanQueue(k < kAllPorts ? k : k - kAllPorts, now,
                      free_ports, launches, next_eligible);
        }
        // Queues left unvisited once every port is taken keep the
        // router hot for the next cycle, as an early stop does.
        if (order != 0)
            next_eligible = std::min(next_eligible, now + 1);
    }
    arbCycle_ = now + 1;
    nextEligible_ = next_eligible;
}

template <typename DesiredPortFn>
std::vector<std::pair<BufferEntry *, Port>>
RouterBuffers::arbitrate(Cycle now, DesiredPortFn &&desired_port)
{
    ArbitrationScratch scratch;
    arbitrate(now, std::forward<DesiredPortFn>(desired_port), scratch);
    std::vector<std::pair<BufferEntry *, Port>> out;
    out.reserve(scratch.launches.size());
    for (const auto &pick : scratch.launches)
        out.emplace_back(pick.entry, pick.out);
    return out;
}

} // namespace phastlane::core

#endif // PHASTLANE_CORE_ROUTER_HPP
