/**
 * @file
 * Phastlane-internal packet state: the immutable message plus the
 * mutable delivery bookkeeping a branch carries through buffering and
 * retransmission.
 */

#ifndef PHASTLANE_CORE_PACKET_HPP
#define PHASTLANE_CORE_PACKET_HPP

#include <vector>

#include "net/packet.hpp"

namespace phastlane::core {

/**
 * One optical packet: a unicast message or one multicast branch of a
 * broadcast.
 */
struct OpticalPacket {
    Packet base;

    /** Network-unique id of this packet/branch instance (branches of
     *  one broadcast share base.id but not branchId). */
    uint64_t branchId = 0;

    /** Final destination of this packet/branch. */
    NodeId finalDst = kInvalidNode;

    /** True for a multicast branch. */
    bool multicast = false;

    /**
     * Multicast delivery targets in path order (the last one is
     * finalDst). Served taps are skipped via tapCursor rather than
     * erased (an O(n) front-erase on the hot path), so after a drop
     * the retransmission covers exactly the unserved nodes (the paper
     * clears the Multicast bits of nodes identified via the dropped
     * packet's return-path Node ID).
     */
    std::vector<NodeId> taps;

    /** Index of the first unserved tap in taps. */
    uint32_t tapCursor = 0;

    /**
     * Duplicate-suppression watermark (DESIGN.md §10). When a
     * Packet-Dropped signal arrives with a corrupted dropper Node ID
     * the source cannot clear the served Multicast bits, so the full
     * branch is retransmitted; taps below this index were already
     * served by an earlier attempt and receivers suppress them as
     * duplicates instead of delivering twice. Always 0 when
     * dropperIdCorruptRate == 0.
     */
    uint32_t dedupBelow = 0;

    /** True when every tap has been served. */
    bool tapsDone() const { return tapCursor >= taps.size(); }

    /** The next unserved tap; requires !tapsDone(). */
    NodeId nextTap() const { return taps[tapCursor]; }

    /** Mark the next tap served. */
    void serveTap() { ++tapCursor; }

    /** AgeBoost promotion (DESIGN.md §14): recomputed at every launch
     *  from the buffer entry's residence age; while set, the wavefront
     *  ranks this packet as if it were travelling straight, so starved
     *  turning packets stop losing every optical arbitration. */
    bool boosted = false;

    /** Cycle the message entered the source NIC queue. */
    Cycle acceptedAt = 0;

    /** Cycle of the first optical launch (kNeverCycle until then). */
    Cycle firstInjectedAt = kNeverCycle;
};

} // namespace phastlane::core

#endif // PHASTLANE_CORE_PACKET_HPP
