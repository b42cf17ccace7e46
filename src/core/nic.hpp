/**
 * @file
 * The Phastlane network-interface controller: a finite queue of
 * outbound optical packets. Broadcasts are expanded into their
 * multicast branches at acceptance time (paper Section 2.1.4).
 */

#ifndef PHASTLANE_CORE_NIC_HPP
#define PHASTLANE_CORE_NIC_HPP

#include <deque>

#include "common/geometry.hpp"
#include "core/control.hpp"
#include "core/packet.hpp"
#include "core/params.hpp"

namespace phastlane::core {

/**
 * Outbound NIC queue of one node (Table 1: 50 entries).
 */
class OpticalNic
{
  public:
    OpticalNic(NodeId self, const PhastlaneParams &params,
               const MeshTopology &mesh);

    NodeId self() const { return self_; }

    /** True when @p pkt (all branches of a broadcast) fits now.
     *  Inline with a precomputed branch count: sim drivers probe this
     *  per node per cycle, and re-deriving the broadcast split (with
     *  its per-branch tap vectors) on every probe dominated the
     *  injection path. */
    bool hasSpaceFor(const Packet &pkt) const
    {
        const size_t needed = pkt.broadcast ? broadcastBranches_ : 1;
        return queue_.size() + needed <= capacity_;
    }

    /**
     * Accept a message: expand and enqueue its branch packets, drawing
     * branch ids from @p next_branch_id. The caller must have checked
     * hasSpaceFor().
     */
    void accept(const Packet &pkt, Cycle now, uint64_t &next_branch_id);

    bool empty() const { return queue_.empty(); }
    size_t occupancy() const { return queue_.size(); }
    size_t capacity() const { return capacity_; }

    /** Entries a broadcast from this node takes: its branch count. */
    size_t broadcastBranches() const { return broadcastBranches_; }

    /** Next branch packet to hand to the router's local queue. */
    const OpticalPacket &head() const;
    OpticalPacket popHead();

    /** Move the head packet into @p dst and pop it (the allocation-
     *  light form of popHead() for the per-cycle transfer loop). */
    void popHeadInto(OpticalPacket &dst);

  private:
    NodeId self_;
    size_t capacity_;
    /** Branch count of a broadcast from this node (geometry-fixed). */
    size_t broadcastBranches_;
    const MeshTopology &mesh_;
    std::deque<OpticalPacket> queue_;
};

} // namespace phastlane::core

#endif // PHASTLANE_CORE_NIC_HPP
