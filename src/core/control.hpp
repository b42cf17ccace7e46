/**
 * @file
 * Predecoded source-routing control bits (paper Section 2.1, Fig 3).
 *
 * Every Phastlane packet carries, on the C0/C1 control waveguides, one
 * five-bit group -- Straight, Left, Right, Local, Multicast -- for
 * each of up to 14 routers it may traverse. Group 1 drives the current
 * router's resonators directly; on exit the remaining groups are
 * frequency translated one position forward and the C1 waveguide
 * shifts into the C0 position, so Group 1 always describes the router
 * being entered.
 *
 * Semantics per group at the router it addresses:
 *  - exactly one of Straight/Left/Right selects the output port for a
 *    pass-through (also registered to build the drop-signal return
 *    path);
 *  - Local stops optical transit: the packet is received into the
 *    input-port buffer (interim node) unless it is the last group, in
 *    which case it is the final destination;
 *  - Multicast taps a fraction of the optical power to deliver a copy
 *    to this router's node while the packet continues (or, combined
 *    with Local, delivers and stops).
 */

#ifndef PHASTLANE_CORE_CONTROL_HPP
#define PHASTLANE_CORE_CONTROL_HPP

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "common/log.hpp"
#include "common/types.hpp"

namespace phastlane::core {

/** One five-bit per-router control group. */
struct ControlGroup {
    bool straight = false;
    bool left = false;
    bool right = false;
    bool local = false;
    bool multicast = false;

    /** True when exactly one direction bit is set. */
    bool hasDirection() const
    {
        return (straight ? 1 : 0) + (left ? 1 : 0) + (right ? 1 : 0) == 1;
    }

    /** The encoded turn; requires hasDirection(). */
    Turn turn() const
    {
        PL_ASSERT(hasDirection(), "control group has no unique direction");
        if (straight)
            return Turn::Straight;
        if (left)
            return Turn::Left;
        return Turn::Right;
    }

    /** Set the direction bit for @p t (clearing the others). */
    void setTurn(Turn t);

    /** Pack into the low five bits (S,L,R,Local,Mcast = bits 0..4). */
    uint8_t pack() const;

    /** Inverse of pack(). */
    static ControlGroup unpack(uint8_t bits);

    bool operator==(const ControlGroup &) const = default;
};

/**
 * The full route program of a packet: Group 1 first.
 *
 * Stored as five 16-bit planes, one per control bit, where bit i
 * belongs to group i, plus a size and a cursor: 12 bytes, built in
 * closed form at every launch and carried inline by each Flight
 * (DESIGN.md §3.8).
 */
class ControlProgram
{
  public:
    /** C0+C1 hold 14 groups of 5 bits (70 control bits, Table 1). */
    static constexpr int kMaxGroups = 14;

    /** One plane per control bit, in ControlGroup::pack() order. */
    enum Plane : uint8_t { Straight, Left, Right, Local, Multicast,
                           kPlanes };
    using Planes = std::array<uint16_t, kPlanes>;

    ControlProgram() = default;

    /** A program of @p size groups whose plane bit i is group i;
     *  fatal() beyond kMaxGroups. */
    ControlProgram(const Planes &planes, size_t size);

    /** Append a group; fatal() beyond kMaxGroups. */
    void append(const ControlGroup &g);

    bool empty() const { return cursor_ >= size_; }

    /** Groups not yet consumed. */
    size_t remaining() const { return size_ - cursor_; }

    // front()/group()/translate() run once per router crossing in the
    // wavefront hot path; inline definitions keep them call-free.

    /** Group 1: the group for the router being entered next. */
    ControlGroup front() const
    {
        PL_ASSERT(!empty(), "reading Group 1 of an empty control "
                            "program");
        return at(cursor_);
    }

    /** Group @p i (0 = Group 1) among the remaining groups. */
    ControlGroup group(size_t i) const
    {
        PL_ASSERT(cursor_ + i < size_,
                  "control group index out of range");
        return at(cursor_ + i);
    }

    /**
     * Frequency translation + waveguide shift on router exit/receive:
     * consume Group 1, promoting Groups 2..n.
     */
    void translate()
    {
        PL_ASSERT(!empty(), "translating an empty control program");
        ++cursor_;
    }

    /** Debug rendering, e.g. "[E][S][S][L*]". */
    std::string toString() const;

  private:
    ControlGroup at(size_t bit) const
    {
        const auto on = [&](Plane p) {
            return ((planes_[p] >> bit) & 1u) != 0;
        };
        ControlGroup g;
        g.straight = on(Straight);
        g.left = on(Left);
        g.right = on(Right);
        g.local = on(Local);
        g.multicast = on(Multicast);
        return g;
    }

    Planes planes_{};
    uint8_t size_ = 0;
    uint8_t cursor_ = 0;
};

/**
 * Hops a freshly launched packet covers before its first stop (interim
 * or final) on a route of @p route_hops routers under the @p max_hops
 * per-cycle limit and the kMaxGroups program budget.
 *
 * Routes that fit the budget behave exactly as in the paper: a stop
 * every max_hops routers, or at the destination. A longer route's
 * program is truncated at kMaxGroups groups with a forced interim stop
 * on its last-but-one group, so the stop spacing is additionally
 * capped at kMaxGroups - 1 (the final group must remain, or the
 * interim would be mistaken for a destination). The ReferenceNetwork
 * oracle uses this same function to stay in lockstep.
 */
constexpr size_t
programStopHops(size_t route_hops, int max_hops)
{
    const size_t mh = static_cast<size_t>(max_hops);
    if (route_hops <= static_cast<size_t>(ControlProgram::kMaxGroups))
        return route_hops < mh ? route_hops : mh;
    const size_t cap =
        static_cast<size_t>(ControlProgram::kMaxGroups - 1);
    return mh < cap ? mh : cap;
}

/**
 * One branch of a broadcast: the nodes that must receive a copy, in
 * path order. The last tap is the branch's final destination.
 */
struct MulticastBranch {
    /** Delivery targets in path order (never contains the source). */
    std::vector<NodeId> taps;

    NodeId finalDst() const { return taps.back(); }
};

/**
 * Build the control program for a unicast transmission from @p from to
 * @p dst over the dimension-order route, inserting interim-node Local
 * bits every @p max_hops routers (paper Section 2.1.3). O(1): the
 * program is a closed-form function of the two endpoints and the hop
 * limit (DESIGN.md §3.8).
 *
 * @p from may be an intermediate router re-launching a buffered
 * packet; the rebuilt program naturally bypasses stale interim nodes.
 */
ControlProgram buildUnicastProgram(const MeshTopology &mesh, NodeId from,
                                   NodeId dst, int max_hops);

/**
 * Build the control program for a multicast branch from @p from to
 * its unserved @p taps (path order; the last one is the branch's
 * final destination). Every tap router gets its Multicast bit; interim
 * Local bits are inserted every @p max_hops routers. The taps must be
 * the last taps.size() routers of the dimension-order route from
 * @p from to the final tap, as they are for every router a
 * splitBroadcast() branch can launch from; O(1), and checked in O(1)
 * by the position of the first tap.
 */
ControlProgram buildMulticastProgram(const MeshTopology &mesh,
                                     NodeId from,
                                     std::span<const NodeId> taps,
                                     int max_hops);

/**
 * Split a broadcast from @p src into its multicast branches: one
 * branch per column and Y-direction with a nonempty target set -- up
 * to 2 * width branches, width when the source is on the top or
 * bottom row (paper Section 2.1.4).
 */
std::vector<MulticastBranch> splitBroadcast(const MeshTopology &mesh,
                                            NodeId src);

} // namespace phastlane::core

#endif // PHASTLANE_CORE_CONTROL_HPP
