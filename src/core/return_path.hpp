/**
 * @file
 * The drop-signal return-path network (paper Section 2.1.2, Fig 2).
 *
 * As a packet moves through the network, every router it crosses
 * registers its translated Straight/Left/Right bits; in the next cycle
 * those latched bits configure a reverse optical connection from the
 * packet's output port back to its input port. A router that drops the
 * packet transmits an asserted Packet-Dropped signal plus its six-bit
 * Node ID along this pre-built path to the responsible source.
 *
 * The simulator resolves drop outcomes synchronously, so this module's
 * job is fidelity rather than control flow: it records each packet's
 * per-cycle reverse path, enforces the paper's footnote 4 invariant
 * ("each return path is unique and cannot overlap with the return path
 * of any other packet in the same cycle"), and accounts the signaling
 * hops for the power model.
 */

#ifndef PHASTLANE_CORE_RETURN_PATH_HPP
#define PHASTLANE_CORE_RETURN_PATH_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace phastlane::core {

/** One latched reverse connection at a router. */
struct ReturnHop {
    NodeId router = kInvalidNode;

    /** Port the packet entered by (the signal exits here). */
    Port packetIn = Port::Local;

    /** Port the packet left by (the signal enters here). */
    Port packetOut = Port::Local;
};

/**
 * Per-cycle registry of reverse paths.
 *
 * Usage per cycle: beginCycle(), then register every traversed hop
 * with registerHop() as the wavefront advances; signalDrop() walks a
 * dropped packet's path backwards, asserting that no reverse link is
 * claimed twice within the cycle.
 */
class ReturnPathRegistry
{
  public:
    explicit ReturnPathRegistry(int node_count);

    /** Reset the registry for a new cycle. */
    void beginCycle();

    /**
     * Latch the reverse connection for a packet that entered
     * @p router via @p in and left via @p out this cycle.
     */
    void registerHop(NodeId router, Port in, Port out);

    /**
     * Signal a drop back along the @p hops the packet took this cycle,
     * in traversal order (the drop happened at the router after the
     * last hop). Claims every reverse link; panics if any was already
     * claimed by another packet's drop signal this cycle (footnote 4
     * guarantees this cannot happen).
     *
     * @return the number of hops the 7-bit signal travels.
     */
    int signalDrop(const ReturnHop *hops, size_t count);

    int signalDrop(const std::vector<ReturnHop> &path)
    {
        return signalDrop(path.data(), path.size());
    }

    /** Reverse links claimed by drop signals this cycle. */
    uint64_t claimedLinks() const { return claimed_; }

    /** Reverse connections latched this cycle. */
    uint64_t latchedHops() const { return latched_; }

  private:
    size_t index(NodeId router, Port out) const;

    int nodeCount_;
    /**
     * Latched reverse connection per (router, packet-out port):
     * (epoch << 3) | (packetIn + 1). Entries from earlier cycles have
     * a stale epoch and read as unlatched, so beginCycle() is a
     * counter bump instead of a full-table fill (which showed up in
     * the step() hot path on large meshes).
     */
    std::vector<uint64_t> latch_;
    /** Epoch of the drop-signal claim per (router, packet-out port). */
    std::vector<uint64_t> used_;
    uint64_t epoch_ = 1;
    uint64_t claimed_ = 0;
    uint64_t latched_ = 0;
};

} // namespace phastlane::core

#endif // PHASTLANE_CORE_RETURN_PATH_HPP
