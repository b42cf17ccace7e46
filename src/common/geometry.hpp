/**
 * @file
 * 2D mesh topology: node/coordinate mapping, neighbor lookup, and
 * dimension-order (XY) route computation.
 *
 * Both the Phastlane optical network and the electrical baseline are
 * 2D meshes with deterministic dimension-order routing; this class is
 * the single source of truth for the geometry so that the two
 * simulators route packets identically.
 */

#ifndef PHASTLANE_COMMON_GEOMETRY_HPP
#define PHASTLANE_COMMON_GEOMETRY_HPP

#include <cstdlib>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace phastlane {

/** Integer grid coordinate. x grows eastward, y grows northward. */
struct Coord {
    int x = 0;
    int y = 0;

    bool operator==(const Coord &o) const = default;
};

/**
 * A width x height 2D mesh.
 *
 * Node ids are assigned row-major from the south-west corner:
 * id = y * width + x. The paper's network is an 8x8 mesh (64 nodes).
 */
class MeshTopology
{
  public:
    /**
     * @param width Nodes per row (> 0).
     * @param height Nodes per column (> 0).
     */
    MeshTopology(int width, int height);

    int width() const { return width_; }
    int height() const { return height_; }
    int nodeCount() const { return width_ * height_; }

    /** True when @p n is a valid node id. */
    bool valid(NodeId n) const { return n >= 0 && n < nodeCount(); }

    // The per-hop lookups below are defined inline: the simulator's
    // step() hot path calls them millions of times per second, and the
    // out-of-line versions' call overhead dominated the profile.

    /** Coordinate of node @p n. */
    Coord coordOf(NodeId n) const
    {
        PL_ASSERT(valid(n), "node %d out of range", n);
        return Coord{static_cast<int>(n) % width_,
                     static_cast<int>(n) / width_};
    }

    /** Node id at coordinate @p c (must be in range). */
    NodeId nodeAt(Coord c) const
    {
        PL_ASSERT(inside(c), "coord (%d,%d) out of range", c.x, c.y);
        return static_cast<NodeId>(c.y * width_ + c.x);
    }

    /** True when @p c lies inside the mesh. */
    bool inside(Coord c) const
    {
        return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
    }

    /**
     * Neighbor of @p n in direction @p dir, or kInvalidNode at the
     * mesh edge. @p dir must be a mesh direction, not Local.
     */
    NodeId neighbor(NodeId n, Port dir) const
    {
        Coord c = coordOf(n);
        switch (dir) {
          case Port::North: c.y += 1; break;
          case Port::South: c.y -= 1; break;
          case Port::East: c.x += 1; break;
          case Port::West: c.x -= 1; break;
          default:
            panic("neighbor() called with non-mesh port");
        }
        return inside(c) ? nodeAt(c) : kInvalidNode;
    }

    /** Manhattan distance in hops between two nodes. */
    int hopDistance(NodeId a, NodeId b) const
    {
        const Coord ca = coordOf(a);
        const Coord cb = coordOf(b);
        return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
    }

    /**
     * Dimension-order (X then Y) route from @p src to @p dst as the
     * sequence of output directions taken at each router, starting
     * with the direction out of @p src. Empty when src == dst.
     */
    std::vector<Port> xyRoute(NodeId src, NodeId dst) const;

    /**
     * The sequence of nodes visited on the XY route, excluding @p src
     * and including @p dst. Empty when src == dst.
     */
    std::vector<NodeId> xyPath(NodeId src, NodeId dst) const;

    /**
     * First output direction on the XY route from @p at to @p dst;
     * Port::Local when already there.
     */
    Port xyFirstHop(NodeId at, NodeId dst) const
    {
        const Coord a = coordOf(at);
        const Coord d = coordOf(dst);
        if (a.x < d.x)
            return Port::East;
        if (a.x > d.x)
            return Port::West;
        if (a.y < d.y)
            return Port::North;
        if (a.y > d.y)
            return Port::South;
        return Port::Local;
    }

  private:
    int width_;
    int height_;
};

} // namespace phastlane

#endif // PHASTLANE_COMMON_GEOMETRY_HPP
