#include "common/geometry.hpp"


#include "common/log.hpp"

namespace phastlane {

MeshTopology::MeshTopology(int width, int height)
    : width_(width), height_(height)
{
    if (width <= 0 || height <= 0)
        fatal("mesh dimensions must be positive (got %dx%d)",
              width, height);
}

std::vector<Port>
MeshTopology::xyRoute(NodeId src, NodeId dst) const
{
    const Coord s = coordOf(src);
    const Coord d = coordOf(dst);
    std::vector<Port> route;
    route.reserve(static_cast<size_t>(hopDistance(src, dst)));
    // X first.
    for (int x = s.x; x < d.x; ++x)
        route.push_back(Port::East);
    for (int x = s.x; x > d.x; --x)
        route.push_back(Port::West);
    // Then Y.
    for (int y = s.y; y < d.y; ++y)
        route.push_back(Port::North);
    for (int y = s.y; y > d.y; --y)
        route.push_back(Port::South);
    return route;
}

std::vector<NodeId>
MeshTopology::xyPath(NodeId src, NodeId dst) const
{
    std::vector<NodeId> path;
    NodeId at = src;
    for (Port dir : xyRoute(src, dst)) {
        at = neighbor(at, dir);
        PL_ASSERT(at != kInvalidNode, "XY route left the mesh");
        path.push_back(at);
    }
    return path;
}

} // namespace phastlane
