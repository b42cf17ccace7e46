#include "core/control.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace phastlane::core {

bool
ControlGroup::hasDirection() const
{
    return (straight ? 1 : 0) + (left ? 1 : 0) + (right ? 1 : 0) == 1;
}

Turn
ControlGroup::turn() const
{
    PL_ASSERT(hasDirection(), "control group has no unique direction");
    if (straight)
        return Turn::Straight;
    if (left)
        return Turn::Left;
    return Turn::Right;
}

void
ControlGroup::setTurn(Turn t)
{
    straight = t == Turn::Straight;
    left = t == Turn::Left;
    right = t == Turn::Right;
}

uint8_t
ControlGroup::pack() const
{
    return static_cast<uint8_t>((straight ? 1 : 0) | (left ? 2 : 0) |
                                (right ? 4 : 0) | (local ? 8 : 0) |
                                (multicast ? 16 : 0));
}

ControlGroup
ControlGroup::unpack(uint8_t bits)
{
    ControlGroup g;
    g.straight = bits & 1;
    g.left = bits & 2;
    g.right = bits & 4;
    g.local = bits & 8;
    g.multicast = bits & 16;
    return g;
}

void
ControlProgram::append(const ControlGroup &g)
{
    if (size_ >= kMaxGroups)
        fatal("control program exceeds %d groups", kMaxGroups);
    groups_[size_++] = g;
}

std::string
ControlProgram::toString() const
{
    std::string out;
    for (size_t i = cursor_; i < size_; ++i) {
        const ControlGroup &g = groups_[i];
        out += '[';
        if (g.straight)
            out += 'S';
        if (g.left)
            out += '<';
        if (g.right)
            out += '>';
        if (g.local)
            out += 'L';
        if (g.multicast)
            out += '*';
        out += ']';
    }
    return out;
}

namespace {

/**
 * Shared group construction over the dimension-order route from
 * @p from to @p dst, walked incrementally — programs are rebuilt on
 * every launch, so this path must not allocate (the explicit
 * xyRoute()/xyPath() vectors it used to build were a top allocation
 * site in the step() hot path).
 *
 * @param taps Nodes that must get their Multicast bit (path order;
 *        every tap must lie on the route).
 */
ControlProgram
buildProgram(const MeshTopology &mesh, NodeId from, NodeId dst,
             std::span<const NodeId> taps, int max_hops)
{
    PL_ASSERT(from != dst, "empty route");
    PL_ASSERT(max_hops >= 1, "hop limit must be at least 1");

    const Coord d = mesh.coordOf(dst);
    // Next XY-route step out of @p c (X first, then Y); must not be
    // called at the destination.
    const auto stepDir = [&d](const Coord &c) {
        if (c.x < d.x)
            return Port::East;
        if (c.x > d.x)
            return Port::West;
        return c.y < d.y ? Port::North : Port::South;
    };

    // Routes longer than the C0+C1 budget cannot carry a group per
    // router: the program is truncated at kMaxGroups groups with an
    // interim stop forced no later than the last-but-one group (the
    // last group must stay, or the interim's Local bit would read as
    // a final destination). The packet re-launches from that interim
    // with a fresh program, so truncation costs extra segments, never
    // correctness; see programStopHops() for the oracle-shared rule.
    const size_t route_hops =
        static_cast<size_t>(mesh.hopDistance(from, dst));
    const bool truncated =
        route_hops > static_cast<size_t>(ControlProgram::kMaxGroups);
    const int spacing =
        truncated ? std::min(max_hops, ControlProgram::kMaxGroups - 1)
                  : max_hops;

    ControlProgram prog;
    size_t tap_idx = 0;
    Coord c = mesh.coordOf(from);
    for (int i = 0; !(c == d); ++i) {
        const Port dir = stepDir(c); // direction into node i
        switch (dir) {
          case Port::East: c.x += 1; break;
          case Port::West: c.x -= 1; break;
          case Port::North: c.y += 1; break;
          default: c.y -= 1; break;
        }
        const NodeId node = mesh.nodeAt(c);
        ControlGroup g;
        if (!(c == d)) {
            // Pass-through (possibly also an interim stop): the
            // direction bits select the output port and arm the
            // return path.
            g.setTurn(turnBetween(opposite(dir), stepDir(c)));
            // Interim node every spacing routers.
            if ((i + 1) % spacing == 0)
                g.local = true;
        } else {
            g.local = true;
        }
        if (tap_idx < taps.size() && taps[tap_idx] == node) {
            g.multicast = true;
            ++tap_idx;
        }
        prog.append(g);
        if (truncated && i + 1 == ControlProgram::kMaxGroups)
            break;
    }
    PL_ASSERT(truncated || tap_idx == taps.size(),
              "multicast tap not on the dimension-order route");
    return prog;
}

} // namespace

ControlProgram
buildUnicastProgram(const MeshTopology &mesh, NodeId from, NodeId dst,
                    int max_hops)
{
    PL_ASSERT(from != dst, "unicast to self");
    return buildProgram(mesh, from, dst, {}, max_hops);
}

ControlProgram
buildMulticastProgram(const MeshTopology &mesh, NodeId from,
                      std::span<const NodeId> taps, int max_hops)
{
    PL_ASSERT(!taps.empty(), "multicast branch without taps");
    const NodeId final_dst = taps.back();
    PL_ASSERT(from != final_dst || taps.size() > 1,
              "multicast branch degenerates to self");
    return buildProgram(mesh, from, final_dst, taps, max_hops);
}

std::vector<MulticastBranch>
splitBroadcast(const MeshTopology &mesh, NodeId src)
{
    const Coord s = mesh.coordOf(src);
    const int top = mesh.height() - 1;
    std::vector<MulticastBranch> branches;
    branches.reserve(static_cast<size_t>(2 * mesh.width()));

    for (int c = 0; c < mesh.width(); ++c) {
        // The turn router (c, s.y) belongs to the north branch unless
        // the source sits on the top row (then the south branch covers
        // the full column), so a top/bottom-row source issues exactly
        // `width` branches.
        MulticastBranch north;
        if (s.y < top) {
            for (int y = s.y; y <= top; ++y) {
                const NodeId n = mesh.nodeAt({c, y});
                if (n != src)
                    north.taps.push_back(n);
            }
        }
        MulticastBranch south;
        const int south_top = (s.y == top) ? top : s.y - 1;
        for (int y = south_top; y >= 0; --y) {
            const NodeId n = mesh.nodeAt({c, y});
            if (n != src)
                south.taps.push_back(n);
        }
        if (!north.taps.empty())
            branches.push_back(std::move(north));
        if (!south.taps.empty())
            branches.push_back(std::move(south));
    }
    return branches;
}

} // namespace phastlane::core
