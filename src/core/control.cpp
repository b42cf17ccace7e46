#include "core/control.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/log.hpp"

namespace phastlane::core {

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

ControlProgram::ControlProgram(const Planes &planes, size_t size)
    : planes_(planes)
{
    if (size > static_cast<size_t>(kMaxGroups))
        fatal("control program exceeds %d groups", kMaxGroups);
    size_ = static_cast<uint8_t>(size);
}

void
ControlProgram::append(const ControlGroup &g)
{
    if (size_ >= kMaxGroups)
        fatal("control program exceeds %d groups", kMaxGroups);
    const unsigned bits = g.pack();
    for (int p = 0; p < kPlanes; ++p)
        planes_[p] |= static_cast<uint16_t>(((bits >> p) & 1u) << size_);
    ++size_;
}

std::string
ControlProgram::toString() const
{
    std::string out;
    for (size_t i = cursor_; i < size_; ++i) {
        const ControlGroup g = at(i);
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

constexpr int kMaxGroups = ControlProgram::kMaxGroups;

/** Groups i with (i + 1) % spacing == 0, by spacing 1..kMaxGroups:
 *  the interim stops of a route at that hop limit. */
constexpr auto kInterimStops = [] {
    std::array<uint16_t, kMaxGroups + 1> t{};
    for (int s = 1; s <= kMaxGroups; ++s) {
        for (int i = s - 1; i < kMaxGroups; i += s)
            t[static_cast<size_t>(s)] |= static_cast<uint16_t>(1u << i);
    }
    return t;
}();

/**
 * The program of a launch at @p f over the dimension-order route to
 * @p d whose last @p taps routers are unserved multicast taps (0 for
 * a unicast), in closed form. Group i addresses the (i + 1)-th router
 * entered; see DESIGN.md §3.8.
 */
ControlProgram
routeProgram(Coord f, Coord d, int taps, int max_hops)
{
    PL_ASSERT(!(f == d), "empty route");
    PL_ASSERT(max_hops >= 1, "hop limit must be at least 1");
    const int dx = std::abs(d.x - f.x);
    const int dy = std::abs(d.y - f.y);
    const int hops = dx + dy;

    // Routes longer than the C0+C1 budget cannot carry a group per
    // router: the program is truncated at kMaxGroups pass-through
    // groups with an interim stop forced no later than the
    // last-but-one group (the last group must stay, or the interim's
    // Local bit would read as a final destination). The packet
    // re-launches from that interim with a fresh program, so
    // truncation costs extra segments, never correctness; see
    // programStopHops() for the oracle-shared rule.
    const bool truncated = hops > kMaxGroups;
    const int size = truncated ? kMaxGroups : hops;
    const int spacing =
        truncated ? std::min(max_hops, kMaxGroups - 1) : max_hops;
    const unsigned all = (1u << size) - 1;
    const unsigned final_group = truncated ? 0 : 1u << (hops - 1);
    const unsigned pass = all & ~final_group;

    // Every pass-through group goes straight except the one that ends
    // the X run of a route with both legs, which turns into Y: left
    // when heading east then north or west then south, else right.
    // Branch-free, since the turn of a random route is unpredictable.
    const unsigned turn =
        dx != 0 && dy != 0 && dx <= size ? 1u << (dx - 1) : 0u;
    const bool left = (d.x > f.x) == (d.y > f.y);
    ControlProgram::Planes planes{};
    planes[ControlProgram::Left] = static_cast<uint16_t>(left ? turn : 0u);
    planes[ControlProgram::Right] =
        static_cast<uint16_t>(left ? 0u : turn);
    planes[ControlProgram::Straight] =
        static_cast<uint16_t>(pass & ~turn);
    const unsigned interim =
        spacing <= kMaxGroups ? kInterimStops[static_cast<size_t>(spacing)]
                              : 0u;
    planes[ControlProgram::Local] =
        static_cast<uint16_t>((interim & pass) | final_group);
    // The unserved taps are the route's last `taps` routers.
    const int first_tap = hops - taps;
    if (taps > 0 && first_tap < size) {
        planes[ControlProgram::Multicast] =
            static_cast<uint16_t>(all & ~((1u << first_tap) - 1));
    }
    return ControlProgram(planes, static_cast<size_t>(size));
}

} // namespace

ControlProgram
buildUnicastProgram(const MeshTopology &mesh, NodeId from, NodeId dst,
                    int max_hops)
{
    PL_ASSERT(from != dst, "unicast to self");
    return routeProgram(mesh.coordOf(from), mesh.coordOf(dst), 0,
                        max_hops);
}

ControlProgram
buildMulticastProgram(const MeshTopology &mesh, NodeId from,
                      std::span<const NodeId> taps, int max_hops)
{
    PL_ASSERT(!taps.empty(), "multicast branch without taps");
    const NodeId final_dst = taps.back();
    PL_ASSERT(from != final_dst || taps.size() > 1,
              "multicast branch degenerates to self");
    const Coord f = mesh.coordOf(from);
    const Coord d = mesh.coordOf(final_dst);
    // Distinct taps in path order ending at the final tap are the
    // route's last k routers exactly when the first one sits k - 1
    // routers before the final tap: walk back along the Y leg, then
    // the X leg.
    const int k = static_cast<int>(taps.size());
    const int dy = std::abs(d.y - f.y);
    PL_ASSERT(k <= std::abs(d.x - f.x) + dy,
              "multicast branch has more taps than its route routers");
    Coord first = d;
    if (k - 1 <= dy) {
        first.y += d.y > f.y ? 1 - k : k - 1;
    } else {
        first.y = f.y;
        first.x += d.x > f.x ? dy + 1 - k : k - 1 - dy;
    }
    PL_ASSERT(mesh.nodeAt(first) == taps.front(),
              "multicast taps are not the tail of the dimension-order "
              "route");
    return routeProgram(f, d, k, max_hops);
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
