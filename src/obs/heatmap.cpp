#include "obs/heatmap.hpp"

#include <cinttypes>
#include <cstdio>

#include "common/log.hpp"

namespace phastlane::obs {

namespace {

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace

HeatmapRecorder::HeatmapRecorder(const MeshTopology &mesh)
    : mesh_(mesh),
      live_(static_cast<size_t>(mesh.nodeCount()))
{
}

std::string
HeatmapRecorder::toCsv() const
{
    std::string out =
        "cycle,router,x,y,depth,drops,turns_lost,interim,launches\n";
    for (const auto &s : snapshots_) {
        for (size_t n = 0; n < s.cells.size(); ++n) {
            const auto &c = s.cells[n];
            const Coord xy = mesh_.coordOf(static_cast<NodeId>(n));
            appendF(out,
                    "%" PRIu64 ",%zu,%d,%d,%u,%" PRIu64 ",%" PRIu64
                    ",%" PRIu64 ",%" PRIu64 "\n",
                    s.cycle, n, xy.x, xy.y, c.bufferDepth, c.drops,
                    c.turnsLost, c.interimAccepts, c.launches);
        }
    }
    return out;
}

std::string
HeatmapRecorder::toJson() const
{
    std::string out = "[";
    for (size_t i = 0; i < snapshots_.size(); ++i) {
        const auto &s = snapshots_[i];
        appendF(out, "%s\n {\"cycle\": %" PRIu64 ", \"routers\": [",
                i ? "," : "", s.cycle);
        for (size_t n = 0; n < s.cells.size(); ++n) {
            const auto &c = s.cells[n];
            appendF(out,
                    "%s\n  {\"router\": %zu, \"depth\": %u, "
                    "\"drops\": %" PRIu64 ", \"turns_lost\": %" PRIu64
                    ", \"interim\": %" PRIu64 ", \"launches\": %" PRIu64
                    "}",
                    n ? "," : "", n, c.bufferDepth, c.drops,
                    c.turnsLost, c.interimAccepts, c.launches);
        }
        out += "\n ]}";
    }
    out += "\n]\n";
    return out;
}

void
HeatmapRecorder::writeCsv(const std::string &path) const
{
    writeFile(path, toCsv());
}

void
HeatmapRecorder::writeJson(const std::string &path) const
{
    writeFile(path, toJson());
}

} // namespace phastlane::obs
