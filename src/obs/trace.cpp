#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>

#include "common/log.hpp"

namespace phastlane::obs {

const char *
traceEventName(TraceEvent e)
{
    switch (e) {
      case TraceEvent::Inject: return "inject";
      case TraceEvent::Launch: return "launch";
      case TraceEvent::Retransmit: return "retransmit";
      case TraceEvent::Pass: return "pass";
      case TraceEvent::Tap: return "tap";
      case TraceEvent::Deliver: return "deliver";
      case TraceEvent::BufferBlocked: return "buffered";
      case TraceEvent::InterimAccept: return "interim";
      case TraceEvent::Drop: return "drop";
      case TraceEvent::DropSignal: return "drop_signal";
      case TraceEvent::BranchFinal: return "final";
      case TraceEvent::Sample: return "sample";
      case TraceEvent::Lost: return "lost";
      case TraceEvent::Duplicate: return "duplicate";
    }
    return "?";
}

TraceRing::TraceRing(size_t capacity)
    : ring_(capacity ? capacity : 1)
{
}

std::vector<TraceRecord>
TraceRing::snapshot() const
{
    std::vector<TraceRecord> out;
    out.reserve(size_);
    const size_t start =
        size_ < ring_.size() ? 0 : head_; // oldest retained record
    for (size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

namespace {

/** Common prefix of one trace_event object. */
void
beginEvent(std::string &out, const char *name, const char *cat,
           const char *ph, Cycle ts, NodeId tid)
{
    appendF(out,
            "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
            "\"ts\":%" PRIu64 ",\"pid\":0,\"tid\":%d",
            name, cat, ph, ts, tid);
}

} // namespace

std::string
toChromeTrace(const TraceRing &ring, const MeshTopology &mesh)
{
    const auto records = ring.snapshot();
    std::string out;
    out.reserve(records.size() * 160 + 4096);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";

    // Metadata: name the process and one timeline row per router.
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
           "\"args\":{\"name\":\"phastlane\"}}";
    for (NodeId n = 0; n < mesh.nodeCount(); ++n) {
        const Coord c = mesh.coordOf(n);
        appendF(out,
                ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                "\"tid\":%d,\"args\":{\"name\":\"router %d (%d,%d)\"}}",
                n, n, c.x, c.y);
    }

    for (const auto &r : records) {
        out += ",\n";
        const char *name = traceEventName(r.kind);
        switch (r.kind) {
          case TraceEvent::Inject:
            beginEvent(out, name, "pkt", "i", r.cycle, r.node);
            appendF(out,
                    ",\"s\":\"t\",\"args\":{\"packet\":%" PRIu64
                    ",\"branches\":%d}}",
                    r.packet, r.aux);
            break;
          case TraceEvent::Launch:
          case TraceEvent::Retransmit:
            // One async span per optical flight, closed by the
            // terminal event (deliver/final, buffered, or drop).
            beginEvent(out, "flight", "branch", "b", r.cycle, r.node);
            appendF(out,
                    ",\"id\":%" PRIu64 ",\"args\":{\"packet\":%" PRIu64
                    ",\"attempts\":%d,\"retransmit\":%s}}",
                    r.branch, r.packet, r.aux,
                    r.kind == TraceEvent::Retransmit ? "true"
                                                     : "false");
            break;
          case TraceEvent::Pass:
          case TraceEvent::Tap:
            beginEvent(out, name, "branch", "n", r.cycle, r.node);
            appendF(out,
                    ",\"id\":%" PRIu64 ",\"args\":{\"packet\":%" PRIu64
                    "}}",
                    r.branch, r.packet);
            break;
          case TraceEvent::Deliver:
            // Deliveries carry no branch id (a Delivery is a
            // message-level record), so they render as instants on
            // the destination's row rather than nested span events.
            beginEvent(out, name, "pkt", "i", r.cycle, r.node);
            appendF(out,
                    ",\"s\":\"t\",\"args\":{\"packet\":%" PRIu64
                    ",\"latency\":%d}}",
                    r.packet, r.aux);
            break;
          case TraceEvent::BufferBlocked:
          case TraceEvent::InterimAccept:
          case TraceEvent::Drop:
          case TraceEvent::BranchFinal:
          case TraceEvent::Lost:
          case TraceEvent::Duplicate:
            beginEvent(out, name, "branch", "e", r.cycle, r.node);
            appendF(out,
                    ",\"id\":%" PRIu64 ",\"args\":{\"packet\":%" PRIu64
                    ",\"detail\":%d}}",
                    r.branch, r.packet, r.aux);
            break;
          case TraceEvent::DropSignal:
            beginEvent(out, name, "pkt", "i", r.cycle, r.node);
            appendF(out,
                    ",\"s\":\"t\",\"args\":{\"packet\":%" PRIu64
                    ",\"hops\":%d}}",
                    r.packet, r.aux);
            break;
          case TraceEvent::Sample:
            appendF(out,
                    "{\"name\":\"in_flight\",\"ph\":\"C\",\"ts\":%"
                    PRIu64 ",\"pid\":0,\"args\":{\"units\":%" PRIu64
                    "}},\n",
                    r.cycle, r.packet);
            appendF(out,
                    "{\"name\":\"buffered\",\"ph\":\"C\",\"ts\":%"
                    PRIu64 ",\"pid\":0,\"args\":{\"packets\":%" PRIu64
                    "}}",
                    r.cycle, r.branch);
            break;
        }
    }

    appendF(out,
            "\n],\"otherData\":{\"shed_records\":%" PRIu64
            ",\"retained_records\":%zu}}\n",
            ring.shedRecords(), records.size());
    return out;
}

void
writeChromeTrace(const TraceRing &ring, const MeshTopology &mesh,
                 const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write trace to %s", path.c_str());
    const std::string text = toChromeTrace(ring, mesh);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace phastlane::obs
