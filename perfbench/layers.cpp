#include "layers.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "electrical/network.hpp"

namespace perfbench {

using namespace phastlane;

const char *
tallyName(T t)
{
    static constexpr const char *kNames[] = {
        "core_step_ns",         "core_step_calls",
        "core_idle_steps",      "core_inject_ns",
        "core_inject_calls",    "core_inject_refused",
        "core_node_cycles",     "core_launches",
        "core_drops",           "core_retransmissions",
        "el_step_ns",           "el_step_calls",
        "el_inject_ns",         "el_inject_calls",
        "el_inject_refused",    "el_node_cycles",
        "el_sa_grants",         "synthetic_pre_ns",
        "synthetic_post_ns",    "coherence_pre_ns",
        "coherence_post_ns",    "splash_gen_ns",
        "decode_ns",            "decode_bytes",
        "decode_records",       "submit_ns",
        "pump_ns"     ,         "acks_deferred",
        "observer_ns",          "observer_events",
        "gang_step_ns",         "cell_wall_ns",
    };
    static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                  static_cast<size_t>(T::Count));
    return kNames[static_cast<size_t>(t)];
}

std::string
LayerTotals::json() const
{
    std::string out = "{";
    for (size_t i = 0; i < v.size(); ++i) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "%s\"%s\": %" PRIu64,
                      i ? ", " : "", tallyName(static_cast<T>(i)), v[i]);
        out += buf;
        if (calls[i]) {
            std::snprintf(buf, sizeof buf, ", \"%s_calls\": %" PRIu64,
                          tallyName(static_cast<T>(i)), calls[i]);
            out += buf;
        }
    }
    return out + "}";
}

TimerCost
calibrateTimer()
{
    constexpr int kBatches = 7;
    constexpr int kCalls = 100000;
    std::vector<double> inside, outside;
    for (int b = 0; b < kBatches; ++b) {
        LayerTotals t;
        const auto t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i)
            timeInto(t, T::CellWallNs, [] {});
        const double total = static_cast<double>(nsBetween(t0, Clock::now()));
        const double in = static_cast<double>(t[T::CellWallNs]);
        inside.push_back(in / kCalls);
        outside.push_back((total - in) / kCalls);
    }
    std::sort(inside.begin(), inside.end());
    std::sort(outside.begin(), outside.end());
    return {inside[kBatches / 2], outside[kBatches / 2]};
}

TracedNetwork::TracedNetwork(Network &inner, LayerTotals &totals)
    : inner_(inner), t_(totals),
      optical_(dynamic_cast<core::PhastlaneNetwork *>(&inner) != nullptr)
{
    stepNs_ = optical_ ? T::CoreStepNs : T::ElStepNs;
    stepCalls_ = optical_ ? T::CoreStepCalls : T::ElStepCalls;
    injectNs_ = optical_ ? T::CoreInjectNs : T::ElInjectNs;
    injectCalls_ = optical_ ? T::CoreInjectCalls : T::ElInjectCalls;
    refused_ = optical_ ? T::CoreInjectRefused : T::ElInjectRefused;
    cycles_ = optical_ ? T::CoreNodeCycles : T::ElNodeCycles;
}

bool
TracedNetwork::inject(const Packet &pkt)
{
    const auto t0 = Clock::now();
    const bool ok = inner_.inject(pkt);
    t_.time(injectNs_, t0);
    ++t_[injectCalls_];
    if (!ok)
        ++t_[refused_];
    return ok;
}

void
TracedNetwork::step()
{
    countExternalStep(inner_.inFlight() == 0);
    const auto t0 = Clock::now();
    inner_.step();
    t_.time(stepNs_, t0);
}

void
TracedNetwork::countExternalStep(bool idle)
{
    ++t_[stepCalls_];
    t_[cycles_] += static_cast<uint64_t>(inner_.nodeCount());
    if (idle && optical_)
        ++t_[T::CoreIdleSteps];
}

void
TracedNetwork::harvestCounters()
{
    if (const auto *pl = dynamic_cast<core::PhastlaneNetwork *>(&inner_)) {
        const core::PhastlaneCounters &c = pl->phastlaneCounters();
        t_[T::CoreLaunches] += c.launches;
        t_[T::CoreDrops] += c.drops;
        t_[T::CoreRetransmissions] += c.retransmissions;
    } else if (const auto *el =
                   dynamic_cast<electrical::ElectricalNetwork *>(&inner_)) {
        t_[T::ElSaGrants] += el->events().saGrants;
    }
}

void
TimingObserver::onCycleBegin(Cycle c)
{
    timed([&] { inner_.onCycleBegin(c); });
}

void
TimingObserver::onAccept(const Packet &pkt, int branches, int units)
{
    timed([&] { inner_.onAccept(pkt, branches, units); });
}

void
TimingObserver::onLaunch(const core::OpticalPacket &pkt, NodeId router,
                         Port out, int attempts)
{
    timed([&] { inner_.onLaunch(pkt, router, out, attempts); });
}

void
TimingObserver::onPass(const core::OpticalPacket &pkt, NodeId router)
{
    timed([&] { inner_.onPass(pkt, router); });
}

void
TimingObserver::onDeliver(const Delivery &d)
{
    timed([&] { inner_.onDeliver(d); });
}

void
TimingObserver::onTap(const core::OpticalPacket &pkt, NodeId router)
{
    timed([&] { inner_.onTap(pkt, router); });
}

void
TimingObserver::onBranchFinal(const core::OpticalPacket &pkt,
                              NodeId router)
{
    timed([&] { inner_.onBranchFinal(pkt, router); });
}

void
TimingObserver::onBufferReceive(const core::OpticalPacket &pkt,
                                NodeId router, Port queue, bool interim)
{
    timed([&] { inner_.onBufferReceive(pkt, router, queue, interim); });
}

void
TimingObserver::onDrop(const core::OpticalPacket &pkt, NodeId router,
                       NodeId launch_router, int signal_hops,
                       bool signal_lost)
{
    timed([&] {
        inner_.onDrop(pkt, router, launch_router, signal_hops,
                      signal_lost);
    });
}

void
TimingObserver::onLost(const Packet &pkt, uint64_t branch_id,
                       NodeId router, int units, core::LostCause cause)
{
    timed([&] { inner_.onLost(pkt, branch_id, router, units, cause); });
}

void
TimingObserver::onDuplicate(const core::OpticalPacket &pkt, NodeId router)
{
    timed([&] { inner_.onDuplicate(pkt, router); });
}

void
TimingObserver::onCycleEnd(Cycle c)
{
    timed([&] { inner_.onCycleEnd(c); });
}

} // namespace perfbench
