/**
 * @file
 * Tracing for the repository benchmark: forwarding wrappers that time
 * the calls the drivers make into each layer, and the per-cell totals
 * they fill. Nothing here changes simulated behaviour; a traced run
 * reproduces the untraced results bit for bit.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>

#include "core/network.hpp"
#include "core/observer.hpp"
#include "net/network.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

/** One traced quantity. Times (*Ns) are inclusive nanoseconds of the
 *  calls into a layer, each with its count of timed calls; self times
 *  are derived when metrics are built. */
enum class T : int {
    CoreStepNs,       ///< optical step(), including observer hooks
    CoreStepCalls,
    CoreIdleSteps,    ///< steps with nothing in flight or injected
    CoreInjectNs,
    CoreInjectCalls,
    CoreInjectRefused,
    CoreNodeCycles,
    CoreLaunches,
    CoreDrops,
    CoreRetransmissions,
    ElStepNs,
    ElStepCalls,
    ElInjectNs,
    ElInjectCalls,
    ElInjectRefused,
    ElNodeCycles,
    ElSaGrants,
    SynthPreNs,       ///< SyntheticDriver done() + preStep(), incl. inject
    SynthPostNs,
    CohPreNs,         ///< CoherenceDriver done() + preStep(), incl. inject
    CohPostNs,
    SplashGenNs,
    DecodeNs,
    DecodeBytes,
    DecodeRecords,
    SubmitNs,
    PumpNs,           ///< SimServer::pump, including step and inject
    AcksDeferred,
    ObserverNs,
    ObserverEvents,
    GangStepNs,       ///< MultiSim::runAll minus the job callbacks
    CellWallNs,       ///< the cell's own wall time
    Count
};

/** JSON key of each traced quantity, in enum order. */
const char *tallyName(T t);

/** Per-cell (or run-wide) totals of every traced quantity. */
struct LayerTotals {
    std::array<uint64_t, static_cast<size_t>(T::Count)> v{};
    /** Timed calls behind each time quantity (0 for counts). */
    std::array<uint64_t, static_cast<size_t>(T::Count)> calls{};

    uint64_t &operator[](T t) { return v[static_cast<size_t>(t)]; }
    uint64_t operator[](T t) const { return v[static_cast<size_t>(t)]; }
    uint64_t callsOf(T t) const { return calls[static_cast<size_t>(t)]; }

    /** Close one timed call into @p slot that started at @p t0. */
    void time(T slot, Clock::time_point t0)
    {
        v[static_cast<size_t>(slot)] += nsBetween(t0, Clock::now());
        ++calls[static_cast<size_t>(slot)];
    }

    void add(const LayerTotals &o)
    {
        for (size_t i = 0; i < v.size(); ++i) {
            v[i] += o.v[i];
            calls[i] += o.calls[i];
        }
    }

    /** Every quantity as one JSON object. */
    std::string json() const;
};

/**
 * Forwarding Network that counts and times inject() and step() into
 * its (non-owned) inner network. Optical inner networks tally into
 * the core.* quantities, electrical ones into electrical.*.
 */
class TracedNetwork final : public phastlane::Network
{
  public:
    TracedNetwork(phastlane::Network &inner, LayerTotals &totals);
    // Drivers hold the wrapper's address.
    TracedNetwork(const TracedNetwork &) = delete;
    TracedNetwork &operator=(const TracedNetwork &) = delete;

    int nodeCount() const override { return inner_.nodeCount(); }
    const phastlane::MeshTopology &mesh() const override
    {
        return inner_.mesh();
    }
    phastlane::Cycle now() const override { return inner_.now(); }
    bool nicHasSpace(phastlane::NodeId n) const override
    {
        return inner_.nicHasSpace(n);
    }
    bool inject(const phastlane::Packet &pkt) override;
    void step() override;
    const std::vector<phastlane::Delivery> &deliveries() const override
    {
        return inner_.deliveries();
    }
    uint64_t inFlight() const override { return inner_.inFlight(); }
    const phastlane::NetworkCounters &counters() const override
    {
        return inner_.counters();
    }

    /** Record one step the caller ran on the inner network itself
     *  (a MultiSim gang): step count, idleness and node cycles. */
    void countExternalStep(bool idle);

    /** Fold the inner network's own event counters (launches, drops,
     *  switch grants, ...) into the totals; call once at the end. */
    void harvestCounters();

  private:
    phastlane::Network &inner_;
    LayerTotals &t_;
    bool optical_;
    T stepNs_, stepCalls_, injectNs_, injectCalls_, refused_, cycles_;
};

/** Forwarding StepObserver that times and counts every hook of the
 *  observer it wraps. */
class TimingObserver final : public phastlane::core::StepObserver
{
  public:
    TimingObserver(phastlane::core::StepObserver &inner,
                   LayerTotals &totals)
        : inner_(inner), t_(totals)
    {
    }
    // The network holds the observer's address.
    TimingObserver(const TimingObserver &) = delete;
    TimingObserver &operator=(const TimingObserver &) = delete;

    void onCycleBegin(phastlane::Cycle c) override;
    void onAccept(const phastlane::Packet &pkt, int branches,
                  int units) override;
    void onLaunch(const phastlane::core::OpticalPacket &pkt,
                  phastlane::NodeId router, phastlane::Port out,
                  int attempts) override;
    void onPass(const phastlane::core::OpticalPacket &pkt,
                phastlane::NodeId router) override;
    void onDeliver(const phastlane::Delivery &d) override;
    void onTap(const phastlane::core::OpticalPacket &pkt,
               phastlane::NodeId router) override;
    void onBranchFinal(const phastlane::core::OpticalPacket &pkt,
                       phastlane::NodeId router) override;
    void onBufferReceive(const phastlane::core::OpticalPacket &pkt,
                         phastlane::NodeId router, phastlane::Port queue,
                         bool interim) override;
    void onDrop(const phastlane::core::OpticalPacket &pkt,
                phastlane::NodeId router, phastlane::NodeId launch_router,
                int signal_hops, bool signal_lost) override;
    void onLost(const phastlane::Packet &pkt, uint64_t branch_id,
                phastlane::NodeId router, int units,
                phastlane::core::LostCause cause) override;
    void onDuplicate(const phastlane::core::OpticalPacket &pkt,
                     phastlane::NodeId router) override;
    void onCycleEnd(phastlane::Cycle c) override;

  private:
    template <typename F> void timed(F &&f)
    {
        const auto t0 = Clock::now();
        f();
        t_.time(T::ObserverNs, t0);
        ++t_[T::ObserverEvents];
    }

    phastlane::core::StepObserver &inner_;
    LayerTotals &t_;
};

/** Time @p f into @p slot of @p t; returns what @p f returns. */
template <typename F>
auto
timeInto(LayerTotals &t, T slot, F &&f)
{
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
        f();
        t.time(slot, t0);
    } else {
        auto r = f();
        t.time(slot, t0);
        return r;
    }
}

/**
 * What one timed call costs, from a calibration loop of empty timed
 * calls: @c inside is the clock time that lands inside the measured
 * interval, @c outside the rest of the timing code, which lands in
 * the caller's interval instead. Metrics subtract both so that per-
 * call timers of tiny calls (observer hooks) do not masquerade as
 * layer time.
 */
struct TimerCost {
    double inside = 0.0;
    double outside = 0.0;
};

/** Calibrate TimerCost (median of a few batches; ~50 ms). */
TimerCost calibrateTimer();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
