/**
 * @file
 * The electrical baseline network: an 8x8 mesh of input-queued VC
 * routers with iSLIP allocation, credit flow control, and Virtual
 * Circuit Tree Multicasting for broadcasts (paper Table 2 and Section
 * 4).
 *
 * Cycle structure of step():
 *   1. flits scheduled on links arrive into input VCs (route compute /
 *      tree lookup happens on arrival, modeling lookahead routing);
 *   2. ejections deliver (one cycle after arrival, bypassing the
 *      crossbar) and pure-ejection VCs free, returning credits;
 *   3. NICs inject into free injection-port VCs;
 *   4. VC allocation, then switch allocation (same-cycle speculation);
 *   5. switch winners traverse the crossbar and then the one-cycle
 *      channel (arriving two cycles after the switch grant), and
 *      credits return upstream.
 */

#ifndef PHASTLANE_ELECTRICAL_NETWORK_HPP
#define PHASTLANE_ELECTRICAL_NETWORK_HPP

#include <vector>

#include "common/geometry.hpp"
#include "electrical/events.hpp"
#include "electrical/nic.hpp"
#include "electrical/params.hpp"
#include "electrical/router.hpp"
#include "net/network.hpp"

namespace phastlane::electrical {

/** Baseline-specific statistics. */
struct ElectricalCounters {
    uint64_t treeMulticasts = 0; ///< broadcasts sent via a ready tree
    uint64_t setupUnicasts = 0;  ///< tree-building unicast clones
};

/**
 * The electrical baseline (Network implementation).
 */
class ElectricalNetwork : public Network
{
  public:
    explicit ElectricalNetwork(const ElectricalParams &params);

    int nodeCount() const override { return mesh_.nodeCount(); }
    Cycle now() const override { return cycle_; }
    bool nicHasSpace(NodeId n) const override;
    bool inject(const Packet &pkt) override;
    void step() override;
    const std::vector<Delivery> &deliveries() const override
    {
        return deliveries_;
    }
    uint64_t inFlight() const override { return outstanding_; }
    const NetworkCounters &counters() const override
    {
        return counters_;
    }

    const ElectricalParams &params() const { return params_; }
    const MeshTopology &mesh() const override { return mesh_; }
    const ElectricalEvents &events() const { return events_; }
    const ElectricalCounters &electricalCounters() const
    {
        return el_;
    }

    /**
     * Cumulative flit traversals per (router, mesh output port),
     * indexed router * 4 + portIndex; feeds utilization reports.
     */
    const std::vector<uint64_t> &linkCounts() const
    {
        return linkCounts_;
    }

  private:
    /** A flit in transit on a link, due at `router` next cycle. */
    struct PendingArrival {
        NodeId router;
        Port port;
        int vc;
        EFlit flit;
    };

    /**
     * A local delivery due this cycle from the flit still held in
     * input VC (router, port, vc); an ejecting VC also frees.
     */
    struct PendingEjection {
        NodeId router;
        Port port;
        int vc;
    };

    void processArrival(PendingArrival &a);
    void processEjection(const PendingEjection &e);
    void injectFlit(NodeId n, EFlit flit);
    void handleSaWinners(NodeId r);
    void releaseInputVc(NodeId r, Port p, int vc);
    void deliver(const EFlit &flit, NodeId node);

    ElectricalParams params_;
    MeshTopology mesh_;
    Cycle cycle_ = 0;

    std::vector<ElectricalRouter> routers_;
    std::vector<ElectricalNic> nics_;

    std::vector<PendingArrival> arrivalsNow_;
    std::vector<PendingArrival> arrivalsNext_;
    std::vector<PendingArrival> arrivalsAfter_; ///< +1 channel cycle
    std::vector<PendingEjection> ejectionsNow_;
    std::vector<PendingEjection> ejectionsNext_;

    std::vector<Delivery> deliveries_;
    NetworkCounters counters_;
    ElectricalCounters el_;
    ElectricalEvents events_;
    uint64_t outstanding_ = 0;
    uint64_t nextFlitId_ = 1;
    Cycle lastProgress_ = 0;
    std::vector<uint64_t> linkCounts_;
};

} // namespace phastlane::electrical

#endif // PHASTLANE_ELECTRICAL_NETWORK_HPP
