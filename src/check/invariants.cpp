#include "check/invariants.hpp"

#include <cinttypes>
#include <cstdio>

#include "common/log.hpp"

namespace phastlane::check {

InvariantChecker::InvariantChecker(const core::PhastlaneNetwork &net,
                                   bool abort_on_violation)
    : net_(net), abort_(abort_on_violation)
{
}

void
InvariantChecker::violation(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::string msg = "cycle " + std::to_string(cycle_) + ": " + buf;
    if (abort_)
        panic("invariant violation: %s", msg.c_str());
    violations_.push_back(std::move(msg));
}

void
InvariantChecker::onCycleBegin(Cycle cycle)
{
    cycle_ = cycle;
    // Successes recorded in earlier cycles have had their holder
    // buffer slots released by this cycle's outcome resolution. Lost
    // drop signals and dead-router black holes release slots the same
    // way (the holder never learns anything went wrong).
    successesResolved_ = finals_ + bufferReceives_ + resolvedNoRetry_;
    hopsThisCycle_.clear();
}

void
InvariantChecker::onAccept(const Packet &pkt, int branches,
                           int delivery_units)
{
    ++acceptedMessages_;
    acceptedBranches_ += static_cast<uint64_t>(branches);
    acceptedUnits_ += static_cast<uint64_t>(delivery_units);
    // A dead source accepts the message without enqueuing any branch
    // (all units are accounted lost immediately); otherwise at least
    // one branch must exist.
    const bool dead_source =
        branches == 0 && net_.routerFailed(pkt.src);
    if ((branches < 1 && !dead_source) || delivery_units < branches) {
        violation("message %" PRIu64
                  " accepted with %d branches for %d delivery units",
                  pkt.id, branches, delivery_units);
    }
    perMessage_[pkt.id].addressed +=
        static_cast<uint64_t>(delivery_units);
}

void
InvariantChecker::onLaunch(const core::OpticalPacket &pkt,
                           NodeId router, Port out, int attempts)
{
    (void)out;
    (void)router;
    ++launches_;
    if (attempts > 0)
        ++retransmissions_;
    // The launch enters the first downstream router: one hop.
    hopsThisCycle_[pkt.branchId] = 1;
}

void
InvariantChecker::onPass(const core::OpticalPacket &pkt, NodeId router)
{
    (void)router;
    ++passes_;
    auto it = hopsThisCycle_.find(pkt.branchId);
    if (it == hopsThisCycle_.end()) {
        violation("branch %" PRIu64 " passed router %d without a "
                  "launch this cycle",
                  pkt.branchId, router);
        return;
    }
    ++it->second;
    if (it->second > net_.params().maxHopsPerCycle) {
        violation("branch %" PRIu64 " crossed %d routers, above the "
                  "per-cycle limit %d",
                  pkt.branchId, it->second,
                  net_.params().maxHopsPerCycle);
    }
}

void
InvariantChecker::onDeliver(const Delivery &d)
{
    ++deliveredUnits_;
    if (!delivered_.emplace(d.packet.id, d.node).second) {
        violation("duplicate delivery of message %" PRIu64
                  " at node %d",
                  d.packet.id, d.node);
    }
    auto &pm = perMessage_[d.packet.id];
    ++pm.delivered;
    if (pm.delivered + pm.lost > pm.addressed) {
        violation("message %" PRIu64 " delivered %" PRIu64 " + lost %"
                  PRIu64 " for %" PRIu64 " addressed units",
                  d.packet.id, pm.delivered, pm.lost, pm.addressed);
    }
}

void
InvariantChecker::onBranchFinal(const core::OpticalPacket &pkt,
                                NodeId router)
{
    ++finals_;
    if (pkt.multicast) {
        // The final router is the branch's last tap; after the tap on
        // arrival no target may remain unserved.
        if (!pkt.tapsDone()) {
            violation("multicast branch %" PRIu64 " finished at node "
                      "%d with %zu taps unserved",
                      pkt.branchId, router, pkt.taps.size() - pkt.tapCursor);
        }
    } else if (router != pkt.finalDst) {
        violation("unicast branch %" PRIu64 " finished at node %d, "
                  "destination %d",
                  pkt.branchId, router, pkt.finalDst);
    }
}

void
InvariantChecker::onBufferReceive(const core::OpticalPacket &pkt,
                                  NodeId router, Port queue,
                                  bool interim)
{
    (void)pkt;
    (void)interim;
    ++bufferReceives_;
    const auto &rb = net_.routerBuffers(router);
    const int cap = net_.params().routerBufferEntries;
    if (cap > 0 && !net_.params().sharedBufferPool &&
        rb.occupancy(queue) > static_cast<size_t>(cap)) {
        violation("router %d queue %s holds %zu entries, depth %d",
                  router, portName(queue), rb.occupancy(queue), cap);
    }
}

void
InvariantChecker::onDrop(const core::OpticalPacket &pkt, NodeId router,
                         NodeId launch_router, int signal_hops,
                         bool signal_lost)
{
    (void)launch_router;
    ++drops_;
    dropSignalHops_ += static_cast<uint64_t>(signal_hops);
    if (signal_lost) {
        // The return signal was eaten by an injected fault: it covers
        // no links and the holder's slot frees as if it succeeded.
        ++dropSignalsLost_;
        ++resolvedNoRetry_;
        if (signal_hops != 0) {
            violation("branch %" PRIu64 " dropped at node %d with a "
                      "lost signal reporting %d hops",
                      pkt.branchId, router, signal_hops);
        }
        return;
    }
    const auto it = hopsThisCycle_.find(pkt.branchId);
    const int hops =
        it == hopsThisCycle_.end() ? 0 : it->second;
    if (signal_hops != hops) {
        // The signal retraces exactly the links the packet crossed
        // this cycle (launch link + passes).
        violation("branch %" PRIu64 " dropped at node %d: signal "
                  "travels %d hops, packet traveled %d",
                  pkt.branchId, router, signal_hops, hops);
    }
}

void
InvariantChecker::onLost(const Packet &pkt, uint64_t branch_id,
                         NodeId router, int units,
                         core::LostCause cause)
{
    (void)branch_id;
    (void)router;
    if (units < 0) {
        violation("message %" PRIu64 " lost a negative unit count %d",
                  pkt.id, units);
        return;
    }
    lostUnits_ += static_cast<uint64_t>(units);
    auto &pm = perMessage_[pkt.id];
    pm.lost += static_cast<uint64_t>(units);
    if (pm.delivered + pm.lost > pm.addressed) {
        violation("message %" PRIu64 " delivered %" PRIu64 " + lost %"
                  PRIu64 " for %" PRIu64 " addressed units",
                  pkt.id, pm.delivered, pm.lost, pm.addressed);
    }
    // A dead-router black hole frees the holder's slot without any
    // final or buffer receive; the other causes either have no slot
    // (dead source), keep the flight going (missed receive), or are
    // already counted through onDrop (lost signal).
    if (cause == core::LostCause::DeadRouter)
        ++resolvedNoRetry_;
}

void
InvariantChecker::onDuplicate(const core::OpticalPacket &pkt,
                              NodeId router)
{
    (void)router;
    ++duplicatesSuppressed_;
    // Suppression requires a corruption-replay watermark; a duplicate
    // on a packet without one is a protocol bug.
    if (pkt.dedupBelow == 0) {
        violation("branch %" PRIu64 " suppressed a duplicate without "
                  "a dedup watermark",
                  pkt.branchId);
    }
}

void
InvariantChecker::onCycleEnd(Cycle cycle)
{
    if (cycle != cycle_) {
        violation("cycle end %" PRIu64 " without matching begin",
                  cycle);
    }
    ++cyclesChecked_;
    const auto &pc = net_.phastlaneCounters();
    const auto &ev = net_.events();

    // Unit conservation: accepted == delivered + lost + in flight.
    if (acceptedUnits_ !=
        deliveredUnits_ + lostUnits_ + net_.inFlight()) {
        violation("unit conservation broken: accepted %" PRIu64
                  " != delivered %" PRIu64 " + lost %" PRIu64
                  " + in-flight %" PRIu64,
                  acceptedUnits_, deliveredUnits_, lostUnits_,
                  net_.inFlight());
    }

    // Buffer-slot conservation. Entries are created by NIC-to-local
    // transfers and buffer receives, and destroyed when a success
    // resolves (one cycle after the final/receive downstream); a
    // dropped branch keeps its slot for the retransmission.
    const int64_t nic_transfers =
        static_cast<int64_t>(acceptedBranches_) -
        static_cast<int64_t>(net_.nicQueuedPackets());
    const int64_t expected_buffered =
        nic_transfers + static_cast<int64_t>(bufferReceives_) -
        static_cast<int64_t>(successesResolved_);
    if (static_cast<int64_t>(net_.bufferedPackets()) !=
        expected_buffered) {
        violation("buffer-slot conservation broken: %" PRIu64
                  " buffered, ledger expects %lld",
                  net_.bufferedPackets(),
                  static_cast<long long>(expected_buffered));
    }

    // Buffer depth bound across every router.
    const int cap = net_.params().routerBufferEntries;
    if (cap > 0) {
        const size_t router_cap =
            static_cast<size_t>(cap) * kAllPorts;
        for (NodeId n = 0; n < net_.nodeCount(); ++n) {
            const auto &rb = net_.routerBuffers(n);
            if (rb.totalOccupancy() > router_cap) {
                violation("router %d holds %zu entries, capacity %zu",
                          n, rb.totalOccupancy(), router_cap);
            }
            if (net_.params().sharedBufferPool)
                continue;
            for (Port q : kAllPortList) {
                if (rb.occupancy(q) > static_cast<size_t>(cap)) {
                    violation("router %d queue %s holds %zu entries, "
                              "depth %d",
                              n, portName(q), rb.occupancy(q), cap);
                }
            }
        }
    }

    // The network's own counters must agree with the ledger.
    if (net_.counters().deliveries != deliveredUnits_)
        violation("delivery counter %" PRIu64 " != ledger %" PRIu64,
                  net_.counters().deliveries, deliveredUnits_);
    if (net_.counters().messagesAccepted != acceptedMessages_)
        violation("accept counter %" PRIu64 " != ledger %" PRIu64,
                  net_.counters().messagesAccepted, acceptedMessages_);
    if (pc.drops != drops_ || ev.drops != drops_)
        violation("drop counters %" PRIu64 "/%" PRIu64
                  " != ledger %" PRIu64,
                  pc.drops, ev.drops, drops_);
    if (pc.launches != launches_ || ev.launches != launches_)
        violation("launch counters %" PRIu64 "/%" PRIu64
                  " != ledger %" PRIu64,
                  pc.launches, ev.launches, launches_);
    if (pc.retransmissions != retransmissions_)
        violation("retransmission counter %" PRIu64
                  " != ledger %" PRIu64,
                  pc.retransmissions, retransmissions_);
    if (ev.passTraversals != passes_)
        violation("pass counter %" PRIu64 " != ledger %" PRIu64,
                  ev.passTraversals, passes_);
    if (ev.dropSignalHops != dropSignalHops_)
        violation("drop-signal-hop counter %" PRIu64
                  " != ledger %" PRIu64,
                  ev.dropSignalHops, dropSignalHops_);
    if (pc.interimAccepts + pc.blockedBuffered != bufferReceives_)
        violation("buffer-receive counters %" PRIu64 " + %" PRIu64
                  " != ledger %" PRIu64,
                  pc.interimAccepts, pc.blockedBuffered,
                  bufferReceives_);
    if (ev.lostUnits != lostUnits_)
        violation("lost-unit counter %" PRIu64 " != ledger %" PRIu64,
                  ev.lostUnits, lostUnits_);
    if (ev.dropSignalsLost != dropSignalsLost_)
        violation("lost-signal counter %" PRIu64 " != ledger %" PRIu64,
                  ev.dropSignalsLost, dropSignalsLost_);
    if (ev.duplicatesSuppressed != duplicatesSuppressed_)
        violation("duplicate counter %" PRIu64 " != ledger %" PRIu64,
                  ev.duplicatesSuppressed, duplicatesSuppressed_);

    // Every drop whose signal returned is eventually retransmitted,
    // never more than once per drop: retransmissions can lag drops
    // but not exceed them (lost signals never retransmit).
    if (retransmissions_ + dropSignalsLost_ > drops_)
        violation("%" PRIu64 " retransmissions + %" PRIu64
                  " lost signals for %" PRIu64 " drops",
                  retransmissions_, dropSignalsLost_, drops_);
}

void
InvariantChecker::checkQuiescent()
{
    if (net_.inFlight() != 0 || net_.bufferedPackets() != 0 ||
        net_.nicQueuedPackets() != 0) {
        violation("not quiescent: %" PRIu64 " in flight, %" PRIu64
                  " buffered, %" PRIu64 " NIC-queued",
                  net_.inFlight(), net_.bufferedPackets(),
                  net_.nicQueuedPackets());
        return;
    }
    if (deliveredUnits_ + lostUnits_ != acceptedUnits_) {
        violation("quiescent with %" PRIu64 " delivered + %" PRIu64
                  " lost of %" PRIu64 " units",
                  deliveredUnits_, lostUnits_, acceptedUnits_);
    }
    if (drops_ != retransmissions_ + dropSignalsLost_) {
        violation("quiescent with %" PRIu64 " drops but %" PRIu64
                  " retransmissions + %" PRIu64 " lost signals",
                  drops_, retransmissions_, dropSignalsLost_);
    }
    // Exactly once or accounted lost, per message: every addressed
    // unit either arrived (once; delivered_ catches duplicates) or
    // was reported lost.
    for (const auto &[id, pm] : perMessage_) {
        if (pm.delivered + pm.lost != pm.addressed) {
            violation("quiescent message %" PRIu64 ": %" PRIu64
                      " delivered + %" PRIu64 " lost != %" PRIu64
                      " addressed",
                      id, pm.delivered, pm.lost, pm.addressed);
        }
    }
}

} // namespace phastlane::check
