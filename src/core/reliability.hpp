/**
 * @file
 * End-to-end reliability layer over a lossy network (DESIGN.md §10.3).
 *
 * Under injected faults the optical network may silently lose delivery
 * units (missed receives, lost drop signals, dead routers). ReliableNic
 * restores exactly-once message semantics on top of it the way a real
 * protocol stack would:
 *
 *   - every message gets a sequence number, encoded into the wire
 *     packet id together with the attempt number;
 *   - the source tracks each outstanding message and retransmits after
 *     a deterministic exponential timeout, up to maxRetries times;
 *   - the receive side suppresses duplicates per (sequence, node), so
 *     a retransmitted broadcast re-delivering to already-served nodes
 *     is invisible to the application;
 *   - a message whose retries are exhausted is reported lost, with the
 *     missing delivery units accounted in stats().lostUnits.
 *
 * Everything is deterministic: timeouts are pure functions of the
 * accept cycle and attempt number, trackers are scanned in sequence
 * order, and no RNG is consumed, so a run is reproducible at any
 * thread count and bit-identical when fault rates are zero.
 */

#ifndef PHASTLANE_CORE_RELIABILITY_HPP
#define PHASTLANE_CORE_RELIABILITY_HPP

#include <map>
#include <set>
#include <vector>

#include "net/network.hpp"

namespace phastlane::core {

/** Tuning knobs of the reliability layer. */
struct ReliableNicOptions {
    /** First retransmit timeout, in cycles after the send. */
    Cycle baseTimeout = 256;

    /** Retransmits allowed per message before declaring it lost. */
    int maxRetries = 8;

    /** Exponential-backoff cap: timeout = baseTimeout << min(attempt,
     *  backoffShiftCap). */
    int backoffShiftCap = 6;
};

/** Cumulative statistics of one ReliableNic. */
struct ReliableNicStats {
    uint64_t sends = 0;          ///< messages accepted from the app
    uint64_t retransmits = 0;    ///< timeout-driven re-injections
    uint64_t timeouts = 0;       ///< deadline expiries observed
    uint64_t duplicates = 0;     ///< deliveries suppressed as repeats
    uint64_t late = 0;           ///< deliveries after tracker closure
    uint64_t completed = 0;      ///< messages fully delivered
    uint64_t expired = 0;        ///< messages that exhausted retries
    uint64_t lostUnits = 0;      ///< delivery units never served
};

/**
 * Source-side reliability wrapper around a Network. The caller drives
 * it instead of the raw network: send() then step() once per cycle;
 * deliveries() yields exactly-once deliveries carrying the original
 * packet ids.
 */
class ReliableNic
{
  public:
    explicit ReliableNic(Network &net,
                         const ReliableNicOptions &opts = {});

    /**
     * Offer a message. Returns false (network unchanged) when the
     * source NIC has no space. The packet id must not have the wire
     * flag bit (1 << 63) set.
     */
    bool send(const Packet &pkt);

    /** Advance the network one cycle, harvest deliveries, and run the
     *  retransmit timers. */
    void step();

    /** The non-network half of step(): harvest the cycle's deliveries
     *  and run the retransmit timers. For callers that step the
     *  underlying network themselves (the fault sweep's points); call
     *  once after every network step. */
    void afterNetStep();

    /** Deduplicated deliveries completed during the last step(),
     *  rewritten to the original packet ids. */
    const std::vector<Delivery> &deliveries() const
    {
        return deliveries_;
    }

    /** Delivery units still owed to the application. */
    uint64_t inFlight() const;

    /** True when no message is awaiting delivery or retransmit. */
    bool idle() const { return trackers_.empty(); }

    const ReliableNicStats &stats() const { return stats_; }
    Network &network() { return net_; }

    /** True when @p id is a wire id minted by a ReliableNic. */
    static bool isWireId(PacketId id) { return (id & kWireFlag) != 0; }

  private:
    static constexpr PacketId kWireFlag = PacketId{1} << 63;
    static constexpr int kAttemptBits = 8;

    /** Source-side state of one outstanding message. */
    struct Tracker {
        Packet original;
        Cycle sentAt = 0;    ///< cycle of the latest (re)send
        Cycle deadline = 0;  ///< next timeout check
        int attempt = 0;     ///< retransmits performed so far
        int expected = 0;    ///< total delivery units owed
        std::set<NodeId> delivered;
    };

    PacketId wireId(uint64_t seq, int attempt) const
    {
        return kWireFlag | (static_cast<PacketId>(seq) << kAttemptBits)
               | static_cast<PacketId>(attempt & 0xff);
    }
    static uint64_t seqOf(PacketId wire)
    {
        return (wire & ~kWireFlag) >> kAttemptBits;
    }

    Cycle timeoutFor(int attempt) const;
    void harvestDeliveries();
    void runTimers();

    Network &net_;
    ReliableNicOptions opts_;
    uint64_t nextSeq_ = 1;
    /** Ordered by sequence number so timer scans are deterministic. */
    std::map<uint64_t, Tracker> trackers_;
    std::vector<Delivery> deliveries_;
    ReliableNicStats stats_;
};

} // namespace phastlane::core

#endif // PHASTLANE_CORE_RELIABILITY_HPP
