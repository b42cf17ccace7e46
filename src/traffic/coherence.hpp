/**
 * @file
 * Closed-loop coherence workload driver.
 *
 * Replays a pre-generated per-node transaction stream (splash.hpp)
 * against a Network, modeling the snoopy protocol's self-throttling:
 * a node may have at most mshrLimit requests outstanding; each
 * broadcast request is answered by a unicast data response from its
 * home node after the home's service latency. The benchmark's
 * "network speedup" is the ratio of completion cycles between two
 * networks running the identical stream.
 */

#ifndef PHASTLANE_TRAFFIC_COHERENCE_HPP
#define PHASTLANE_TRAFFIC_COHERENCE_HPP

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "net/network.hpp"
#include "traffic/splash.hpp"

namespace phastlane::traffic {

/** Results of one closed-loop run. */
struct CoherenceResult {
    Cycle completionCycles = 0;
    uint64_t transactions = 0;
    uint64_t broadcasts = 0;
    uint64_t unicasts = 0;

    /**
     * Mean per-delivery latency (creation -> delivery over every
     * delivery of every message).
     */
    double avgLatency = 0.0;

    /**
     * Mean per-message network latency: creation -> last delivery of
     * the message (a broadcast completes when its 63rd copy lands).
     * "Network speedup" in Fig 10 is the ratio of this metric against
     * the Electrical3 baseline; the completion-cycle ratio is
     * reported alongside. This metric exposes both the latency
     * advantage at low load and the drop-retry tails under pressure.
     */
    double avgMessageLatency = 0.0;
    double avgRequestLatency = 0.0;  ///< request creation -> home
    double avgRoundTrip = 0.0;       ///< request creation -> response
    bool timedOut = false;
};

/**
 * Drives one network with one benchmark's streams.
 */
class CoherenceDriver
{
  public:
    /**
     * @param streams Pre-generated with generateStreams(); must have
     *        one stream per network node.
     * @param mshr_limit Outstanding-request cap per node.
     */
    CoherenceDriver(Network &net,
                    const std::vector<std::vector<Txn>> &streams,
                    int mshr_limit);

    /** Run to completion (or @p max_cycles). */
    CoherenceResult run(Cycle max_cycles = 20000000);

    // Step-wise interface, equivalent to run() but with the
    // net_.step() call in the caller's hands (a MultiSim job, or a
    // harness that inspects every cycle):
    //   begin(max_cycles);
    //   while (!done()) { preStep(); net.step(); postStep(); }
    //   result = finish();

    /** Arm the run deadline. Call once, before the first preStep(). */
    void begin(Cycle max_cycles = 20000000);
    /** True when every stream completed and drained, or the deadline
     *  passed. */
    bool done() const;
    /** Issue side of one cycle: release matured responses, issue
     *  transactions, pump send queues into the NIC. */
    void preStep();
    /** Harvest side of one cycle: process deliveries, schedule home
     *  responses, retire round trips. */
    void postStep();
    /** Build the result (call once, after done() turns true). */
    CoherenceResult finish();

    Network &network() { return net_; }

  private:
    struct NodeState {
        size_t next = 0;        ///< next stream index
        int outstanding = 0;    ///< requests awaiting responses
        Cycle readyAt = 0;      ///< next issue opportunity
        std::deque<Packet> sendQueue;
        /** Responses waiting out their service latency. */
        std::deque<std::pair<Cycle, Packet>> responseQueue;
    };

    /** In-flight request bookkeeping, keyed by tag. */
    struct PendingRequest {
        NodeId requester = kInvalidNode;
        NodeId home = kInvalidNode;
        Cycle serviceLatency = 0;
        Cycle createdAt = 0;
    };

    /** Per-message completion tracking (done at last delivery). */
    struct MsgTrack {
        int remaining;
        Cycle createdAt;
    };

    bool allDone() const;

    Network &net_;
    const std::vector<std::vector<Txn>> &streams_;
    int mshrLimit_;
    std::vector<NodeState> nodes_;
    std::unordered_map<uint64_t, PendingRequest> pending_;
    uint64_t nextTag_ = 1;
    uint64_t nextPacketId_ = 1;

    // Run-scoped state for the step-wise interface.
    CoherenceResult res_;
    RunningStat latency_;
    RunningStat msgLatency_;
    RunningStat reqLatency_;
    RunningStat roundTrip_;
    std::unordered_map<uint64_t, MsgTrack> openMsgs_;
    Cycle start_ = 0;
    Cycle deadline_ = 0;
    bool begun_ = false;

    /** Cap on queued-but-uninjected packets per node before issue
     *  stalls (models finite miss-queue depth beyond the NIC). */
    static constexpr size_t kSendQueueLimit = 8;
};

} // namespace phastlane::traffic

#endif // PHASTLANE_TRAFFIC_COHERENCE_HPP
