/**
 * @file
 * Lockstep batch executor over independent PhastlaneNetwork instances
 * (DESIGN.md §13).
 *
 * A NetworkBatch owns no networks; it *attaches* to B same-shape
 * instances and advances them one cycle at a time in attach order.
 * Three structures make the gang cheaper than stepping the instances
 * separately:
 *
 *  - a gang-shared StepScratch: every instance's per-cycle scratch
 *    (claim planes, flight lists, request chains) aliases one hot
 *    allocation instead of B cold ones;
 *  - an instance-major launch board: one contiguous Cycle word per
 *    (instance, router) mirroring the router's arbitration horizon,
 *    so the launch phase skips idle routers without touching their
 *    queues;
 *  - instance-major NIC-occupancy bit planes: one bit per
 *    (instance, node), set on inject and cleared when the NIC drains,
 *    so the NIC-transfer phase visits only non-empty NICs.
 *
 * Every skipped call is one the serial engine would have early-exited
 * anyway (modulo the rotating-arbiter pointer, replayed lazily via
 * RouterBuffers::syncRotate), so batched execution is bit-identical
 * to per-instance serial stepping: same counters, same delivery
 * cycles, same RNG streams.
 */

#ifndef PHASTLANE_CORE_BATCH_HPP
#define PHASTLANE_CORE_BATCH_HPP

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/network.hpp"

namespace phastlane::core {

/**
 * Lockstep executor over B attached PhastlaneNetwork instances.
 */
class NetworkBatch
{
  public:
    NetworkBatch() = default;
    ~NetworkBatch();

    NetworkBatch(const NetworkBatch &) = delete;
    NetworkBatch &operator=(const NetworkBatch &) = delete;

    /**
     * True when @p net can join a batch: no observer attached (the
     * batch cycle does not replay the onCycleBegin/onCycleEnd hooks)
     * and an FCFS wavefront (GlobalPriority is the ablation model and
     * stays on the reference path).
     */
    static bool eligible(const PhastlaneNetwork &net);

    /** True when @p net matches the gang's mesh shape (the first
     *  attach fixes it); always true while the batch is empty. */
    bool compatible(const PhastlaneNetwork &net) const;

    /**
     * Attach @p net as the next instance. Requires eligible(net) &&
     * compatible(net) and that @p net outlives the batch (or
     * detachAll() runs first). While attached, the instance must only
     * be stepped through the batch; inject() and all read-side
     * accessors remain valid between cycles.
     */
    void attach(PhastlaneNetwork &net);

    /** Detach every instance, restoring their private scratch. */
    void detachAll();

    size_t size() const { return nets_.size(); }
    PhastlaneNetwork &instance(size_t i) { return *nets_[i]; }

    /** Advance instance @p i one cycle (bit-identical to a serial
     *  net.step() on the same state). */
    void stepInstance(size_t i);

    /** Advance every attached instance one cycle, in attach order. */
    void stepAll();

  private:
    void stepOne(PhastlaneNetwork &net, size_t slot);
    void batchNicToLocal(PhastlaneNetwork &net, size_t slot);
    void batchLaunchPhase(PhastlaneNetwork &net, size_t slot);
    /** Re-point every instance's board/occupancy slots after the
     *  backing vectors grew (attach invalidates prior pointers). */
    void rebindAll();

    std::vector<PhastlaneNetwork *> nets_;
    int nodeCount_ = 0; ///< gang shape; 0 until the first attach
    int nicWords_ = 0;  ///< 64-bit words per instance occupancy plane
    /** Gang-shared per-cycle scratch (PhastlaneNetwork::StepScratch);
     *  created at first attach once the shape is known. */
    std::unique_ptr<PhastlaneNetwork::StepScratch> scratch_;
    /** Instance-major launch boards: earliest cycle router r of
     *  instance i may launch, at [i * nodeCount + r]; kNeverCycle
     *  when the router is empty. */
    std::vector<Cycle> launchBoard_;
    /** Instance-major NIC occupancy bits, one word run per instance
     *  at [i * nicWords .. (i + 1) * nicWords). */
    std::vector<uint64_t> nicOcc_;
};

} // namespace phastlane::core

#endif // PHASTLANE_CORE_BATCH_HPP
