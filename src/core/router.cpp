#include "core/router.hpp"

#include <algorithm>
#include <climits>

#include "common/log.hpp"

namespace phastlane::core {

RouterBuffers::RouterBuffers(NodeId self, const PhastlaneParams &params)
    : self_(self),
      capacity_(params.routerBufferEntries),
      launchesPerQueue_(params.launchesPerQueue),
      sharedPool_(params.sharedBufferPool),
      policy_(params.bufferArbitration),
      admission_(params.admission),
      admissionBurst_(params.admissionBurst),
      admissionPeriod_(params.admissionPeriod)
{
    if (admission_ == AdmissionPolicy::TokenBucket)
        bucket_.reset(admissionBurst_, admissionPeriod_, 0);
}

int
RouterBuffers::sharedPoolFreeSlots(int occ) const
{
    // DAMQ with reserved slots: each queue is guaranteed half of its
    // partition; the remaining halves form a shared pool any queue
    // may borrow from.
    const int guaranteed = std::max(1, capacity_ / 2);
    const int shared_size =
        kAllPorts * (capacity_ - guaranteed);
    int shared_used = 0;
    for (const auto &queue : queues_) {
        shared_used += std::max(
            0, static_cast<int>(queue.size()) - guaranteed);
    }
    const int own_reserved = std::max(0, guaranteed - occ);
    return own_reserved + std::max(0, shared_size - shared_used);
}

void
RouterBuffers::push(Port q, OpticalPacket pkt, Cycle eligible_at)
{
    emplaceEntry(q, eligible_at).pkt = std::move(pkt);
}

BufferEntry &
RouterBuffers::emplaceEntry(Port q, Cycle eligible_at)
{
    PL_ASSERT(hasSpace(q), "pushing into a full router buffer");
    BufferEntry &e = queues_[portIndex(q)].emplace_back();
    unclassified_ |= 1u << portIndex(q);
    e.enqueuedAt = eligible_at;
    e.seq = nextSeq_++;
    ++total_;
    makeWaiting(e, eligible_at);
    return e;
}

void
RouterBuffers::scanQueue(int qi, Cycle now, unsigned &free_ports,
                         std::vector<LaunchPick> &launches,
                         Cycle &next_eligible)
{
    // Only the first eligible entry per still-free port can win, so
    // the Waiting counts bound the scan: it ends once every free port
    // this queue has Waiting entries for is resolved, the queue's
    // budget is spent, or the bucket runs dry. The losers it passes
    // or never reaches need no bookkeeping: their streaks are closed
    // form.
    uint32_t unseen = waitingTotal_[qi]; // Waiting entries not visited
    int budget = launchesPerQueue_;
    // Free ports still to resolve in this queue (never Local: no
    // port can serve those entries).
    unsigned open = budget > 0 ? waitingPorts_[qi] & free_ports : 0;
    const Port q = portFromIndex(qi);
    const bool throttled = admission_ == AdmissionPolicy::TokenBucket &&
                           q == Port::Local;
    auto &queue = queues_[qi];
    for (auto it = queue.begin();
         open != 0 && unseen != 0 && it != queue.end(); ++it) {
        BufferEntry &entry = *it;
        if (entry.state != EntryState::Waiting)
            continue;
        --unseen;
        const unsigned bit = 1u << portIndex(entry.desired);
        if (entry.eligibleAt > now || (open & bit) == 0) {
            next_eligible = std::min(next_eligible, entry.eligibleAt);
            continue;
        }
        // The admission token is consumed last, only when the launch
        // would otherwise proceed — a blocked port must not drain the
        // bucket. Once it is dry every later consume() this cycle
        // fails without side effects, so the scan ends; the entry
        // stays Waiting and eligible, and the next arbitration
        // retries.
        if (throttled &&
            !bucket_.consume(admissionBurst_, admissionPeriod_, now)) {
            next_eligible = std::min(next_eligible, entry.eligibleAt);
            break;
        }
        select(qi, entry, now);
        launches.push_back(LaunchPick{&entry, entry.desired, q});
        free_ports &= ~bit;
        open &= ~bit;
        if (--budget == 0)
            break;
    }
    // Waiting entries the scan stopped short of keep the router hot
    // for the next cycle, whose arbitration recomputes the horizon.
    if (unseen != 0)
        next_eligible = std::min(next_eligible, now + 1);
}

uint64_t
RouterBuffers::openStreak(int qi) const
{
    // Unclassified entries are not counted, but their eligibleAt is at
    // least arbCycle_: they have no open streak yet.
    if (waitingTotal_[qi] == 0)
        return 0;
    uint64_t longest = 0;
    for (const auto &entry : queues_[qi]) {
        if (entry.state == EntryState::Waiting &&
            entry.eligibleAt < arbCycle_)
            longest = std::max(longest, arbCycle_ - entry.eligibleAt);
    }
    return longest;
}

uint64_t
RouterBuffers::maxConsecutiveLosses() const
{
    uint64_t longest = maxConsecLossAll_;
    for (int qi = 0; qi < kAllPorts; ++qi)
        longest = std::max(longest, openStreak(qi));
    return longest;
}

uint64_t
RouterBuffers::maxConsecutiveLossesLocal() const
{
    return std::max(maxConsecLossLocal_,
                    openStreak(portIndex(Port::Local)));
}

BufferEntry *
RouterBuffers::findLaunchedIn(Port q, PacketId id)
{
    for (auto &entry : queues_[portIndex(q)]) {
        if (entry.state == EntryState::Launched &&
            entry.pkt.branchId == id) {
            return &entry;
        }
    }
    return nullptr;
}

BufferEntry *
RouterBuffers::findLaunched(PacketId id, Port *queue_out)
{
    for (Port q : kAllPortList) {
        if (BufferEntry *entry = findLaunchedIn(q, id)) {
            if (queue_out)
                *queue_out = q;
            return entry;
        }
    }
    return nullptr;
}

void
RouterBuffers::erase(int qi, std::deque<BufferEntry>::iterator it)
{
    // A Launched entry was classified, and the classified entries
    // are a prefix, so the prefix loses one.
    PL_ASSERT(classified_[qi] > 0, "erasing an unclassified entry");
    queues_[qi].erase(it);
    --classified_[qi];
    --total_;
}

void
RouterBuffers::releaseLaunched(Port q, PacketId id)
{
    const int qi = portIndex(q);
    auto &queue = queues_[qi];
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->state == EntryState::Launched &&
            it->pkt.branchId == id) {
            erase(qi, it);
            return;
        }
    }
    panic("releaseLaunched: packet %llu not in queue %d at router %d",
          static_cast<unsigned long long>(id), qi, self_);
}

void
RouterBuffers::releaseLaunched(PacketId id)
{
    Port q = Port::Local;
    if (findLaunched(id, &q) == nullptr)
        panic("releaseLaunched: packet %llu not found at router %d",
              static_cast<unsigned long long>(id), self_);
    releaseLaunched(q, id);
}

void
RouterBuffers::restoreDropped(PacketId id, Cycle eligible_at)
{
    Port q = Port::Local;
    BufferEntry *entry = findLaunched(id, &q);
    if (!entry)
        panic("restoreDropped: packet %llu not found at router %d",
              static_cast<unsigned long long>(id), self_);
    restoreDropped(q, *entry, eligible_at);
}

void
RouterBuffers::restoreDropped(Port q, BufferEntry &entry,
                              Cycle eligible_at)
{
    PL_ASSERT(entry.state == EntryState::Launched,
              "restoreDropped: packet %llu is not in flight",
              static_cast<unsigned long long>(entry.pkt.branchId));
    // enqueuedAt is deliberately untouched: residence age accumulates
    // across drop/retry rounds so AgeBoost sees true starvation.
    countWaiting(portIndex(q), entry.desired);
    ++entry.attempts;
    makeWaiting(entry, eligible_at);
}

} // namespace phastlane::core
