#include "electrical/router.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"

namespace phastlane::electrical {

namespace {

constexpr uint64_t
bit(int i)
{
    return uint64_t{1} << i;
}

/** Clear and return the lowest set bit's index; @p m is nonzero. */
int
popLowest(uint64_t &m)
{
    const int i = std::countr_zero(m);
    m &= m - 1;
    return i;
}

/** The first set bit of @p m at or above @p from, wrapping around;
 *  -1 when @p m is empty. */
int
firstFrom(uint64_t m, int from)
{
    if (m == 0)
        return -1;
    const uint64_t high = m & (~uint64_t{0} << from);
    return std::countr_zero(high ? high : m);
}

} // namespace

ElectricalRouter::ElectricalRouter(NodeId self,
                                   const ElectricalParams &params)
    : self_(self),
      params_(params),
      totalVcs_(kAllPorts * params.vcsPerPort),
      table_(params.vctmTableEntries)
{
    if (params.vcsPerPort < 1 || totalVcs_ > kMaxInputVcs) {
        fatal("vcsPerPort = %d: the %d ports' input VCs must fit the "
              "router's %d-bit VC masks (1..%d per port)",
              params.vcsPerPort, kAllPorts, kMaxInputVcs,
              kMaxInputVcs / kAllPorts);
    }
    inputs_.resize(static_cast<size_t>(totalVcs_));
    outputs_.resize(static_cast<size_t>(kMeshPorts * params.vcsPerPort));
    freeOut_.fill(bit(params.vcsPerPort) - 1);
}

const InputVc &
ElectricalRouter::inputVc(Port p, int v) const
{
    return inputs_[static_cast<size_t>(index(p, v))];
}

const OutputVc &
ElectricalRouter::outputVc(Port p, int v) const
{
    PL_ASSERT(p != Port::Local, "no output VCs on the local port");
    return outputs_[static_cast<size_t>(index(p, v))];
}

int
ElectricalRouter::freeInputVc(Port p) const
{
    const int V = params_.vcsPerPort;
    const uint64_t free =
        ~(busy_ >> (portIndex(p) * V)) & (bit(V) - 1);
    return free ? std::countr_zero(free) : -1;
}

Cycle
ElectricalRouter::vaStage(Cycle arrival) const
{
    const int off = std::max(0, params_.routerDelay - 2);
    return arrival + static_cast<Cycle>(off);
}

Cycle
ElectricalRouter::saStage(Cycle arrival) const
{
    return arrival + static_cast<Cycle>(params_.routerDelay - 1);
}

void
ElectricalRouter::receive(Port p, int v, EFlit &&flit, Cycle now,
                          uint8_t mesh_ports)
{
    const int gi = index(p, v);
    InputVc &ivc = inputs_[static_cast<size_t>(gi)];
    PL_ASSERT(!ivc.busy(), "arrival into an occupied VC at node %d",
              self_);
    ivc.flit = std::move(flit);
    ivc.arrivedAt = now;
    ivc.pendingMesh = mesh_ports;
    ivc.ejecting = mesh_ports == 0;
    busy_ |= bit(gi);
    for (uint32_t m = mesh_ports; m != 0; m &= m - 1)
        vaReq_[static_cast<size_t>(std::countr_zero(m))] |= bit(gi);
}

SentBranch
ElectricalRouter::sendBranch(const SaWinner &w)
{
    const int gi = index(w.inPort, w.inVc);
    const int po = portIndex(w.outPort);
    InputVc &ivc = inputs_[static_cast<size_t>(gi)];
    PL_ASSERT(ivc.busy() && ivc.branchVc[static_cast<size_t>(po)] ==
                                w.outVc,
              "SA winner without a matching branch");
    outputs_[static_cast<size_t>(index(w.outPort, w.outVc))].state =
        OutputVc::State::Occupied;
    ivc.branchVc[static_cast<size_t>(po)] = -1;
    ivc.pendingMesh &= static_cast<uint8_t>(~(1u << po));
    saReq_[static_cast<size_t>(po)] &= ~bit(gi);
    if (ivc.pendingMesh != 0)
        return SentBranch{*ivc.flit, false};
    return SentBranch{std::move(*ivc.flit), true};
}

void
ElectricalRouter::releaseInput(Port p, int v)
{
    const int gi = index(p, v);
    InputVc &ivc = inputs_[static_cast<size_t>(gi)];
    PL_ASSERT(ivc.busy(), "releasing an empty input VC");
    PL_ASSERT(ivc.pendingMesh == 0,
              "releasing an input VC with unsent branches");
    ivc.flit.reset();
    ivc.ejecting = false;
    busy_ &= ~bit(gi);
}

void
ElectricalRouter::returnCredit(Port out, int v, Cycle visible_at)
{
    OutputVc &ovc = outputs_[static_cast<size_t>(index(out, v))];
    PL_ASSERT(ovc.state == OutputVc::State::Occupied,
              "credit for a non-occupied output VC");
    ovc.state = OutputVc::State::Free;
    ovc.freeAt = visible_at;
    freeOut_[static_cast<size_t>(portIndex(out))] |= bit(v);
}

int
ElectricalRouter::allocateVcs(Cycle now)
{
    if (vaReqAny() == 0)
        return 0;
    const int V = params_.vcsPerPort;
    int grants = 0;
    for (int po = 0; po < kMeshPorts; ++po) {
        const auto p = static_cast<size_t>(po);
        uint64_t free = freeOut_[p];
        if (vaReq_[p] == 0 || free == 0)
            continue;
        // Requesters in round-robin order from the port's pointer:
        // the bits at or above it, then the wrapped-around ones. Each
        // one past its VA stage takes the lowest free output VC whose
        // credit is visible by now, until those run out.
        const uint64_t high = vaReq_[p] & (~uint64_t{0} << vaPtr_[p]);
        int last = -1;
        for (uint64_t reqs : {high, vaReq_[p] & ~high}) {
            while (reqs != 0 && free != 0) {
                const int gi = popLowest(reqs);
                InputVc &ivc = inputs_[static_cast<size_t>(gi)];
                if (now < vaStage(ivc.arrivedAt))
                    continue;
                int ov = -1;
                while (free != 0 && ov < 0) {
                    const int v = popLowest(free);
                    if (outputs_[static_cast<size_t>(po * V + v)]
                            .freeAt <= now)
                        ov = v;
                }
                if (ov < 0)
                    break;
                ivc.branchVc[p] = ov;
                outputs_[static_cast<size_t>(po * V + ov)].state =
                    OutputVc::State::Assigned;
                freeOut_[p] &= ~bit(ov);
                vaReq_[p] &= ~bit(gi);
                saReq_[p] |= bit(gi);
                last = gi;
                ++grants;
            }
        }
        if (last >= 0)
            vaPtr_[p] = (last + 1) % totalVcs_;
    }
    return grants;
}

std::span<const SaWinner>
ElectricalRouter::allocateSwitch(Cycle now)
{
    const int V = params_.vcsPerPort;
    size_t count = 0;

    // Stage timing, tested once per input VC holding an output VC.
    uint64_t ready = 0;
    for (uint64_t m = saReqAny(); m != 0;) {
        const int gi = popLowest(m);
        if (now >= saStage(inputs_[static_cast<size_t>(gi)].arrivedAt))
            ready |= bit(gi);
    }
    if (ready == 0)
        return {};

    int input_grants[kAllPorts] = {0, 0, 0, 0, 0};
    uint64_t exhausted = 0; ///< VCs of inputs out of speedup budget
    bool output_matched[kMeshPorts] = {false, false, false, false};

    const int iterations = std::max(1, params_.allocIterations);
    for (int iter = 0; iter < iterations; ++iter) {
        // Grant: every unmatched output offers to its first requester
        // at or above its pointer whose input has budget left.
        int grant_to[kMeshPorts] = {-1, -1, -1, -1};
        for (int po = 0; po < kMeshPorts; ++po) {
            const auto p = static_cast<size_t>(po);
            if (!output_matched[po])
                grant_to[po] =
                    firstFrom(saReq_[p] & ready & ~exhausted, saPtr_[p]);
        }
        // Accept: each input port accepts grants in round-robin
        // order of output ports, within its speedup budget. The scan
        // re-reads the accept pointer, so a first-iteration accept
        // shifts the rest of the scan; the pinned results depend on it.
        bool any = false;
        for (int pi = 0; pi < kAllPorts; ++pi) {
            for (int k = 0; k < kMeshPorts; ++k) {
                const int po =
                    (acceptPtr_[static_cast<size_t>(pi)] + k) %
                    kMeshPorts;
                const int gi = grant_to[po];
                if (gi < 0 || gi / V != pi)
                    continue;
                if (input_grants[pi] >= params_.inputSpeedup)
                    continue;
                winners_[count++] = SaWinner{
                    portFromIndex(pi), gi % V, portFromIndex(po),
                    inputs_[static_cast<size_t>(gi)]
                        .branchVc[static_cast<size_t>(po)]};
                output_matched[po] = true;
                if (++input_grants[pi] >= params_.inputSpeedup)
                    exhausted |= (bit(V) - 1) << (pi * V);
                grant_to[po] = -1;
                any = true;
                // iSLIP pointer update: only on first-iteration
                // matches, to preserve desynchronization.
                if (iter == 0) {
                    saPtr_[static_cast<size_t>(po)] =
                        (gi + 1) % totalVcs_;
                    acceptPtr_[static_cast<size_t>(pi)] =
                        (po + 1) % kMeshPorts;
                }
            }
        }
        if (!any)
            break;
    }
    return {winners_.data(), count};
}

} // namespace phastlane::electrical
