#include "electrical/network.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace phastlane::electrical {

ElectricalNetwork::ElectricalNetwork(const ElectricalParams &params)
    : params_(params), mesh_(params.meshWidth, params.meshHeight)
{
    if (params_.routerDelay < 2)
        fatal("routerDelay must be at least 2 cycles");
    if (params_.vcDepth != 1)
        fatal("only single-entry VCs are modeled (wait-for-tail)");
    routers_.reserve(static_cast<size_t>(mesh_.nodeCount()));
    nics_.reserve(static_cast<size_t>(mesh_.nodeCount()));
    for (NodeId n = 0; n < mesh_.nodeCount(); ++n) {
        routers_.emplace_back(n, params_);
        nics_.emplace_back(n, params_);
    }
    linkCounts_.assign(
        static_cast<size_t>(mesh_.nodeCount()) * kMeshPorts, 0);
}

bool
ElectricalNetwork::nicHasSpace(NodeId n) const
{
    PL_ASSERT(mesh_.valid(n), "invalid node %d", n);
    return nics_[static_cast<size_t>(n)].hasSpace();
}

bool
ElectricalNetwork::inject(const Packet &pkt)
{
    PL_ASSERT(mesh_.valid(pkt.src), "invalid source %d", pkt.src);
    auto &nic = nics_[static_cast<size_t>(pkt.src)];
    if (!nic.hasSpace())
        return false;
    PL_ASSERT(pkt.broadcast || pkt.dst != pkt.src,
              "unicast to self at node %d", pkt.src);
    nic.accept(pkt, cycle_);
    ++counters_.messagesAccepted;
    outstanding_ +=
        static_cast<uint64_t>(pkt.deliveryCount(mesh_.nodeCount()));
    return true;
}

void
ElectricalNetwork::deliver(const EFlit &flit, NodeId node)
{
    Delivery d;
    d.packet = *flit.msg;
    d.node = node;
    d.at = cycle_;
    d.acceptedAt = flit.acceptedAt;
    d.injectedAt = flit.injectedAt;
    deliveries_.push_back(std::move(d));
    ++counters_.deliveries;
    ++events_.ejections;
    PL_ASSERT(outstanding_ > 0, "delivery without outstanding message");
    --outstanding_;
    lastProgress_ = cycle_;

    // Tree-setup clone delivered: count down toward tree readiness.
    // Clones from later broadcasts streamed while the tree was still
    // building may arrive after the countdown finished; they install
    // idempotently and are ignored here.
    if (flit.installsTree &&
        nics_[static_cast<size_t>(flit.tree)].treeState() ==
            TreeState::Building) {
        auto &src_nic = nics_[static_cast<size_t>(flit.tree)];
        int &pending = src_nic.pendingSetupDeliveries();
        if (pending > 0 && --pending == 0)
            src_nic.setTreeState(TreeState::Ready);
    }
}

void
ElectricalNetwork::releaseInputVc(NodeId r, Port p, int vc)
{
    routers_[static_cast<size_t>(r)].releaseInput(p, vc);
    if (p != Port::Local) {
        // Credit to the upstream router, visible next cycle
        // (wait-for-tail: the output VC is reallocatable only now).
        const NodeId up = mesh_.neighbor(r, p);
        PL_ASSERT(up != kInvalidNode, "credit to a nonexistent router");
        routers_[static_cast<size_t>(up)].returnCredit(opposite(p), vc,
                                                       cycle_ + 1);
    }
}

void
ElectricalNetwork::processArrival(PendingArrival &a)
{
    auto &router = routers_[static_cast<size_t>(a.router)];
    ++events_.bufferWrites;

    // Route compute / tree lookup on arrival (lookahead routing).
    const EFlit &f = a.flit;
    uint8_t mesh_ports = 0;
    bool local = false;
    if (f.treeMulticast) {
        ++events_.treeLookups;
        const TreeEntry *entry = router.treeTable().find(f.tree);
        if (!entry) {
            panic("multicast flit hit a missing tree entry at node %d "
                  "(tree %d, %llu evictions)", a.router, f.tree,
                  static_cast<unsigned long long>(
                      router.treeTable().evictions()));
        }
        mesh_ports = entry->meshPorts;
        local = entry->local;
        PL_ASSERT(local || mesh_ports != 0,
                  "tree entry with no action at node %d", a.router);
    } else if (f.dst == a.router) {
        local = true;
        if (f.installsTree)
            router.treeTable().installLocal(f.tree);
    } else {
        mesh_ports = static_cast<uint8_t>(
            1u << portIndex(mesh_.xyFirstHop(a.router, f.dst)));
    }
    router.receive(a.port, a.vc, std::move(a.flit), cycle_, mesh_ports);
    if (local)
        ejectionsNext_.push_back(PendingEjection{a.router, a.port, a.vc});
}

void
ElectricalNetwork::processEjection(const PendingEjection &e)
{
    // The flit is still in its VC: the ejection comes one cycle after
    // arrival, before the VC's earliest switch grant.
    const InputVc &ivc =
        routers_[static_cast<size_t>(e.router)].inputVc(e.port, e.vc);
    PL_ASSERT(ivc.busy(), "ejection from an empty VC at node %d",
              e.router);
    deliver(*ivc.flit, e.router);
    if (ivc.ejecting)
        releaseInputVc(e.router, e.port, e.vc);
}

void
ElectricalNetwork::injectFlit(NodeId n, EFlit flit)
{
    auto &router = routers_[static_cast<size_t>(n)];
    const int v = router.freeInputVc(Port::Local);
    PL_ASSERT(v >= 0, "injectFlit without a free VC");
    flit.flitId = nextFlitId_++;
    flit.injectedAt = cycle_;
    ++counters_.packetsInjected;
    lastProgress_ = cycle_;
    PendingArrival a{n, Port::Local, v, std::move(flit)};
    processArrival(a);
}

void
ElectricalNetwork::handleSaWinners(NodeId r)
{
    auto &router = routers_[static_cast<size_t>(r)];
    for (const SaWinner &w : router.allocateSwitch(cycle_)) {
        SentBranch sent = router.sendBranch(w);
        sent.flit.flitId = nextFlitId_++;

        ++events_.bufferReads;
        ++events_.xbarTraversals;
        ++events_.linkTraversals;
        ++events_.saGrants;
        ++linkCounts_[static_cast<size_t>(r) * kMeshPorts +
                      portIndex(w.outPort)];
        lastProgress_ = cycle_;

        if (sent.flit.installsTree)
            router.treeTable().installPort(sent.flit.tree, w.outPort);

        const NodeId dest = mesh_.neighbor(r, w.outPort);
        PL_ASSERT(dest != kInvalidNode, "flit sent off the mesh");
        // Switch traversal this cycle, then one cycle on the channel.
        arrivalsAfter_.push_back(PendingArrival{
            dest, opposite(w.outPort), w.outVc, std::move(sent.flit)});

        if (sent.last)
            releaseInputVc(r, w.inPort, w.inVc);
    }
}

void
ElectricalNetwork::step()
{
    deliveries_.clear();

    std::swap(arrivalsNow_, arrivalsNext_);
    std::swap(arrivalsNext_, arrivalsAfter_);
    std::swap(ejectionsNow_, ejectionsNext_);
    arrivalsAfter_.clear();
    ejectionsNext_.clear();

    for (auto &a : arrivalsNow_)
        processArrival(a);
    for (const auto &e : ejectionsNow_)
        processEjection(e);

    // NIC injection: one flit per node per cycle.
    for (NodeId n = 0; n < mesh_.nodeCount(); ++n) {
        auto &nic = nics_[static_cast<size_t>(n)];
        auto &router = routers_[static_cast<size_t>(n)];

        // Streaming setup clones takes precedence over new heads.
        if (!nic.setupTargets().empty()) {
            if (router.freeInputVc(Port::Local) < 0)
                continue;
            const NodeId target = nic.setupTargets().back();
            nic.setupTargets().pop_back();
            EFlit f;
            f.msg = nic.setupMsg();
            f.dst = target;
            f.tree = static_cast<TreeId>(n);
            f.installsTree = true;
            f.acceptedAt = nic.setupAcceptedAt();
            ++el_.setupUnicasts;
            injectFlit(n, std::move(f));
            continue;
        }

        if (nic.empty())
            continue;
        const NicEntry &head = nic.head();
        if (!head.msg->broadcast) {
            if (router.freeInputVc(Port::Local) < 0)
                continue;
            EFlit f;
            f.msg = head.msg;
            f.dst = head.msg->dst;
            f.acceptedAt = head.acceptedAt;
            injectFlit(n, std::move(f));
            nic.popHead();
            continue;
        }
        // Broadcast head.
        if (nic.treeState() == TreeState::Ready) {
            if (router.freeInputVc(Port::Local) < 0)
                continue;
            EFlit f;
            f.msg = head.msg;
            f.tree = static_cast<TreeId>(n);
            f.treeMulticast = true;
            f.acceptedAt = head.acceptedAt;
            ++el_.treeMulticasts;
            injectFlit(n, std::move(f));
            nic.popHead();
        } else {
            // Not built (or still building): stream this broadcast as
            // tree-installing unicast clones.
            // Readiness is determined by the FIRST stream's
            // deliveries; later broadcasts streamed while the tree is
            // still building reinstall entries idempotently without
            // extending the countdown.
            if (nic.treeState() == TreeState::NotBuilt) {
                nic.setTreeState(TreeState::Building);
                nic.pendingSetupDeliveries() = mesh_.nodeCount() - 1;
            }
            std::vector<NodeId> targets;
            targets.reserve(
                static_cast<size_t>(mesh_.nodeCount() - 1));
            // Reverse order: setupTargets() is consumed from the back.
            for (NodeId t = static_cast<NodeId>(mesh_.nodeCount()) - 1;
                 t >= 0; --t) {
                if (t != n)
                    targets.push_back(t);
            }
            nic.startSetupStream(std::move(targets), head.msg,
                                 head.acceptedAt);
            nic.popHead();
            // The first clone goes out next loop iteration-equivalent:
            // fall through by reprocessing this node now.
            if (router.freeInputVc(Port::Local) >= 0) {
                const NodeId target = nic.setupTargets().back();
                nic.setupTargets().pop_back();
                EFlit f;
                f.msg = nic.setupMsg();
                f.dst = target;
                f.tree = static_cast<TreeId>(n);
                f.installsTree = true;
                f.acceptedAt = nic.setupAcceptedAt();
                ++el_.setupUnicasts;
                injectFlit(n, std::move(f));
            }
        }
    }

    for (NodeId r = 0; r < mesh_.nodeCount(); ++r) {
        events_.vaGrants += static_cast<uint64_t>(
            routers_[static_cast<size_t>(r)].allocateVcs(cycle_));
    }
    for (NodeId r = 0; r < mesh_.nodeCount(); ++r) {
        if (!routers_[static_cast<size_t>(r)].idle())
            handleSaWinners(r);
    }

    events_.routerCycles += static_cast<uint64_t>(mesh_.nodeCount());

    if (outstanding_ > 0 &&
        cycle_ - lastProgress_ > params_.watchdogCycles) {
        panic("electrical network made no progress for %llu cycles "
              "(%llu outstanding deliveries)",
              static_cast<unsigned long long>(params_.watchdogCycles),
              static_cast<unsigned long long>(outstanding_));
    }
    ++cycle_;
}

} // namespace phastlane::electrical
