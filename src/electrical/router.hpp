/**
 * @file
 * One electrical input-queued VC router: input VC state, output VC
 * credit tracking, and the iSLIP-style separable VC and switch
 * allocators (paper Table 2).
 *
 * The router is the only writer of its VC state. Beside the VC
 * arrays it keeps three 64-bit masks per mesh output port (input VCs
 * waiting for an output VC, input VCs holding one, free output VCs),
 * so both allocators walk only the VCs that hold flits, with
 * count-trailing-zeros, and an idle router returns at once
 * (DESIGN.md §3.6).
 */

#ifndef PHASTLANE_ELECTRICAL_ROUTER_HPP
#define PHASTLANE_ELECTRICAL_ROUTER_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "electrical/flit.hpp"
#include "electrical/params.hpp"
#include "electrical/vctm.hpp"

namespace phastlane::electrical {

/** State of one input virtual channel (depth 1). */
struct InputVc {
    std::optional<EFlit> flit;
    Cycle arrivedAt = 0;

    /** Mesh output ports this flit still has to be sent to (bitmask
     *  over portIndex; one bit for unicast, several for a VCTM
     *  fork). */
    uint8_t pendingMesh = 0;

    /** Pure ejection (or multicast leaf): VC frees one cycle after
     *  arrival without touching the crossbar. */
    bool ejecting = false;

    /**
     * Output VC held per pending branch (-1 = not yet allocated).
     * Branches allocate and traverse independently; the crossbar's
     * input speedup of 4 lets a VCTM fork replicate to several output
     * ports in the same cycle.
     */
    std::array<int, kMeshPorts> branchVc{-1, -1, -1, -1};

    bool busy() const { return flit.has_value(); }
};

/** Credit state of one downstream (output-side) VC slot. */
struct OutputVc {
    enum class State : uint8_t {
        Free,       ///< allocatable once freeAt has passed
        Assigned,   ///< granted by VA, flit not yet departed
        Occupied,   ///< flit sits in the downstream buffer
    };
    State state = State::Free;
    Cycle freeAt = 0; ///< credit visibility time while Free
};

/** One switch-allocation winner. */
struct SaWinner {
    Port inPort;
    int inVc;
    Port outPort;
    int outVc;
};

/** A branch leaving on a switch grant (see sendBranch()). */
struct SentBranch {
    EFlit flit;

    /** No branch remains: the caller releases the input VC. */
    bool last;
};

/**
 * Router state plus allocation logic. Inter-router flit movement and
 * credit notification are orchestrated by ElectricalNetwork through
 * the state-transition methods below.
 */
class ElectricalRouter
{
  public:
    /** Input VCs (kAllPorts * vcsPerPort) must fit one mask word. */
    static constexpr int kMaxInputVcs = 64;

    /** fatal() unless 1 <= params.vcsPerPort and
     *  kAllPorts * params.vcsPerPort <= kMaxInputVcs. */
    ElectricalRouter(NodeId self, const ElectricalParams &params);

    NodeId self() const { return self_; }

    const InputVc &inputVc(Port p, int v) const;
    const OutputVc &outputVc(Port p, int v) const;

    /** A free input VC index at @p p, or -1 when all are busy. */
    int freeInputVc(Port p) const;

    /** No input VC waits for VC or switch allocation. */
    bool idle() const { return (vaReqAny() | saReqAny()) == 0; }

    VctmTable &treeTable() { return table_; }

    // VC state transitions: the only writers of VC state.

    /**
     * A flit lands in the free input VC (@p p, @p v) at @p now and
     * requests VA toward every port in @p mesh_ports. A flit with no
     * mesh branch is ejecting: its VC frees at delivery, without the
     * crossbar.
     */
    void receive(Port p, int v, EFlit &&flit, Cycle now,
                 uint8_t mesh_ports);

    /**
     * Send one SA winner's branch: its output VC becomes Occupied and
     * the branch is done. Returns a copy of the flit while other
     * branches remain, else the flit itself, moved out (the caller
     * then releases the input VC).
     */
    SentBranch sendBranch(const SaWinner &w);

    /** Free input VC (@p p, @p v); every branch must have been sent. */
    void releaseInput(Port p, int v);

    /** The downstream router freed the flit in output VC (@p out,
     *  @p v); VA may reallocate it from @p visible_at on. */
    void returnCredit(Port out, int v, Cycle visible_at);

    /**
     * VC allocation (iSLIP-style, output-first, single iteration):
     * input VCs holding a flit whose VA stage has been reached and
     * that have an unserved branch request an output VC on the
     * branch's port; free output VCs are granted round-robin.
     * Returns the number of grants.
     */
    int allocateVcs(Cycle now);

    /**
     * Switch allocation (iSLIP): branches holding an output VC and
     * past their SA stage compete per output port through the
     * configured number of grant/accept iterations, limited by the
     * input speedup (output speedup 1). Round-robin grant and accept
     * pointers advance only on first-iteration matches, per the iSLIP
     * pointer-update rule. The winners (at most one per output port)
     * stay valid until the next call; the caller sends each with
     * sendBranch().
     */
    std::span<const SaWinner> allocateSwitch(Cycle now);

    /** Earliest cycle a flit that arrived at @p arrival may do VA. */
    Cycle vaStage(Cycle arrival) const;

    /** Earliest cycle it may do SA (departure cycle; +1 link). */
    Cycle saStage(Cycle arrival) const;

    /** Round-robin pointers: VA and SA grant (global input VC index
     *  port * vcsPerPort + vc) per output port, accept (output port
     *  index) per input port. */
    int vaPointer(Port out) const { return vaPtr_[portIndex(out)]; }
    int saPointer(Port out) const { return saPtr_[portIndex(out)]; }
    int acceptPointer(Port in) const
    {
        return acceptPtr_[portIndex(in)];
    }

  private:
    int index(Port p, int v) const
    {
        return portIndex(p) * params_.vcsPerPort + v;
    }
    uint64_t vaReqAny() const
    {
        return vaReq_[0] | vaReq_[1] | vaReq_[2] | vaReq_[3];
    }
    uint64_t saReqAny() const
    {
        return saReq_[0] | saReq_[1] | saReq_[2] | saReq_[3];
    }

    NodeId self_;
    const ElectricalParams &params_;
    int totalVcs_;                  ///< kAllPorts * vcsPerPort
    std::vector<InputVc> inputs_;   ///< [port * V + vc]
    std::vector<OutputVc> outputs_; ///< [meshPort * V + vc]

    // Masks over global input VC index (busy_, vaReq_, saReq_) and
    // over output VC index (freeOut_); DESIGN.md §3.6 states the
    // invariants tying them to inputs_ and outputs_.
    uint64_t busy_ = 0;                          ///< flit present
    std::array<uint64_t, kMeshPorts> vaReq_{};   ///< branch lacks a VC
    std::array<uint64_t, kMeshPorts> saReq_{};   ///< branch holds a VC
    std::array<uint64_t, kMeshPorts> freeOut_{}; ///< state == Free

    std::array<int, kMeshPorts> vaPtr_{};     ///< per output port
    std::array<int, kMeshPorts> saPtr_{};     ///< grant, per output
    std::array<int, kAllPorts> acceptPtr_{};  ///< per input port
    std::array<SaWinner, kMeshPorts> winners_{};
    VctmTable table_;
};

} // namespace phastlane::electrical

#endif // PHASTLANE_ELECTRICAL_ROUTER_HPP
