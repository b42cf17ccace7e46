#include "check/differential.hpp"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <memory>
#include <sstream>
#include <tuple>

#include "check/invariants.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "obs/observe.hpp"

namespace phastlane::check {

namespace {

/** Delivery key for order-independent comparison: within one cycle
 *  the two implementations may emit deliveries in different orders. */
using DeliveryKey = std::tuple<PacketId, NodeId, Cycle, Cycle>;

std::vector<DeliveryKey>
deliveryKeys(const std::vector<Delivery> &ds)
{
    std::vector<DeliveryKey> keys;
    keys.reserve(ds.size());
    for (const auto &d : ds)
        keys.emplace_back(d.packet.id, d.node, d.acceptedAt,
                          d.injectedAt);
    std::sort(keys.begin(), keys.end());
    return keys;
}

std::string
diffCounter(const char *name, uint64_t opt, uint64_t ref)
{
    if (opt == ref)
        return "";
    return detail::formatMsg("%s: optimized %llu, reference %llu",
                             name,
                             static_cast<unsigned long long>(opt),
                             static_cast<unsigned long long>(ref));
}

} // namespace

std::vector<Injection>
makeStream(const core::PhastlaneParams &params,
           const StreamConfig &cfg)
{
    const MeshTopology mesh(params.meshWidth, params.meshHeight);
    Rng rng(cfg.seed);
    std::vector<Injection> stream;
    PacketId next_id = 1;
    for (Cycle c = 0; c < cfg.cycles; ++c) {
        for (NodeId n = 0; n < mesh.nodeCount(); ++n) {
            // One bernoulli per node regardless of the adversarial
            // mix (None keeps legacy streams bit-identical).
            const double rate = std::min(
                1.0, cfg.rate * traffic::rateScale(cfg.adversarial, n,
                                                   mesh.nodeCount()));
            if (!rng.bernoulli(rate))
                continue;
            Injection inj;
            inj.at = c;
            inj.pkt.id = next_id++;
            inj.pkt.src = n;
            inj.pkt.kind = MessageKind::Synthetic;
            inj.pkt.createdAt = c;
            if (rng.bernoulli(cfg.broadcastFraction)) {
                inj.pkt.broadcast = true;
            } else {
                const NodeId pinned = traffic::mixDestination(
                    cfg.adversarial, n, mesh);
                inj.pkt.dst =
                    pinned != kInvalidNode
                        ? pinned
                        : traffic::destination(cfg.pattern, n, mesh,
                                               rng, cfg.patternOpts);
            }
            stream.push_back(std::move(inj));
        }
    }
    return stream;
}

std::string
diffNetworks(const core::PhastlaneNetwork &optimized,
             const ReferenceNetwork &reference)
{
    // Per-cycle deliveries, compared as multisets.
    const auto a = deliveryKeys(optimized.deliveries());
    const auto b = deliveryKeys(reference.deliveries());
    if (a != b) {
        std::ostringstream os;
        os << "deliveries differ (" << a.size() << " vs " << b.size()
           << ")";
        for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
            if (i < a.size() && i < b.size() && a[i] == b[i])
                continue;
            if (i < a.size()) {
                os << "; optimized: msg " << std::get<0>(a[i])
                   << " at node " << std::get<1>(a[i]);
            }
            if (i < b.size()) {
                os << "; reference: msg " << std::get<0>(b[i])
                   << " at node " << std::get<1>(b[i]);
            }
            break; // first divergence is enough
        }
        return os.str();
    }

    const auto &oc = optimized.counters();
    const auto &rc = reference.counters();
    const auto &op = optimized.phastlaneCounters();
    const auto &rp = reference.phastlaneCounters();
    const auto &oe = optimized.events();
    const auto &re = reference.events();

    struct Pair {
        const char *name;
        uint64_t opt;
        uint64_t ref;
    };
    const Pair pairs[] = {
        {"messagesAccepted", oc.messagesAccepted, rc.messagesAccepted},
        {"packetsInjected", oc.packetsInjected, rc.packetsInjected},
        {"deliveries", oc.deliveries, rc.deliveries},
        {"drops", op.drops, rp.drops},
        {"retransmissions", op.retransmissions, rp.retransmissions},
        {"blockedBuffered", op.blockedBuffered, rp.blockedBuffered},
        {"interimAccepts", op.interimAccepts, rp.interimAccepts},
        {"launches", op.launches, rp.launches},
        {"passTraversals", oe.passTraversals, re.passTraversals},
        {"receives", oe.receives, re.receives},
        {"tapReceives", oe.tapReceives, re.tapReceives},
        {"bufferWrites", oe.bufferWrites, re.bufferWrites},
        {"bufferReads", oe.bufferReads, re.bufferReads},
        {"dropSignalHops", oe.dropSignalHops, re.dropSignalHops},
        {"lostUnits", oe.lostUnits, re.lostUnits},
        {"dropSignalsLost", oe.dropSignalsLost, re.dropSignalsLost},
        {"faultMisTurns", oe.faultMisTurns, re.faultMisTurns},
        {"faultMissedReceives", oe.faultMissedReceives,
         re.faultMissedReceives},
        {"faultCorruptions", oe.faultCorruptions, re.faultCorruptions},
        {"faultDeadArrivals", oe.faultDeadArrivals,
         re.faultDeadArrivals},
        {"duplicatesSuppressed", oe.duplicatesSuppressed,
         re.duplicatesSuppressed},
        {"inFlight", optimized.inFlight(), reference.inFlight()},
        {"bufferedPackets", optimized.bufferedPackets(),
         reference.bufferedPackets()},
        {"nicQueuedPackets", optimized.nicQueuedPackets(),
         reference.nicQueuedPackets()},
    };
    for (const auto &p : pairs) {
        std::string d = diffCounter(p.name, p.opt, p.ref);
        if (!d.empty())
            return d;
    }
    return "";
}

DiffResult
runLockstep(const core::PhastlaneParams &params,
            const std::vector<Injection> &stream, Cycle max_cycles)
{
    if (!ReferenceNetwork::supports(params))
        fatal("runLockstep: configuration has no reference model");

    core::PhastlaneNetwork optimized(params);
    ReferenceNetwork reference(params);
    InvariantChecker checker(optimized, /*abort_on_violation=*/false);
    optimized.setObserver(&checker);

    // PL_CHECK_METRICS=1 composes the metrics/tracing observers of
    // src/obs/ with the checker through an ObserverMux on every
    // lockstep run — CI uses it to prove the observer stack neither
    // perturbs the simulation nor the checker. Results must be
    // identical with or without it (observers are read-only).
    obs::MetricsRegistry metricsRegistry;
    std::unique_ptr<obs::MetricsObserver> metricsObserver;
    std::unique_ptr<obs::TraceObserver> traceObserver;
    core::ObserverMux mux;
    if (const char *v = std::getenv("PL_CHECK_METRICS");
        v && v[0] != '\0' && v[0] != '0') {
        obs::ObserveOptions opts;
        opts.heatmapInterval = 32;
        opts.traceCapacity = 1u << 16;
        metricsObserver = std::make_unique<obs::MetricsObserver>(
            optimized, metricsRegistry, opts);
        traceObserver =
            std::make_unique<obs::TraceObserver>(optimized, opts);
        mux.add(&checker);
        mux.add(metricsObserver.get());
        mux.add(traceObserver.get());
        optimized.setObserver(&mux);
    }

    std::vector<Injection> pending(stream.begin(), stream.end());
    DiffResult result;
    for (Cycle c = 0; c < max_cycles; ++c) {
        // Attempt every due injection on both networks; a full NIC
        // retries next cycle. Acceptance itself must agree.
        size_t keep = 0;
        for (size_t i = 0; i < pending.size(); ++i) {
            if (pending[i].at > optimized.now()) {
                pending[keep++] = pending[i];
                continue;
            }
            const bool a = optimized.inject(pending[i].pkt);
            const bool b = reference.inject(pending[i].pkt);
            if (a != b) {
                result.ok = false;
                result.failCycle = optimized.now();
                result.message = detail::formatMsg(
                    "inject of message %llu %s by the optimized "
                    "network but %s by the reference",
                    static_cast<unsigned long long>(pending[i].pkt.id),
                    a ? "accepted" : "rejected",
                    b ? "accepted" : "rejected");
                return result;
            }
            if (!a)
                pending[keep++] = pending[i];
        }
        pending.resize(keep);

        optimized.step();
        reference.step();

        std::string diff = diffNetworks(optimized, reference);
        if (!diff.empty()) {
            result.ok = false;
            result.failCycle = optimized.now() - 1;
            result.message = diff;
            return result;
        }
        if (!checker.ok()) {
            result.ok = false;
            result.failCycle = optimized.now() - 1;
            result.message =
                "invariant violation: " + checker.violations().front();
            return result;
        }

        if (pending.empty() && optimized.inFlight() == 0 &&
            optimized.bufferedPackets() == 0 &&
            optimized.nicQueuedPackets() == 0) {
            checker.checkQuiescent();
            if (!checker.ok()) {
                result.ok = false;
                result.failCycle = optimized.now() - 1;
                result.message = "at quiescence: " +
                                 checker.violations().front();
            }
            return result;
        }
    }
    result.ok = false;
    result.failCycle = max_cycles;
    result.message = detail::formatMsg(
        "networks did not drain within %llu cycles (%llu still in "
        "flight)",
        static_cast<unsigned long long>(max_cycles),
        static_cast<unsigned long long>(optimized.inFlight()));
    return result;
}

std::vector<Injection>
shrinkStream(const core::PhastlaneParams &params,
             const std::vector<Injection> &stream, Cycle max_cycles,
             int max_evaluations)
{
    int evaluations = 0;
    const auto fails = [&](const std::vector<Injection> &s) {
        ++evaluations;
        return !runLockstep(params, s, max_cycles).ok;
    };
    if (stream.empty() || !fails(stream))
        return stream;

    // ddmin: remove ever-finer complements while the failure persists.
    std::vector<Injection> current = stream;
    size_t granularity = 2;
    while (current.size() >= 2 && evaluations < max_evaluations) {
        const size_t chunk =
            (current.size() + granularity - 1) / granularity;
        bool reduced = false;
        for (size_t start = 0;
             start < current.size() && evaluations < max_evaluations;
             start += chunk) {
            std::vector<Injection> complement;
            complement.reserve(current.size());
            for (size_t i = 0; i < current.size(); ++i) {
                if (i < start || i >= start + chunk)
                    complement.push_back(current[i]);
            }
            if (complement.size() < current.size() &&
                fails(complement)) {
                current = std::move(complement);
                granularity = std::max<size_t>(granularity - 1, 2);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (granularity >= current.size())
                break;
            granularity = std::min(current.size(), granularity * 2);
        }
    }
    return current;
}

std::string
reproTestCase(const core::PhastlaneParams &params,
              const std::vector<Injection> &stream)
{
    std::ostringstream os;
    os << "// Auto-generated by phastlane::check::reproTestCase from "
          "a shrunk\n"
          "// differential failure. Paste into "
          "tests/test_check_differential.cpp.\n"
          "TEST(CheckDifferentialRepro, Shrunk)\n"
          "{\n"
          "    phastlane::core::PhastlaneParams p;\n";
    os << "    p.meshWidth = " << params.meshWidth << ";\n";
    os << "    p.meshHeight = " << params.meshHeight << ";\n";
    os << "    p.maxHopsPerCycle = " << params.maxHopsPerCycle
       << ";\n";
    os << "    p.routerBufferEntries = " << params.routerBufferEntries
       << ";\n";
    os << "    p.nicQueueEntries = " << params.nicQueueEntries
       << ";\n";
    os << "    p.nicTransfersPerCycle = "
       << params.nicTransfersPerCycle << ";\n";
    os << "    p.launchesPerQueue = " << params.launchesPerQueue
       << ";\n";
    os << "    p.backoffBase = " << params.backoffBase << ";\n";
    os << "    p.exponentialBackoff = "
       << (params.exponentialBackoff ? "true" : "false") << ";\n";
    os << "    p.backoffCap = " << params.backoffCap << ";\n";
    os << "    p.sharedBufferPool = "
       << (params.sharedBufferPool ? "true" : "false") << ";\n";
    os << "    p.seed = " << params.seed << "u;\n";
    if (params.bufferArbitration ==
        core::BufferArbitration::OldestFirst) {
        os << "    p.bufferArbitration = "
              "phastlane::core::BufferArbitration::OldestFirst;\n";
    }
    if (params.opticalArbitration ==
        core::OpticalArbitration::RoundRobin) {
        os << "    p.opticalArbitration = "
              "phastlane::core::OpticalArbitration::RoundRobin;\n";
    }
    // Admission knobs are hand-emitted (no X-macro list for general
    // params); emit all of them whenever a policy is active so the
    // repro never depends on the defaults staying put.
    if (params.admission != core::AdmissionPolicy::None) {
        os << "    p.admission = phastlane::core::AdmissionPolicy::"
           << (params.admission == core::AdmissionPolicy::TokenBucket
                   ? "TokenBucket"
                   : "AgeBoost")
           << ";\n";
        os << "    p.admissionBurst = " << params.admissionBurst
           << ";\n";
        os << "    p.admissionPeriod = " << params.admissionPeriod
           << ";\n";
        os << "    p.admissionAgeThreshold = "
           << params.admissionAgeThreshold << ";\n";
    }
    // Every FaultInjection field is emitted via the X-macro lists in
    // params.hpp, so a knob added there cannot silently desynchronize
    // emitted repros. (An earlier version hand-listed only
    // invertStraightPriority.)
#define PL_EMIT_FAULT_BOOL(field)                                      \
    if (params.faults.field)                                           \
        os << "    p.faults." #field " = true;\n";
    PL_FAULT_BOOL_FIELDS(PL_EMIT_FAULT_BOOL)
#undef PL_EMIT_FAULT_BOOL
#define PL_EMIT_FAULT_RATE(field)                                      \
    if (params.faults.field != 0.0) {                                  \
        os << "    p.faults." #field " = "                             \
           << std::setprecision(17) << params.faults.field << ";\n";   \
    }
    PL_FAULT_RATE_FIELDS(PL_EMIT_FAULT_RATE)
#undef PL_EMIT_FAULT_RATE
#define PL_EMIT_FAULT_SEED(field)                                      \
    if (params.faults.field != 0)                                      \
        os << "    p.faults." #field " = " << params.faults.field      \
           << "u;\n";
    PL_FAULT_SEED_FIELDS(PL_EMIT_FAULT_SEED)
#undef PL_EMIT_FAULT_SEED

    os << "    std::vector<phastlane::check::Injection> stream;\n"
          "    const auto inj = [&](phastlane::Cycle at,\n"
          "                         phastlane::PacketId id,\n"
          "                         phastlane::NodeId src,\n"
          "                         phastlane::NodeId dst,\n"
          "                         bool broadcast) {\n"
          "        phastlane::Packet k;\n"
          "        k.id = id;\n"
          "        k.src = src;\n"
          "        k.dst = dst;\n"
          "        k.broadcast = broadcast;\n"
          "        k.createdAt = at;\n"
          "        stream.push_back({at, k});\n"
          "    };\n";
    for (const auto &i : stream) {
        os << "    inj(" << i.at << ", " << i.pkt.id << ", "
           << i.pkt.src << ", " << i.pkt.dst << ", "
           << (i.pkt.broadcast ? "true" : "false") << ");\n";
    }
    os << "    const auto r =\n"
          "        phastlane::check::runLockstep(p, stream, 50000);\n"
          "    EXPECT_TRUE(r.ok) << \"cycle \" << r.failCycle << "
          "\": \" << r.message;\n"
          "}\n";
    return os.str();
}

std::vector<CampaignCell>
defaultCampaign(int seeds_per_cell, Cycle cycles)
{
    std::vector<CampaignCell> cells;
    uint64_t seed = 1000;
    const auto addMix = [&](const std::string &name, int w, int h,
                            int hops, int depth, traffic::Pattern pat,
                            double rate, double bcast,
                            const auto &tweak,
                            const auto &stream_tweak) {
        for (int s = 0; s < seeds_per_cell; ++s) {
            CampaignCell cell;
            cell.name = name + "/s" + std::to_string(s);
            cell.params.meshWidth = w;
            cell.params.meshHeight = h;
            cell.params.maxHopsPerCycle = hops;
            cell.params.routerBufferEntries = depth;
            tweak(cell.params);
            cell.stream.pattern = pat;
            cell.stream.rate = rate;
            cell.stream.broadcastFraction = bcast;
            cell.stream.cycles = cycles;
            cell.stream.seed = seed++;
            cell.params.seed = cell.stream.seed;
            stream_tweak(cell.stream);
            cells.push_back(std::move(cell));
        }
    };
    const auto streamNoop = [](StreamConfig &) {};
    const auto add = [&](const std::string &name, int w, int h,
                         int hops, int depth, traffic::Pattern pat,
                         double rate, double bcast,
                         const auto &tweak) {
        addMix(name, w, h, hops, depth, pat, rate, bcast, tweak,
               streamNoop);
    };
    const auto noop = [](core::PhastlaneParams &) {};
    using traffic::Pattern;

    // Patterns x shapes x hop limits x depths. Depth 1-2 cells force
    // heavy drop/retransmit traffic; rates sit near saturation.
    add("uniform-4x4-h4-d10", 4, 4, 4, 10, Pattern::UniformRandom,
        0.30, 0.10, noop);
    add("transpose-4x4-h4-d2", 4, 4, 4, 2, Pattern::Transpose, 0.40,
        0.00, noop);
    add("tornado-4x4-h5-d1", 4, 4, 5, 1, Pattern::Tornado, 0.50, 0.05,
        noop);
    add("uniform-8x8-h5-d10", 8, 8, 5, 10, Pattern::UniformRandom,
        0.20, 0.10, noop);
    add("transpose-8x8-h8-d10", 8, 8, 8, 10, Pattern::Transpose, 0.30,
        0.05, noop);
    add("hotspot-8x8-h4-d2", 8, 8, 4, 2, Pattern::Hotspot, 0.15, 0.20,
        noop);
    add("uniform-4x2-h4-d2", 4, 2, 4, 2, Pattern::UniformRandom, 0.40,
        0.30, noop);
    add("neighbor-8x4-h5-d1", 8, 4, 5, 1, Pattern::Neighbor, 0.60,
        0.00, noop);
    add("uniform-4x4-shared", 4, 4, 4, 10, Pattern::UniformRandom,
        0.35, 0.10,
        [](core::PhastlaneParams &p) { p.sharedBufferPool = true; });
    add("uniform-8x8-oldest", 8, 8, 4, 10, Pattern::UniformRandom,
        0.25, 0.10, [](core::PhastlaneParams &p) {
            p.bufferArbitration = core::BufferArbitration::OldestFirst;
        });
    add("tornado-4x4-rr", 4, 4, 4, 2, Pattern::Tornado, 0.40, 0.05,
        [](core::PhastlaneParams &p) {
            p.opticalArbitration = core::OpticalArbitration::RoundRobin;
        });
    add("uniform-4x4-backoff", 4, 4, 4, 1, Pattern::UniformRandom,
        0.40, 0.10, [](core::PhastlaneParams &p) {
            p.exponentialBackoff = true;
            p.backoffBase = 1;
        });

    // Fault-injection cells (DESIGN.md §10): every stochastic fault
    // knob exercised under the lockstep oracle, which mirrors each
    // stateless draw, and under the invariant checker's
    // exactly-once-or-accounted-lost ledger. Shallow buffers force
    // the drop traffic the drop-signal faults need.
    add("fault-sigloss-4x4-d2", 4, 4, 4, 2, Pattern::UniformRandom,
        0.35, 0.10, [](core::PhastlaneParams &p) {
            p.faults.dropSignalLossRate = 0.25;
            p.faults.faultSeed = 7;
        });
    add("fault-misturn-4x4", 4, 4, 4, 10, Pattern::UniformRandom,
        0.25, 0.10, [](core::PhastlaneParams &p) {
            p.faults.misTurnRate = 0.05;
            p.faults.faultSeed = 11;
        });
    add("fault-missrecv-4x4", 4, 4, 4, 10, Pattern::UniformRandom,
        0.25, 0.20, [](core::PhastlaneParams &p) {
            p.faults.missedReceiveRate = 0.05;
            p.faults.faultSeed = 13;
        });
    add("fault-corrupt-4x4-d1", 4, 4, 4, 1, Pattern::UniformRandom,
        0.30, 0.30, [](core::PhastlaneParams &p) {
            p.faults.dropperIdCorruptRate = 0.50;
            p.faults.faultSeed = 17;
        });
    add("fault-routerfail-4x4", 4, 4, 4, 10, Pattern::UniformRandom,
        0.20, 0.10, [](core::PhastlaneParams &p) {
            p.faults.routerFailRate = 0.08;
            p.faults.faultSeed = 19;
        });
    add("fault-combined-4x4-d2", 4, 4, 4, 2, Pattern::UniformRandom,
        0.30, 0.15, [](core::PhastlaneParams &p) {
            p.faults.misTurnRate = 0.02;
            p.faults.missedReceiveRate = 0.02;
            p.faults.dropSignalLossRate = 0.10;
            p.faults.dropperIdCorruptRate = 0.20;
            p.faults.routerFailRate = 0.05;
            p.faults.faultSeed = 23;
        });

    // Admission-control cells (DESIGN.md §14): both policies under
    // the oracle, on turn-heavy patterns where the boost/throttle
    // actually changes behavior, plus combinations with adversarial
    // mixes and injected faults.
    add("admit-token-4x4-transpose", 4, 4, 4, 2, Pattern::Transpose,
        0.40, 0.00, [](core::PhastlaneParams &p) {
            p.admission = core::AdmissionPolicy::TokenBucket;
            p.admissionBurst = 2;
            p.admissionPeriod = 3;
        });
    add("admit-token-8x8-uniform", 8, 8, 5, 10,
        Pattern::UniformRandom, 0.25, 0.10,
        [](core::PhastlaneParams &p) {
            p.admission = core::AdmissionPolicy::TokenBucket;
            p.admissionBurst = 4;
            p.admissionPeriod = 2;
        });
    add("admit-age-4x4-tornado", 4, 4, 4, 2, Pattern::Tornado, 0.40,
        0.05, [](core::PhastlaneParams &p) {
            p.admission = core::AdmissionPolicy::AgeBoost;
            p.admissionAgeThreshold = 8;
        });
    add("admit-age-8x8-oldest", 8, 8, 4, 10, Pattern::UniformRandom,
        0.25, 0.10, [](core::PhastlaneParams &p) {
            p.admission = core::AdmissionPolicy::AgeBoost;
            p.admissionAgeThreshold = 16;
            p.bufferArbitration = core::BufferArbitration::OldestFirst;
        });
    add("admit-age-4x4-rr", 4, 4, 4, 2, Pattern::Transpose, 0.40,
        0.00, [](core::PhastlaneParams &p) {
            p.admission = core::AdmissionPolicy::AgeBoost;
            p.admissionAgeThreshold = 4;
            p.opticalArbitration = core::OpticalArbitration::RoundRobin;
        });

    // Adversarial-traffic cells: configurable hotspot, elephants,
    // tenants — alone and combined with admission and faults.
    addMix("adv-hotspot-8x8-corner", 8, 8, 4, 2, Pattern::Hotspot,
           0.15, 0.10, noop, [](StreamConfig &s) {
               s.patternOpts.hotspotFraction = 0.4;
               s.patternOpts.hotspotNode = 0;
           });
    addMix("adv-elephant-4x4-token", 4, 4, 4, 2,
           Pattern::UniformRandom, 0.20, 0.05,
           [](core::PhastlaneParams &p) {
               p.admission = core::AdmissionPolicy::TokenBucket;
               p.admissionBurst = 3;
               p.admissionPeriod = 2;
           },
           [](StreamConfig &s) {
               s.adversarial.mix = traffic::AdversarialMix::ElephantMice;
           });
    addMix("adv-tenant-8x4-age", 8, 4, 5, 2, Pattern::UniformRandom,
           0.20, 0.00,
           [](core::PhastlaneParams &p) {
               p.admission = core::AdmissionPolicy::AgeBoost;
               p.admissionAgeThreshold = 8;
           },
           [](StreamConfig &s) {
               s.adversarial.mix = traffic::AdversarialMix::Tenants;
               s.adversarial.tenantCount = 4;
           });
    addMix("adv-elephant-fault-4x4", 4, 4, 4, 2,
           Pattern::UniformRandom, 0.25, 0.10,
           [](core::PhastlaneParams &p) {
               p.admission = core::AdmissionPolicy::TokenBucket;
               p.admissionBurst = 2;
               p.admissionPeriod = 2;
               p.faults.dropSignalLossRate = 0.10;
               p.faults.faultSeed = 29;
           },
           [](StreamConfig &s) {
               s.adversarial.mix = traffic::AdversarialMix::ElephantMice;
               s.adversarial.elephantBoost = 3.0;
           });
    addMix("adv-hotspot-fault-4x4", 4, 4, 4, 2, Pattern::Hotspot,
           0.25, 0.10,
           [](core::PhastlaneParams &p) {
               p.admission = core::AdmissionPolicy::AgeBoost;
               p.admissionAgeThreshold = 6;
               p.faults.misTurnRate = 0.02;
               p.faults.dropperIdCorruptRate = 0.20;
               p.faults.faultSeed = 31;
           },
           [](StreamConfig &s) {
               s.patternOpts.hotspotFraction = 0.5;
           });

    // Large meshes: more than 64 routers, so the claim and request
    // planes span several words. 16x16 has 4 whole words, routes of
    // up to 30 hops and truncated control programs; 13x9 ends in a
    // partial tail word. Broadcasts stay within the 50-entry NIC.
    add("uniform-16x16-h8-d2", 16, 16, 8, 2, Pattern::UniformRandom,
        0.08, 0.05, noop);
    add("uniform-13x9-h5-d1", 13, 9, 5, 1, Pattern::UniformRandom,
        0.12, 0.10, noop);
    return cells;
}

CampaignResult
runCampaign(const std::vector<CampaignCell> &cells, Cycle max_cycles)
{
    CampaignResult result;
    for (const auto &cell : cells) {
        ++result.runs;
        const auto stream = makeStream(cell.params, cell.stream);
        const DiffResult r =
            runLockstep(cell.params, stream, max_cycles);
        if (r.ok)
            continue;
        ++result.failures;
        const auto shrunk =
            shrinkStream(cell.params, stream, max_cycles);
        result.reports.push_back(
            cell.name + " failed at cycle " +
            std::to_string(r.failCycle) + ": " + r.message +
            "\nminimal repro (" + std::to_string(shrunk.size()) +
            " of " + std::to_string(stream.size()) +
            " injections):\n" +
            reproTestCase(cell.params, shrunk));
    }
    return result;
}

} // namespace phastlane::check
