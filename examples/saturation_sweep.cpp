/**
 * @file
 * Load sweep: measure the latency-versus-load curve of any named
 * configuration on any synthetic pattern and report the saturation
 * throughput.
 *
 *   ./examples/saturation_sweep --config Optical4 --pattern transpose
 *       [--max-rate 0.5] [--steps 12] [--measure 4000]
 *       [--threads N]   (default: PL_THREADS env, else all cores;
 *                        results are identical at any thread count)
 *       [--check]       (every sweep point runs under the invariant
 *                        checker and the differential oracle; slower)
 *       [--metrics-out F.json]  (per-point obs metrics merged in
 *                        rate order -- identical at any thread count)
 */

#include <cstdio>

#include "check/checked_network.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "sim/fault_sweep.hpp"
#include "sim/sweep.hpp"

using namespace phastlane;
using namespace phastlane::sim;

int
main(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    {
        std::vector<std::string> flags = {
            "config", "pattern", "max-rate", "steps",
            "warmup", "measure", "seed",     "threads",
            "check",  "csv",     "metrics-out",
        };
        for (const auto &f : faultFlagNames())
            flags.push_back(f);
        for (const auto &f : admissionFlagNames())
            flags.push_back(f);
        for (const auto &f : trafficFlagNames())
            flags.push_back(f);
        args.requireKnown(flags);
    }
    const std::string config_name =
        args.getString("config", "Optical4");
    const traffic::Pattern pattern = traffic::parsePattern(
        args.getString("pattern", "uniform"));
    const double max_rate = args.getDouble("max-rate", 0.5);
    const int steps = static_cast<int>(args.getInt("steps", 12));

    SweepConfig sc;
    sc.pattern = pattern;
    sc.warmupCycles =
        static_cast<Cycle>(args.getInt("warmup", 1000));
    sc.measureCycles =
        static_cast<Cycle>(args.getInt("measure", 4000));
    sc.seed = static_cast<uint64_t>(args.getInt("seed", 42));
    sc.threads = static_cast<int>(args.getInt("threads", 0));
    const std::string metrics_path =
        args.getString("metrics-out", "");
    sc.collectMetrics = !metrics_path.empty();
    for (int i = 1; i <= steps; ++i)
        sc.rates.push_back(max_rate * i / steps);
    // --hotspot-* / --mix flags shape every point's traffic.
    applyTrafficFlags(args, sc.patternOpts, sc.adversarial);

    std::printf("sweeping %s on %s up to %.3f pkt/node/cycle "
                "(%d threads)\n",
                config_name.c_str(), traffic::patternName(pattern),
                max_rate, resolveThreadCount(sc.threads));

    NetConfig cfg = makeConfig(config_name);

    // Reject pattern/mesh mismatches up front with a clean error
    // instead of an assert deep inside a sweep point.
    {
        const auto probe = cfg.make(sc.seed);
        const std::string err =
            traffic::validatePattern(pattern, probe->mesh());
        if (!err.empty())
            fatal("%s", err.c_str());
    }

    // --admission* flags rebuild each sweep point's optical network
    // with the requested admission policy (applied before the
    // --check wrapper so the checker's networks inherit it too).
    {
        core::PhastlaneParams adm;
        if (applyAdmissionFlags(args, adm)) {
            const auto inner = cfg.make;
            cfg.make =
                [inner, adm](uint64_t seed) -> std::unique_ptr<Network> {
                auto net = inner(seed);
                auto *pl =
                    dynamic_cast<core::PhastlaneNetwork *>(net.get());
                if (!pl)
                    panic("admission control supports optical "
                          "(Phastlane) configurations only");
                core::PhastlaneParams p = pl->params();
                p.admission = adm.admission;
                p.admissionBurst = adm.admissionBurst;
                p.admissionPeriod = adm.admissionPeriod;
                p.admissionAgeThreshold = adm.admissionAgeThreshold;
                return std::make_unique<core::PhastlaneNetwork>(p);
            };
        }
    }

    // --fault-* flags rebuild each sweep point's optical network with
    // the requested injection rates (applied before the --check
    // wrapper so the checker's networks inherit them too).
    {
        core::PhastlaneParams::FaultInjection faults;
        if (applyFaultFlags(args, faults)) {
            const auto inner = cfg.make;
            cfg.make =
                [inner,
                 faults](uint64_t seed) -> std::unique_ptr<Network> {
                auto net = inner(seed);
                auto *pl =
                    dynamic_cast<core::PhastlaneNetwork *>(net.get());
                if (!pl)
                    panic("fault injection supports optical "
                          "(Phastlane) configurations only");
                core::PhastlaneParams p = pl->params();
                p.faults = faults;
                return std::make_unique<core::PhastlaneNetwork>(p);
            };
        }
    }

    if (args.getBool("check", false)) {
        const auto inner = cfg.make;
        cfg.make = [inner](uint64_t seed) -> std::unique_ptr<Network> {
            auto net = inner(seed);
            auto *pl =
                dynamic_cast<core::PhastlaneNetwork *>(net.get());
            if (!pl)
                panic("--check supports optical (Phastlane) "
                      "configurations only");
            return std::make_unique<check::CheckedNetwork>(
                pl->params());
        };
        std::printf("checking enabled: invariants + lockstep oracle "
                    "on every point\n");
        if (sc.collectMetrics) {
            warn("--metrics-out is skipped under --check (the "
                 "checker wrapper hides the optical network; use "
                 "PL_CHECK_METRICS=1 on the campaign instead)");
            sc.collectMetrics = false;
        }
    }

    const auto points = runSweep(cfg, sc);

    TextTable t({"rate", "avg latency [cyc]", "p99 [cyc]",
                 "accepted", "saturated"});
    for (const auto &pt : points) {
        t.addRow({TextTable::num(pt.injectionRate, 3),
                  TextTable::num(pt.result.avgLatency, 1),
                  TextTable::num(pt.result.p99Latency, 1),
                  TextTable::num(pt.result.acceptedRate, 4),
                  pt.result.saturated ? "yes" : "no"});
    }
    t.print();
    std::printf("saturation throughput: %.3f pkt/node/cycle\n",
                saturationThroughput(points));

    const std::string csv = args.getString("csv");
    if (!csv.empty()) {
        t.writeCsv(csv);
        std::printf("csv written to %s\n", csv.c_str());
    }
    if (sc.collectMetrics) {
        mergedMetrics(points).writeJson(metrics_path);
        std::printf("metrics written to %s\n", metrics_path.c_str());
    }
    return 0;
}
