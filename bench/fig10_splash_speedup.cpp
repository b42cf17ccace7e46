/**
 * @file
 * Figure 10: network speedup of the optical configurations relative
 * to the three-cycle electrical baseline on the ten SPLASH2-like
 * workloads (identical pre-generated transaction streams replayed
 * through every network).
 *
 * Speedup is the ratio of workload completion cycles
 * (Electrical3 / config). Expected shape (paper): >1.5X on six
 * benchmarks, >2.8X on three, Barnes/Cholesky/Ocean/FMM sensitive to
 * buffering (Ocean needs ~64 entries and FMM ~32 to match the
 * baseline), and the 5/8-hop networks marginally different from
 * 4-hop.
 */

#include <memory>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "core/network.hpp"
#include "sim/configs.hpp"
#include "traffic/coherence.hpp"
#include "traffic/splash.hpp"

using namespace phastlane;
using namespace phastlane::sim;
using namespace phastlane::traffic;

int
main(int argc, char **argv)
{
    const auto opts = bench::BenchOptions::parse(argc, argv);
    const auto configs = standardConfigs();

    TextTable t({"benchmark", "Optical4", "Optical5", "Optical8",
                 "Optical4B32", "Optical4B64", "Optical4IB",
                 "Electrical2", "Electrical3 [cycles]"});
    TextTable detail({"benchmark", "config", "cycles", "speedup",
                      "msg latency [cyc]", "round trip [cyc]",
                      "drops"});

    double speedup_sum = 0.0;
    int speedup_count = 0;

    for (auto prof : splashSuite()) {
        if (opts.quick)
            prof.txnsPerNode = 60;
        const auto streams =
            generateStreams(prof, 64, opts.seed);

        // All configurations replay the identical stream
        // independently, so they fan out across cores; rows are
        // emitted afterwards in configuration order, unchanged.
        struct ConfigResult {
            CoherenceResult r;
            uint64_t drops = 0;
        };
        std::vector<ConfigResult> results(configs.size());
        parallelFor(
            configs.size(),
            [&](size_t i) {
                auto net = configs[i].make(1);
                CoherenceDriver driver(*net, streams,
                                       prof.mshrLimit);
                results[i].r = driver.run();
                if (auto *pl =
                        dynamic_cast<core::PhastlaneNetwork *>(
                            net.get())) {
                    results[i].drops =
                        pl->phastlaneCounters().drops;
                }
            },
            opts.threads);

        double base_cycles = 0.0;
        std::vector<std::string> row = {prof.name};
        std::vector<std::pair<std::string, double>> speedups;
        for (size_t i = 0; i < configs.size(); ++i) {
            const NetConfig &cfg = configs[i];
            const CoherenceResult &r = results[i].r;
            if (cfg.name == "Electrical3")
                base_cycles =
                    static_cast<double>(r.completionCycles);
            speedups.emplace_back(
                cfg.name, static_cast<double>(r.completionCycles));
            detail.addRow(
                {prof.name, cfg.name,
                 TextTable::num(static_cast<int64_t>(
                     r.completionCycles)),
                 "", TextTable::num(r.avgMessageLatency, 1),
                 TextTable::num(r.avgRoundTrip, 1),
                 TextTable::num(
                     static_cast<int64_t>(results[i].drops))});
        }
        for (const char *name :
             {"Optical4", "Optical5", "Optical8", "Optical4B32",
              "Optical4B64", "Optical4IB", "Electrical2"}) {
            for (const auto &[n, cycles] : speedups) {
                if (n == name) {
                    const double spd = base_cycles / cycles;
                    row.push_back(TextTable::num(spd, 2));
                    if (std::string(name) == "Optical4") {
                        speedup_sum += spd;
                        ++speedup_count;
                    }
                }
            }
        }
        row.push_back(
            TextTable::num(static_cast<int64_t>(base_cycles)));
        t.addRow(row);
        std::printf("[%s done]\n", prof.name.c_str());
        std::fflush(stdout);
    }

    bench::emit(opts,
                "Fig 10: SPLASH2 network speedup vs Electrical3",
                t);
    bench::emit(opts, "Fig 10 detail: per-config results", detail,
                "detail");
    std::printf(
        "\nOptical4 mean speedup: %.2fX (paper headline: ~2X)\n",
        speedup_sum / speedup_count);
    return 0;
}
