#include "sim/experiment.hpp"

#include <memory>
#include <optional>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "core/network.hpp"
#include "obs/observe.hpp"

namespace phastlane::sim {

std::vector<BenchmarkRun>
runExperiment(const ExperimentSpec &spec)
{
    if (spec.configs.empty() || spec.benchmarks.empty())
        fatal("experiment needs at least one config and benchmark");

    // Pre-generate every benchmark's streams once (shared read-only
    // across the grid), then dispatch the independent (benchmark,
    // config) cells across the pool. Cell i owns runs[i], so the
    // result vector comes back in the serial order: grouped by
    // benchmark, configs in specification order.
    const size_t nb = spec.benchmarks.size();
    const size_t nc = spec.configs.size();
    std::vector<traffic::SplashProfile> profiles(spec.benchmarks);
    std::vector<std::vector<std::vector<traffic::Txn>>> streams(nb);
    for (size_t b = 0; b < nb; ++b) {
        if (spec.txnsPerNode > 0)
            profiles[b].txnsPerNode = spec.txnsPerNode;
        streams[b] =
            traffic::generateStreams(profiles[b], 64, spec.seed);
    }

    std::vector<BenchmarkRun> runs(nb * nc);
    auto runCell = [&](size_t i) {
        const size_t b = i / nc;
        const size_t c = i % nc;
        const NetConfig cfg = makeConfig(spec.configs[c]);
        auto net = cfg.make(spec.seed);
        traffic::CoherenceDriver driver(*net, streams[b],
                                        profiles[b].mshrLimit);
        BenchmarkRun &run = runs[i];
        run.benchmark = profiles[b].name;
        run.config = spec.configs[c];
        // Each cell records into its own registry so parallel
        // shards never share observer state.
        std::optional<obs::MetricsObserver> observer;
        auto *pl = dynamic_cast<core::PhastlaneNetwork *>(
            net.get());
        if (spec.collectMetrics && pl) {
            observer.emplace(*pl, run.metrics);
            pl->setObserver(&*observer);
        }
        run.result = driver.run();
        if (pl && observer)
            pl->setObserver(nullptr);
        run.power = cfg.power(
            *net, run.result.completionCycles
                      ? run.result.completionCycles
                      : 1);
        if (pl)
            run.drops = pl->phastlaneCounters().drops;
    };

    parallelFor(nb * nc, runCell, spec.threads);
    return runs;
}

const BenchmarkRun &
findRun(const std::vector<BenchmarkRun> &runs,
        const std::string &benchmark, const std::string &config)
{
    for (const auto &r : runs) {
        if (r.benchmark == benchmark && r.config == config)
            return r;
    }
    fatal("no run for benchmark '%s' and config '%s'",
          benchmark.c_str(), config.c_str());
}

double
speedupOf(const std::vector<BenchmarkRun> &runs,
          const std::string &benchmark, const std::string &config,
          const std::string &baseline)
{
    const BenchmarkRun &base = findRun(runs, benchmark, baseline);
    const BenchmarkRun &run = findRun(runs, benchmark, config);
    PL_ASSERT(run.result.completionCycles > 0, "zero-length run");
    return static_cast<double>(base.result.completionCycles) /
           static_cast<double>(run.result.completionCycles);
}

TextTable
speedupTable(const ExperimentSpec &spec,
             const std::vector<BenchmarkRun> &runs)
{
    std::vector<std::string> headers = {"benchmark"};
    for (const auto &c : spec.configs)
        headers.push_back(c);
    TextTable t(std::move(headers));
    for (const auto &b : spec.benchmarks) {
        std::vector<std::string> row = {b.name};
        for (const auto &c : spec.configs) {
            row.push_back(TextTable::num(
                speedupOf(runs, b.name, c, spec.baseline), 2));
        }
        t.addRow(std::move(row));
    }
    return t;
}

obs::MetricsRegistry
mergedMetrics(const std::vector<BenchmarkRun> &runs)
{
    obs::MetricsRegistry total;
    for (const auto &run : runs)
        total.merge(run.metrics);
    return total;
}

TextTable
powerTable(const ExperimentSpec &spec,
           const std::vector<BenchmarkRun> &runs)
{
    std::vector<std::string> headers = {"benchmark"};
    for (const auto &c : spec.configs)
        headers.push_back(c + " [W]");
    TextTable t(std::move(headers));
    for (const auto &b : spec.benchmarks) {
        std::vector<std::string> row = {b.name};
        for (const auto &c : spec.configs) {
            row.push_back(TextTable::num(
                findRun(runs, b.name, c).power.totalW, 1));
        }
        t.addRow(std::move(row));
    }
    return t;
}

} // namespace phastlane::sim
