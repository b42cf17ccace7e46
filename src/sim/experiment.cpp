#include "sim/experiment.hpp"

#include <memory>
#include <optional>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "core/network.hpp"
#include "obs/observe.hpp"
#include "sim/multisim.hpp"

namespace phastlane::sim {

namespace {

/** One grid cell under batched execution: its own network and
 *  step-wise CoherenceDriver (DESIGN.md §13). */
class CoherenceJob final : public MultiSim::Job
{
  public:
    CoherenceJob(std::unique_ptr<Network> net,
                 const std::vector<std::vector<traffic::Txn>> &streams,
                 int mshr_limit)
        : net_(std::move(net)), driver_(*net_, streams, mshr_limit)
    {
        driver_.begin();
    }

    core::PhastlaneNetwork &network() override
    {
        return static_cast<core::PhastlaneNetwork &>(*net_);
    }
    bool done() override { return driver_.done(); }
    void preStep() override { driver_.preStep(); }
    void postStep() override { driver_.postStep(); }

    traffic::CoherenceResult finishResult()
    {
        return driver_.finish();
    }
    Network &rawNetwork() { return *net_; }

  private:
    std::unique_ptr<Network> net_;
    traffic::CoherenceDriver driver_;
};

} // namespace

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

    // Serial grid: gang the batch-eligible cells' networks through
    // the lockstep backend; the rest (electrical configs, metrics
    // collection) run per-instance, exactly as before. Cells are
    // independent, so execution order is unobservable and the output
    // stays bit-identical to the plain serial grid.
    if (resolveThreadCount(spec.threads) <= 1 && spec.batch != 1 &&
        nb * nc > 1) {
        MultiSim ms(spec.batch);
        std::vector<std::unique_ptr<CoherenceJob>> jobs(nb * nc);
        for (size_t i = 0; i < nb * nc; ++i) {
            const size_t b = i / nc;
            const size_t c = i % nc;
            auto net = makeConfig(spec.configs[c]).make(spec.seed);
            if (spec.collectMetrics || !batchable(*net)) {
                runCell(i);
                continue;
            }
            runs[i].benchmark = profiles[b].name;
            runs[i].config = spec.configs[c];
            jobs[i] = std::make_unique<CoherenceJob>(
                std::move(net), streams[b], profiles[b].mshrLimit);
            ms.add(*jobs[i]);
        }
        ms.runAll();
        for (size_t i = 0; i < nb * nc; ++i) {
            if (!jobs[i])
                continue;
            const size_t c = i % nc;
            BenchmarkRun &run = runs[i];
            run.result = jobs[i]->finishResult();
            run.power = makeConfig(spec.configs[c])
                            .power(jobs[i]->rawNetwork(),
                                   run.result.completionCycles
                                       ? run.result.completionCycles
                                       : 1);
            run.drops = jobs[i]->network().phastlaneCounters().drops;
        }
        return runs;
    }

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
