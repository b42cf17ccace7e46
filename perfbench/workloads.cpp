#include "workloads.hpp"

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/network.hpp"
#include "electrical/network.hpp"
#include "obs/metrics.hpp"
#include "obs/observe.hpp"
#include "sim/configs.hpp"
#include "sim/experiment.hpp"
#include "sim/multisim.hpp"
#include "sim/replay.hpp"
#include "sim/server.hpp"
#include "sim/sweep.hpp"
#include "traffic/coherence.hpp"
#include "traffic/splash.hpp"
#include "traffic/synthetic.hpp"
#include "traffic/trace.hpp"
#include "traffic/trace_stream.hpp"

namespace perfbench {

using namespace phastlane;

namespace {

std::string
fmt(const char *f, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

using ull = unsigned long long;

std::string
renderCell(const sim::BenchmarkRun &run)
{
    const traffic::CoherenceResult &r = run.result;
    const power::PowerBreakdown &p = run.power;
    return fmt("cycles=%llu txns=%llu bcast=%llu ucast=%llu "
               "lat=%.17g msg=%.17g req=%.17g rtt=%.17g timeout=%d "
               "drops=%llu ",
               (ull)r.completionCycles, (ull)r.transactions,
               (ull)r.broadcasts, (ull)r.unicasts, r.avgLatency,
               r.avgMessageLatency, r.avgRequestLatency, r.avgRoundTrip,
               r.timedOut ? 1 : 0, (ull)run.drops) +
           fmt("power=%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,"
               "%.17g,%.17g,%.17g,%.17g",
               p.bufferDynamicW, p.bufferLeakageW, p.crossbarW, p.linkW,
               p.allocW, p.ejectW, p.laserW, p.modulatorW, p.receiverW,
               p.resonatorW, p.staticW, p.totalW);
}

std::string
renderPoint(const sim::SweepPoint &pt)
{
    const traffic::SyntheticResult &r = pt.result;
    return fmt("rate=%.17g offered=%.17g accepted=%.17g lat=%.17g "
               "net=%.17g p99=%.17g measured=%llu saturated=%d",
               pt.injectionRate, r.offeredRate, r.acceptedRate,
               r.avgLatency, r.avgNetLatency, r.p99Latency,
               (ull)r.measuredPackets, r.saturated ? 1 : 0);
}

Result
cellResult(const sim::BenchmarkRun &run)
{
    Result res;
    res.name = "grid/" + run.benchmark + "/" + run.config;
    res.text = renderCell(run);
    res.ok = !run.result.timedOut && run.result.completionCycles > 0;
    return res;
}

std::string
pointName(traffic::Pattern pat, const std::string &config, size_t rate)
{
    return fmt("fig9/%s/%s/r%zu", traffic::patternName(pat),
               config.c_str(), rate);
}

Result
pointResult(const std::string &name, const sim::SweepPoint &pt)
{
    Result res;
    res.name = name;
    res.text = renderPoint(pt);
    res.ok = std::isfinite(pt.result.avgLatency) &&
             std::isfinite(pt.result.p99Latency);
    return res;
}

/** Shared totals of the networks a Counted configuration builds. */
struct SimTally {
    std::atomic<uint64_t> nodeCycles{0};
    std::atomic<uint64_t> messages{0};
};

/** A configuration's own network type that adds its final cycles x
 *  nodes and accepted messages to a SimTally when destroyed. Nothing
 *  on the simulation path changes, so it batches and steps exactly
 *  like the network it copies its parameters from. */
template <class Net, class Params>
class Counted final : public Net
{
  public:
    Counted(const Params &p, SimTally &t) : Net(p), t_(t) {}
    ~Counted() override
    {
        t_.nodeCycles += static_cast<uint64_t>(this->now()) *
                         static_cast<uint64_t>(this->nodeCount());
        t_.messages += this->counters().messagesAccepted;
    }

  private:
    SimTally &t_;
};

sim::NetConfig
counted(const sim::NetConfig &base, SimTally &t)
{
    sim::NetConfig c = base;
    c.make = [make = base.make, &t](uint64_t seed)
        -> std::unique_ptr<Network> {
        auto proto = make(seed);
        if (auto *pl = dynamic_cast<core::PhastlaneNetwork *>(proto.get()))
            return std::make_unique<
                Counted<core::PhastlaneNetwork, core::PhastlaneParams>>(
                pl->params(), t);
        auto &el = dynamic_cast<electrical::ElectricalNetwork &>(*proto);
        return std::make_unique<Counted<electrical::ElectricalNetwork,
                                        electrical::ElectricalParams>>(
            el.params(), t);
    };
    return c;
}

traffic::SyntheticConfig
syntheticConfig(const sim::SweepConfig &sc, double rate)
{
    // Field for field what sim::runSweep hands each point's driver.
    traffic::SyntheticConfig cfg;
    cfg.pattern = sc.pattern;
    cfg.patternOpts = sc.patternOpts;
    cfg.adversarial = sc.adversarial;
    cfg.injectionRate = rate;
    cfg.warmupCycles = sc.warmupCycles;
    cfg.measureCycles = sc.measureCycles;
    cfg.seed = sc.seed;
    return cfg;
}

/** One sweep point through the tracing wrapper; the loop is
 *  SyntheticDriver::run() with each call timed. */
sim::SweepPoint
tracedPoint(const sim::NetConfig &config, const sim::SweepConfig &sc,
            double rate, LayerTotals &t)
{
    const auto t0 = Clock::now();
    auto net = config.make(sc.seed);
    TracedNetwork traced(*net, t);
    traffic::SyntheticDriver driver(traced, syntheticConfig(sc, rate));
    driver.begin();
    for (;;) {
        const bool done = timeInto(t, T::SynthPreNs, [&] {
            if (driver.done())
                return true;
            driver.preStep();
            return false;
        });
        if (done)
            break;
        traced.step();
        timeInto(t, T::SynthPostNs, [&] { driver.postStep(); });
    }
    sim::SweepPoint pt;
    pt.injectionRate = rate;
    pt.result = driver.finish();
    traced.harvestCounters();
    t[T::CellWallNs] += nsBetween(t0, Clock::now());
    return pt;
}

// ---------------------------------------------------------------------
// paper
// ---------------------------------------------------------------------

struct PaperShape {
    std::vector<std::string> gridConfigs;
    size_t benchmarks = 0; ///< leading splashSuite() profiles
    int txnsPerNode = 0;
    std::vector<traffic::Pattern> patterns;
    std::vector<std::string> sweepConfigs;
    std::vector<double> rates;
    Cycle warmup = 0;
    Cycle measure = 0;
};

std::vector<std::string>
namesOf(const std::vector<sim::NetConfig> &cfgs)
{
    std::vector<std::string> out;
    for (const auto &c : cfgs)
        out.push_back(c.name);
    return out;
}

const std::vector<traffic::Pattern> kFig9Patterns = {
    traffic::Pattern::BitComplement, traffic::Pattern::BitReverse,
    traffic::Pattern::Shuffle, traffic::Pattern::Transpose};

PaperShape
paperShape(Size size)
{
    PaperShape s;
    if (size == Size::Full) {
        // fig10_splash_speedup / fig11_power / fig09 at --quick.
        s.gridConfigs = namesOf(sim::standardConfigs());
        s.benchmarks = traffic::splashSuite().size();
        s.txnsPerNode = 60;
        s.patterns = kFig9Patterns;
        s.sweepConfigs = namesOf(sim::fig9Configs());
        s.rates = {0.02, 0.10, 0.20, 0.30};
        s.warmup = 300;
        s.measure = 1500;
    } else {
        s.gridConfigs = {"Optical4", "Optical4IB", "Electrical3"};
        s.benchmarks = 2;
        s.txnsPerNode = 6;
        s.patterns = {traffic::Pattern::BitComplement,
                      traffic::Pattern::Transpose};
        s.sweepConfigs = {"Optical4", "Electrical3"};
        s.rates = {0.02, 0.30};
        s.warmup = 100;
        s.measure = 300;
    }
    return s;
}

/** The set-up warm-up: every configuration of the job once, on a
 *  small input. */
PaperShape
paperWarmup(const PaperShape &job)
{
    PaperShape s = job;
    s.benchmarks = 1;
    s.txnsPerNode = std::max(2, job.txnsPerNode / 6);
    s.patterns.resize(1);
    s.rates.resize(2);
    s.warmup = job.warmup / 3;
    s.measure = job.measure / 3;
    return s;
}

class PaperWorkload final : public Workload
{
  public:
    PaperWorkload(uint64_t seed, Size size)
        : seed_(seed), shape_(paperShape(size))
    {
    }

    int threads() const override { return kThreads; }

    void setup() override
    {
        build(shape_, spec_, sweepConfigs_);
        sim::ExperimentSpec wspec;
        std::vector<sim::NetConfig> wcfgs;
        build(paperWarmup(shape_), wspec, wcfgs);
        runWith(paperWarmup(shape_), wspec, wcfgs);
    }

    JobOutput run() override
    {
        return runWith(shape_, spec_, sweepConfigs_);
    }

    TracedOutput runTraced() override
    {
        TracedOutput out;
        for (size_t b = 0; b < spec_.benchmarks.size(); ++b) {
            TracedCell gen{"gen/" + spec_.benchmarks[b].name, {}};
            const auto streams = timeInto(gen.totals, T::SplashGenNs, [&] {
                return traffic::generateStreams(profile(b), 64, seed_);
            });
            gen.totals[T::CellWallNs] = gen.totals[T::SplashGenNs];
            out.cells.push_back(gen);
            for (const auto &c : spec_.configs) {
                TracedCell cell;
                const sim::BenchmarkRun run =
                    tracedCell(b, c, streams, cell.totals);
                Result res = cellResult(run);
                cell.name = res.name;
                out.cells.push_back(cell);
                out.job.results.push_back(res);
                addCell(out.job, run);
            }
        }
        for (size_t p = 0; p < shape_.patterns.size(); ++p) {
            for (const sim::NetConfig &cfg : sweepConfigs_) {
                const sim::SweepConfig sc = sweepConfig(shape_, p);
                for (size_t r = 0; r < sc.rates.size(); ++r) {
                    TracedCell cell;
                    cell.name = pointName(sc.pattern, cfg.name, r);
                    const sim::SweepPoint pt =
                        tracedPoint(cfg, sc, sc.rates[r], cell.totals);
                    out.job.results.push_back(pointResult(cell.name, pt));
                    out.job.nodeCycles += cell.totals[T::CoreNodeCycles] +
                                          cell.totals[T::ElNodeCycles];
                    out.cells.push_back(cell);
                    if (sc.stopAtSaturation && pt.result.saturated)
                        break;
                }
            }
        }
        return out;
    }

    std::vector<Result> reference(const JobOutput &job) override
    {
        // Two seed-picked results recomputed serially through the
        // tracing wrappers: one grid cell, one sweep point.
        std::vector<Result> ref;
        const size_t nb = spec_.benchmarks.size();
        const size_t nc = spec_.configs.size();
        const size_t cell = derivePointSeed(seed_, 0) % (nb * nc);
        LayerTotals scratch;
        const auto streams =
            traffic::generateStreams(profile(cell / nc), 64, seed_);
        ref.push_back(cellResult(tracedCell(
            cell / nc, spec_.configs[cell % nc], streams, scratch)));

        std::set<std::string> present;
        for (const Result &res : job.results)
            present.insert(res.name);
        struct Point {
            size_t pattern, config, rate;
        };
        std::vector<Point> points; // the sweep points the job ran
        for (size_t p = 0; p < shape_.patterns.size(); ++p)
            for (size_t c = 0; c < sweepConfigs_.size(); ++c)
                for (size_t r = 0; r < shape_.rates.size(); ++r)
                    if (present.count(pointName(shape_.patterns[p],
                                                sweepConfigs_[c].name, r)))
                        points.push_back({p, c, r});
        if (!points.empty()) {
            const Point k =
                points[derivePointSeed(seed_, 1) % points.size()];
            const sim::SweepConfig sc = sweepConfig(shape_, k.pattern);
            const sim::NetConfig &cfg = sweepConfigs_[k.config];
            ref.push_back(pointResult(
                pointName(sc.pattern, cfg.name, k.rate),
                tracedPoint(cfg, sc, sc.rates[k.rate], scratch)));
        }
        return ref;
    }

  private:
    static constexpr int kThreads = 2;

    void build(const PaperShape &s, sim::ExperimentSpec &spec,
               std::vector<sim::NetConfig> &sweep) const
    {
        spec = sim::ExperimentSpec{};
        spec.configs = s.gridConfigs;
        const auto suite = traffic::splashSuite();
        spec.benchmarks.assign(suite.begin(),
                               suite.begin() + static_cast<long>(
                                                   s.benchmarks));
        spec.txnsPerNode = s.txnsPerNode;
        spec.seed = seed_;
        spec.threads = kThreads;
        sweep.clear();
        for (const auto &n : s.sweepConfigs)
            sweep.push_back(sim::makeConfig(n));
    }

    sim::SweepConfig sweepConfig(const PaperShape &s, size_t p) const
    {
        sim::SweepConfig sc;
        sc.pattern = s.patterns[p];
        sc.rates = s.rates;
        sc.warmupCycles = s.warmup;
        sc.measureCycles = s.measure;
        sc.seed = seed_;
        sc.threads = kThreads;
        return sc;
    }

    traffic::SplashProfile profile(size_t b) const
    {
        // runExperiment applies the same override to its own copy.
        traffic::SplashProfile prof = spec_.benchmarks[b];
        prof.txnsPerNode = spec_.txnsPerNode;
        return prof;
    }

    static void addCell(JobOutput &out, const sim::BenchmarkRun &run)
    {
        out.nodeCycles += run.result.completionCycles * 64;
        out.records += run.result.unicasts + run.result.broadcasts;
    }

    JobOutput runWith(const PaperShape &s, const sim::ExperimentSpec &spec,
                      const std::vector<sim::NetConfig> &sweep) const
    {
        JobOutput out;
        for (const sim::BenchmarkRun &run : sim::runExperiment(spec)) {
            out.results.push_back(cellResult(run));
            addCell(out, run);
        }
        SimTally tally;
        for (size_t p = 0; p < s.patterns.size(); ++p) {
            const sim::SweepConfig sc = sweepConfig(s, p);
            for (const sim::NetConfig &cfg : sweep) {
                const auto pts = sim::runSweep(counted(cfg, tally), sc);
                for (size_t r = 0; r < pts.size(); ++r)
                    out.results.push_back(pointResult(
                        pointName(sc.pattern, cfg.name, r), pts[r]));
            }
        }
        out.nodeCycles += tally.nodeCycles;
        out.records += tally.messages;
        return out;
    }

    /** One grid cell through the tracing wrapper: runExperiment's
     *  per-cell body with each driver call timed. */
    sim::BenchmarkRun
    tracedCell(size_t b, const std::string &config,
               const std::vector<std::vector<traffic::Txn>> &streams,
               LayerTotals &t) const
    {
        const auto t0 = Clock::now();
        const sim::NetConfig cfg = sim::makeConfig(config);
        auto net = cfg.make(seed_);
        TracedNetwork traced(*net, t);
        traffic::CoherenceDriver driver(traced, streams,
                                        spec_.benchmarks[b].mshrLimit);
        driver.begin();
        for (;;) {
            const bool done = timeInto(t, T::CohPreNs, [&] {
                if (driver.done())
                    return true;
                driver.preStep();
                return false;
            });
            if (done)
                break;
            traced.step();
            timeInto(t, T::CohPostNs, [&] { driver.postStep(); });
        }
        sim::BenchmarkRun run;
        run.benchmark = spec_.benchmarks[b].name;
        run.config = config;
        run.result = driver.finish();
        run.power = cfg.power(*net, run.result.completionCycles
                                        ? run.result.completionCycles
                                        : 1);
        if (auto *pl = dynamic_cast<core::PhastlaneNetwork *>(net.get()))
            run.drops = pl->phastlaneCounters().drops;
        traced.harvestCounters();
        t[T::CellWallNs] += nsBetween(t0, Clock::now());
        return run;
    }

    uint64_t seed_;
    PaperShape shape_;
    sim::ExperimentSpec spec_;
    std::vector<sim::NetConfig> sweepConfigs_;
};

// ---------------------------------------------------------------------
// light
// ---------------------------------------------------------------------

sim::SweepConfig
lightSweep(Size size, uint64_t seed)
{
    sim::SweepConfig sc;
    sc.pattern = traffic::Pattern::UniformRandom;
    const int points = size == Size::Full ? 10 : 3;
    for (int m = 1; m <= points; ++m) // 0.002 .. 0.020
        sc.rates.push_back(m * 2 / 1000.0);
    sc.warmupCycles = size == Size::Full ? 1000 : 200;
    sc.measureCycles = size == Size::Full ? 40000 : 1000;
    sc.seed = seed;
    sc.stopAtSaturation = false;
    sc.threads = 1;
    return sc;
}

/** A sweep point as a MultiSim job whose driver runs on the tracing
 *  wrapper while the gang steps the raw network. */
class TracedSweepJob final : public sim::MultiSim::Job
{
  public:
    TracedSweepJob(const sim::NetConfig &cfg, const sim::SweepConfig &sc,
                   double rate, LayerTotals &t)
        : t_(t), rate_(rate), net_(cfg.make(sc.seed)), traced_(*net_, t),
          driver_(traced_, syntheticConfig(sc, rate))
    {
        driver_.begin();
    }

    core::PhastlaneNetwork &network() override
    {
        return static_cast<core::PhastlaneNetwork &>(*net_);
    }
    bool done() override
    {
        return timeInto(t_, T::SynthPreNs, [&] { return driver_.done(); });
    }
    void preStep() override
    {
        timeInto(t_, T::SynthPreNs, [&] { driver_.preStep(); });
        // The gang steps every job it pre-stepped exactly once.
        traced_.countExternalStep(net_->inFlight() == 0);
    }
    void postStep() override
    {
        timeInto(t_, T::SynthPostNs, [&] { driver_.postStep(); });
    }

    sim::SweepPoint finish()
    {
        sim::SweepPoint pt;
        pt.injectionRate = rate_;
        pt.result = driver_.finish();
        traced_.harvestCounters();
        return pt;
    }

  private:
    LayerTotals &t_;
    double rate_;
    std::unique_ptr<Network> net_;
    TracedNetwork traced_;
    traffic::SyntheticDriver driver_;
};

class LightWorkload final : public Workload
{
  public:
    LightWorkload(uint64_t seed, Size size) : sweep_(lightSweep(size, seed))
    {
    }

    int threads() const override { return 1; }

    void setup() override
    {
        config_ = sim::makeConfig("Optical4");
        // Warm-up: the job itself once, so the gang's working set is
        // resident before the first timed call.
        runWith(sweep_);
    }

    JobOutput run() override { return runWith(sweep_); }

    TracedOutput runTraced() override
    {
        TracedOutput out;
        const size_t n = sweep_.rates.size();
        std::vector<TracedCell> cells(n);
        const int limit = sweep_.batch <= 0 ? sim::MultiSim::kDefaultBatch
                                            : sweep_.batch;
        // Gangs exactly as runSweep builds them for a serial sweep.
        for (size_t done = 0; done < n;) {
            const size_t gang =
                std::min(n - done, static_cast<size_t>(limit));
            std::vector<std::unique_ptr<TracedSweepJob>> jobs;
            sim::MultiSim ms(limit);
            for (size_t i = done; i < done + gang; ++i) {
                cells[i].name = name(i);
                jobs.push_back(std::make_unique<TracedSweepJob>(
                    config_, sweep_, sweep_.rates[i], cells[i].totals));
                ms.add(*jobs.back());
            }
            uint64_t before = 0;
            for (size_t i = done; i < done + gang; ++i)
                before += callbackNs(cells[i].totals);
            const auto t0 = Clock::now();
            ms.runAll();
            const uint64_t wall = nsBetween(t0, Clock::now());
            uint64_t after = 0;
            for (size_t i = done; i < done + gang; ++i)
                after += callbackNs(cells[i].totals);
            out.jobTotals[T::GangStepNs] += wall - (after - before);
            out.jobTotals[T::CellWallNs] += wall;
            for (size_t i = 0; i < gang; ++i) {
                const sim::SweepPoint pt = jobs[i]->finish();
                out.job.results.push_back(pointResult(name(done + i), pt));
            }
            done += gang;
        }
        for (const TracedCell &c : cells) {
            out.job.nodeCycles += c.totals[T::CoreNodeCycles];
            out.cells.push_back(c);
        }
        return out;
    }

    std::vector<Result> reference(const JobOutput &) override
    {
        // The same sweep without the gang: plain per-point step().
        sim::SweepConfig plain = sweep_;
        plain.batch = 1;
        std::vector<Result> ref;
        const auto pts = sim::runSweep(sim::makeConfig("Optical4"), plain);
        for (size_t i = 0; i < pts.size(); ++i)
            ref.push_back(pointResult(name(i), pts[i]));
        return ref;
    }

  private:
    static uint64_t callbackNs(const LayerTotals &t)
    {
        return t[T::SynthPreNs] + t[T::SynthPostNs];
    }

    std::string name(size_t i) const
    {
        return pointName(sweep_.pattern, "Optical4", i);
    }

    JobOutput runWith(const sim::SweepConfig &sc) const
    {
        SimTally tally;
        JobOutput out;
        const auto pts = sim::runSweep(counted(config_, tally), sc);
        for (size_t i = 0; i < pts.size(); ++i)
            out.results.push_back(pointResult(name(i), pts[i]));
        out.nodeCycles = tally.nodeCycles;
        out.records = tally.messages;
        return out;
    }

    sim::SweepConfig sweep_;
    sim::NetConfig config_;
};

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

/** One client's PLTR chunk, as a SUBMIT frame carries it. */
struct Chunk {
    std::string payload;
    size_t records = 0;
};

struct ServeShape {
    int clients = 2;
    uint64_t recordsPerClient = 0;
    size_t chunkRecords = 4096;
    double rate = 0.05;
};

ServeShape
serveShape(Size size)
{
    ServeShape s;
    s.recordsPerClient = size == Size::Full ? 300000 : 3000;
    s.chunkRecords = size == Size::Full ? 4096 : 512;
    return s;
}

class ServeWorkload final : public Workload
{
  public:
    ServeWorkload(uint64_t seed, Size size)
        : seed_(seed), shape_(serveShape(size))
    {
    }

    int threads() const override { return 1; }

    void setup() override
    {
        generate();
        // Warm-up: a served round over the first half of every
        // client's chunks.
        JobOutput warm;
        round(chunks_[0].size() / 2 + 1, nullptr, warm);
    }

    JobOutput run() override
    {
        JobOutput out;
        round(SIZE_MAX, nullptr, out);
        return out;
    }

    TracedOutput runTraced() override
    {
        TracedOutput out;
        TracedCell cell{"serve/round", {}};
        round(SIZE_MAX, &cell.totals, out.job);
        out.cells.push_back(cell);
        return out;
    }

    std::vector<Result> reference(const JobOutput &) override
    {
        // Offline replay of the canonical (cycle, client id) merge of
        // the records every chunk carries.
        std::vector<std::vector<traffic::TraceRecord>> recs(chunks_.size());
        for (size_t k = 0; k < chunks_.size(); ++k) {
            for (const Chunk &ch : chunks_[k]) {
                Cycle last = 0;
                traffic::decodeChunkPayload(
                    reinterpret_cast<const uint8_t *>(ch.payload.data()),
                    ch.payload.size(), ch.records, 64, last, recs[k]);
            }
        }
        std::vector<traffic::TraceRecord> merged;
        std::vector<size_t> at(recs.size(), 0);
        for (;;) {
            size_t best = recs.size();
            for (size_t k = 0; k < recs.size(); ++k)
                if (at[k] < recs[k].size() &&
                    (best == recs.size() ||
                     recs[k][at[k]].cycle < recs[best][at[best]].cycle))
                    best = k;
            if (best == recs.size())
                break;
            merged.push_back(recs[best][at[best]++]);
        }
        auto net = sim::makeConfig("Optical4").make(seed_);
        traffic::VectorTraceSource src(merged);
        sim::ReplayOptions opts;
        opts.maxPending = sim::ServerOptions{}.maxPending;
        opts.maxCycles = sim::ServerOptions{}.maxCycles;
        const sim::ReplayStats stats =
            sim::replayTraceStream(*net, src, opts);
        Result ref;
        ref.name = "serve/round";
        ref.text = sim::formatReplayReport(stats, *net);
        return {ref};
    }

  private:
    /** Client k's records (sources k, k + clients, ...; unicast at the
     *  shape's rate), as netsim_serve --gen makes them, encoded into
     *  chunk payloads as they fill. */
    void generate()
    {
        chunks_.assign(static_cast<size_t>(shape_.clients), {});
        const int nodes = 64;
        std::vector<traffic::TraceRecord> recs;
        for (int k = 0; k < shape_.clients; ++k) {
            Rng rng(derivePointSeed(seed_, static_cast<uint64_t>(k)));
            auto &out = chunks_[static_cast<size_t>(k)];
            const auto flush = [&] {
                Chunk c;
                c.records = recs.size();
                traffic::encodeChunkPayload(recs.data(), recs.size(),
                                            c.payload);
                out.push_back(std::move(c));
                recs.clear();
            };
            uint64_t made = 0;
            uint64_t tag = 1;
            for (Cycle cycle = 0; made < shape_.recordsPerClient; ++cycle) {
                for (int n = k; n < nodes && made < shape_.recordsPerClient;
                     n += shape_.clients) {
                    if (!rng.bernoulli(shape_.rate))
                        continue;
                    traffic::TraceRecord r;
                    r.cycle = cycle;
                    r.src = n;
                    do {
                        r.dst = static_cast<NodeId>(
                            rng.uniformInt(0, nodes - 1));
                    } while (r.dst == r.src);
                    r.kind = MessageKind::Synthetic;
                    r.tag = tag++;
                    recs.push_back(r);
                    ++made;
                    if (recs.size() == shape_.chunkRecords)
                        flush();
                }
            }
            if (!recs.empty())
                flush();
        }
    }

    /**
     * Serve one round: every client streams up to @p max_chunks of its
     * chunks stop-and-wait (decode -> submit -> pump -> acks), with
     * one Optical4 network under a MetricsObserver. Traced when @p t
     * is set. Appends the round's result to @p out.
     */
    void round(size_t max_chunks, LayerTotals *t, JobOutput &out) const
    {
        const auto t0 = Clock::now();
        auto net = sim::makeConfig("Optical4").make(seed_);
        auto &pl = static_cast<core::PhastlaneNetwork &>(*net);
        obs::MetricsRegistry registry;
        obs::MetricsObserver metrics(pl, registry);
        std::optional<TracedNetwork> traced;
        std::optional<TimingObserver> timing;
        if (t) {
            traced.emplace(*net, *t);
            timing.emplace(metrics, *t);
            pl.setObserver(&*timing);
        } else {
            pl.setObserver(&metrics);
        }
        Network &front = t ? static_cast<Network &>(*traced) : *net;

        sim::ServerOptions opts;
        opts.expectedSessions = static_cast<size_t>(shape_.clients);
        sim::SimServer server(front, opts);
        std::string err;
        for (int k = 0; k < shape_.clients && err.empty(); ++k)
            err = server.openSession(static_cast<uint64_t>(k));

        struct Client {
            size_t next = 0;
            uint64_t seq = 0;
            bool waiting = false;
            bool finished = false;
        };
        std::vector<Client> cs(static_cast<size_t>(shape_.clients));
        std::vector<traffic::TraceRecord> recs;
        Result res;
        res.name = "serve/round";
        res.ops = 0;
        uint64_t served = 0;
        int stalls = 0;
        while (err.empty() && !server.done()) {
            for (size_t k = 0; k < cs.size() && err.empty(); ++k) {
                Client &c = cs[k];
                if (c.waiting || c.finished)
                    continue;
                const auto &mine = chunks_[k];
                if (c.next < std::min(max_chunks, mine.size())) {
                    const Chunk &ch = mine[c.next++];
                    recs.clear();
                    Cycle last = 0;
                    const auto decode = [&] {
                        return traffic::decodeChunkPayload(
                            reinterpret_cast<const uint8_t *>(
                                ch.payload.data()),
                            ch.payload.size(), ch.records,
                            net->nodeCount(), last, recs);
                    };
                    const auto submit = [&] {
                        return server.submit(k, ++c.seq, recs);
                    };
                    if (t) {
                        err = timeInto(*t, T::DecodeNs, decode);
                        (*t)[T::DecodeBytes] += ch.payload.size();
                        (*t)[T::DecodeRecords] += ch.records;
                        if (err.empty())
                            err = timeInto(*t, T::SubmitNs, submit);
                        if (server.deferredAckCount(k) > 0)
                            ++(*t)[T::AcksDeferred];
                    } else {
                        err = decode();
                        if (err.empty())
                            err = submit();
                    }
                    ++res.ops;
                    served += recs.size();
                } else {
                    err = server.finish(k, ++c.seq);
                    c.finished = true;
                }
                c.waiting = true;
            }
            const Cycle before = net->now();
            if (t)
                timeInto(*t, T::PumpNs, [&] { server.pump(); });
            else
                server.pump();
            const auto acks = server.takeReadyAcks();
            for (const auto &a : acks)
                cs[a.clientId].waiting = false;
            // A round that neither acknowledges nor advances has
            // deadlocked; give up rather than spin.
            stalls = acks.empty() && net->now() == before ? stalls + 1 : 0;
            if (stalls > 1000)
                err = "no progress";
        }
        pl.setObserver(nullptr);

        res.ops = std::max<uint64_t>(res.ops, 1);
        res.ok = err.empty() && server.done() && !server.hitCycleLimit();
        res.text = sim::formatReplayReport(server.stats(), *net);
        if (!err.empty())
            res.text += "error " + err + "\n";
        out.results.push_back(res);
        out.nodeCycles += static_cast<uint64_t>(net->now()) *
                          static_cast<uint64_t>(net->nodeCount());
        out.records += served;
        if (t) {
            traced->harvestCounters();
            (*t)[T::CellWallNs] += nsBetween(t0, Clock::now());
        }
    }

    uint64_t seed_;
    ServeShape shape_;
    std::vector<std::vector<Chunk>> chunks_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, Size size)
{
    if (name == "paper")
        return std::make_unique<PaperWorkload>(seed, size);
    if (name == "light")
        return std::make_unique<LightWorkload>(seed, size);
    if (name == "serve")
        return std::make_unique<ServeWorkload>(seed, size);
    return nullptr;
}

uint64_t
digest(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

size_t
markMismatches(std::vector<Result> &got, const std::vector<Result> &ref,
               std::vector<std::string> *why)
{
    std::map<std::string, const Result *> byName;
    for (const Result &r : ref)
        byName[r.name] = &r;
    size_t bad = 0;
    for (Result &g : got) {
        const auto it = byName.find(g.name);
        if (it == byName.end() || it->second->text == g.text)
            continue;
        g.ok = false;
        ++bad;
        if (why)
            why->push_back(g.name + ": got [" + g.text + "] want [" +
                           it->second->text + "]");
    }
    return bad;
}

Expected
loadExpected(const std::string &path, const std::string &workload,
             uint64_t seed, std::string *error)
{
    Expected out;
    std::ifstream in(path);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, name, hex;
        uint64_t s = 0;
        if (!(ls >> w >> s >> name >> hex) || hex.size() != 16) {
            if (error)
                *error = fmt("%s:%d: malformed line", path.c_str(), lineNo);
            return {};
        }
        if (w == workload && s == seed)
            out[name] = std::stoull(hex, nullptr, 16);
    }
    return out;
}

size_t
checkExpected(std::vector<Result> &got, const Expected &expected,
              std::vector<std::string> *why)
{
    if (expected.empty())
        return 0;
    size_t seen = 0;
    for (Result &g : got) {
        const auto it = expected.find(g.name);
        if (it != expected.end())
            ++seen;
        if (it != expected.end() && it->second == digest(g.text))
            continue;
        g.ok = false;
        if (why)
            why->push_back(g.name + ": digest " +
                           fmt("%016" PRIx64, digest(g.text)) +
                           (it == expected.end() ? " not expected"
                                                 : " differs from " +
                                                       fmt("%016" PRIx64,
                                                           it->second)));
    }
    return expected.size() - seen;
}

uint64_t
opsOf(const JobOutput &job)
{
    uint64_t n = 0;
    for (const Result &r : job.results)
        n += r.ops;
    return n;
}

uint64_t
failedOf(const JobOutput &job)
{
    uint64_t n = 0;
    for (const Result &r : job.results)
        if (!r.ok)
            n += r.ops;
    return n;
}

} // namespace perfbench
