#include "sim/sweep.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "core/network.hpp"
#include "obs/observe.hpp"

namespace phastlane::sim {

std::vector<double>
defaultRateGrid()
{
    // Generated from integer counters so the endpoints are exact:
    // repeated floating-point accumulation (r += 0.01) drifts enough
    // that the grid's length and endpoints depend on rounding.
    std::vector<double> rates;
    for (int m = 1; m <= 9; ++m) // 0.01 .. 0.09 step 0.01
        rates.push_back(m / 100.0);
    for (int m = 100; m <= 500; m += 25) // 0.10 .. 0.50 step 0.025
        rates.push_back(m / 1000.0);
    return rates;
}

bool
applyAdmissionFlags(const Config &args, core::PhastlaneParams &params)
{
    bool any = false;
    if (args.has("admission")) {
        const std::string name = args.getString("admission", "none");
        if (name == "none") {
            params.admission = core::AdmissionPolicy::None;
        } else if (name == "token") {
            params.admission = core::AdmissionPolicy::TokenBucket;
        } else if (name == "age") {
            params.admission = core::AdmissionPolicy::AgeBoost;
        } else {
            fatal("--admission must be none|token|age, got '%s'",
                  name.c_str());
        }
        any = true;
    }
    const auto intFlag = [&](const char *key, int &field, int lo) {
        if (!args.has(key))
            return;
        const int v = static_cast<int>(args.getInt(key, 0));
        if (v < lo)
            fatal("--%s must be >= %d, got %d", key, lo, v);
        field = v;
        any = true;
    };
    intFlag("admission-burst", params.admissionBurst, 1);
    intFlag("admission-period", params.admissionPeriod, 1);
    intFlag("admission-age", params.admissionAgeThreshold, 0);
    return any;
}

std::vector<std::string>
admissionFlagNames()
{
    return {"admission", "admission-burst", "admission-period",
            "admission-age"};
}

bool
applyTrafficFlags(const Config &args, traffic::PatternOptions &opts,
                  traffic::AdversarialConfig &adv)
{
    bool any = false;
    const auto rate = [&](const char *key, double &field) {
        if (!args.has(key))
            return;
        const double v = args.getDouble(key, 0.0);
        if (v < 0.0 || v > 1.0)
            fatal("--%s must be in [0, 1], got %g", key, v);
        field = v;
        any = true;
    };
    rate("hotspot-fraction", opts.hotspotFraction);
    if (args.has("hotspot-node")) {
        opts.hotspotNode =
            static_cast<NodeId>(args.getInt("hotspot-node", 0));
        any = true;
    }
    if (args.has("mix")) {
        adv.mix = traffic::parseMix(args.getString("mix", "none"));
        any = true;
    }
    rate("elephant-fraction", adv.elephantFraction);
    const auto boost = [&](const char *key, double &field) {
        if (!args.has(key))
            return;
        const double v = args.getDouble(key, 1.0);
        if (v < 1.0)
            fatal("--%s must be >= 1, got %g", key, v);
        field = v;
        any = true;
    };
    boost("elephant-boost", adv.elephantBoost);
    boost("tenant-boost", adv.tenantBoost);
    if (args.has("tenant-count")) {
        const int v = static_cast<int>(args.getInt("tenant-count", 2));
        if (v < 1)
            fatal("--tenant-count must be >= 1, got %d", v);
        adv.tenantCount = v;
        any = true;
    }
    return any;
}

std::vector<std::string>
trafficFlagNames()
{
    return {"hotspot-fraction", "hotspot-node",  "mix",
            "elephant-fraction", "elephant-boost", "tenant-count",
            "tenant-boost"};
}

namespace {

/** Simulate one sweep point; self-contained and thread-safe (its own
 *  network, driver, and RNG). */
SweepPoint
runPoint(const NetConfig &config, const SweepConfig &sweep,
         double rate)
{
    auto net = config.make(sweep.seed);
    traffic::SyntheticConfig cfg;
    cfg.pattern = sweep.pattern;
    cfg.patternOpts = sweep.patternOpts;
    cfg.adversarial = sweep.adversarial;
    cfg.injectionRate = rate;
    cfg.warmupCycles = sweep.warmupCycles;
    cfg.measureCycles = sweep.measureCycles;
    cfg.seed = sweep.seed;
    traffic::SyntheticDriver driver(*net, cfg);
    SweepPoint pt;
    pt.injectionRate = rate;
    // Each point records into its own registry so parallel shards
    // never share observer state; runSweep merges them in rate order.
    std::optional<obs::MetricsObserver> observer;
    auto *pl = dynamic_cast<core::PhastlaneNetwork *>(net.get());
    if (sweep.collectMetrics && pl) {
        observer.emplace(*pl, pt.metrics);
        pl->setObserver(&*observer);
    }
    pt.result = driver.run();
    if (pl && observer)
        pl->setObserver(nullptr);
    return pt;
}

} // namespace

std::vector<SweepPoint>
runSweep(const NetConfig &config, const SweepConfig &sweep)
{
    const size_t n = sweep.rates.size();
    const int threads = resolveThreadCount(sweep.threads);

    if (threads <= 1 || n <= 1) {
        std::vector<SweepPoint> points;
        for (double rate : sweep.rates) {
            points.push_back(runPoint(config, sweep, rate));
            if (sweep.stopAtSaturation && points.back().result.saturated)
                break;
        }
        return points;
    }

    std::vector<SweepPoint> points(n);
    if (!sweep.stopAtSaturation) {
        parallelFor(
            n,
            [&](size_t i) {
                points[i] =
                    runPoint(config, sweep, sweep.rates[i]);
            },
            threads);
        return points;
    }

    // Early exit must survive parallelism: simulate in thread-sized
    // waves and truncate at the first saturated point, matching the
    // serial result exactly (points up to and including it).
    size_t done = 0;
    while (done < n) {
        const size_t batch =
            std::min(n - done, static_cast<size_t>(threads));
        parallelFor(
            batch,
            [&](size_t i) {
                points[done + i] = runPoint(config, sweep,
                                            sweep.rates[done + i]);
            },
            threads);
        for (size_t i = 0; i < batch; ++i) {
            if (points[done + i].result.saturated) {
                points.resize(done + i + 1);
                return points;
            }
        }
        done += batch;
    }
    return points;
}

double
saturationThroughput(const std::vector<SweepPoint> &points)
{
    double best = 0.0;
    for (const auto &pt : points)
        best = std::max(best, pt.result.acceptedRate);
    return best;
}

obs::MetricsRegistry
mergedMetrics(const std::vector<SweepPoint> &points)
{
    obs::MetricsRegistry total;
    for (const auto &pt : points)
        total.merge(pt.metrics);
    return total;
}

} // namespace phastlane::sim
