/**
 * @file
 * General-purpose simulator CLI: run any named configuration on a
 * synthetic pattern, a SPLASH2-like benchmark, or a trace file, and
 * report latency metrics, power, and link utilization.
 *
 *   # synthetic open loop
 *   ./examples/netsim_cli --config Optical4 --workload uniform \
 *       --rate 0.05 --measure 5000 --power --heatmap
 *
 *   # closed-loop coherence benchmark
 *   ./examples/netsim_cli --config Electrical3 --workload splash:Ocean \
 *       --txns 100 --metrics
 *
 *   # trace replay
 *   ./examples/netsim_cli --config Optical5 \
 *       --workload trace:/tmp/phastlane.trace
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "check/checked_network.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "core/network.hpp"
#include "core/observer.hpp"
#include "core/reliability.hpp"
#include "obs/observe.hpp"
#include "sim/configs.hpp"
#include "sim/fault_sweep.hpp"
#include "sim/metrics.hpp"
#include "sim/replay.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "traffic/coherence.hpp"
#include "traffic/splash.hpp"
#include "traffic/synthetic.hpp"
#include "traffic/trace.hpp"
#include "traffic/trace_stream.hpp"

using namespace phastlane;

namespace {

/**
 * Forwards the Network interface and feeds each step's deliveries to
 * a LatencyCollector, so --metrics reports what actually ran (the
 * collector used to be declared but never fed on the synthetic path).
 */
class CollectingNetwork : public Network
{
  public:
    CollectingNetwork(Network &inner, sim::LatencyCollector &metrics,
                      sim::FairnessCollector *fairness = nullptr)
        : inner_(inner), metrics_(metrics), fairness_(fairness)
    {
    }

    int nodeCount() const override { return inner_.nodeCount(); }
    const MeshTopology &mesh() const override { return inner_.mesh(); }
    Cycle now() const override { return inner_.now(); }
    bool nicHasSpace(NodeId n) const override
    {
        return inner_.nicHasSpace(n);
    }
    bool inject(const Packet &pkt) override
    {
        return inner_.inject(pkt);
    }
    void step() override
    {
        inner_.step();
        metrics_.addAll(inner_.deliveries());
        if (fairness_)
            fairness_->addAll(inner_.deliveries());
    }
    const std::vector<Delivery> &deliveries() const override
    {
        return inner_.deliveries();
    }
    uint64_t inFlight() const override { return inner_.inFlight(); }
    const NetworkCounters &counters() const override
    {
        return inner_.counters();
    }

  private:
    Network &inner_;
    sim::LatencyCollector &metrics_;
    sim::FairnessCollector *fairness_;
};

/** Per-source max-consecutive-losing-arbitrations, for the fairness
 *  report/CSV; empty for non-Phastlane networks. */
std::vector<uint64_t>
starvationCounters(Network &net)
{
    auto *pl = dynamic_cast<core::PhastlaneNetwork *>(&net);
    if (!pl)
        return {};
    std::vector<uint64_t> s;
    s.reserve(static_cast<size_t>(pl->nodeCount()));
    for (NodeId n = 0; n < pl->nodeCount(); ++n)
        s.push_back(pl->sourceStarvation(n));
    return s;
}

void
printCommonReports(const Config &args, const sim::NetConfig &cfg,
                   Network &net, Cycle active_cycles,
                   const sim::LatencyCollector *metrics,
                   const sim::FairnessCollector *fairness = nullptr)
{
    if (metrics && args.getBool("metrics", false))
        std::printf("\n%s", metrics->report().c_str());
    if (fairness && args.getBool("metrics", false))
        std::printf("%s",
                    fairness->report(starvationCounters(net)).c_str());

    if (args.getBool("power", false)) {
        const auto p = cfg.power(net, active_cycles);
        std::printf("\naverage power: %.2f W (buffers %.2f, "
                    "laser %.2f, xbar+link %.2f, static %.2f)\n",
                    p.totalW, p.bufferDynamicW + p.bufferLeakageW,
                    p.laserW + p.modulatorW + p.receiverW,
                    p.crossbarW + p.linkW,
                    p.staticW);
    }

    if (args.getBool("heatmap", false)) {
        const auto rep =
            sim::UtilizationReport::fromNetwork(net, active_cycles);
        std::printf("\nlink utilization (mean %.3f, peak %.3f):\n%s",
                    rep.meanUtilization(), rep.peakUtilization(),
                    rep.heatmap().c_str());
        std::printf("hottest links:");
        for (const auto &l : rep.hottest(5)) {
            std::printf(" %d->%s:%.2f", l.router, portName(l.out),
                        l.utilization);
        }
        std::printf("\n");
    }

    if (auto *pl = dynamic_cast<core::PhastlaneNetwork *>(&net)) {
        const auto &c = pl->phastlaneCounters();
        std::printf("\noptical: launches=%llu drops=%llu "
                    "retransmissions=%llu interim=%llu "
                    "blocked=%llu\n",
                    static_cast<unsigned long long>(c.launches),
                    static_cast<unsigned long long>(c.drops),
                    static_cast<unsigned long long>(
                        c.retransmissions),
                    static_cast<unsigned long long>(c.interimAccepts),
                    static_cast<unsigned long long>(
                        c.blockedBuffered));
    }
}

/**
 * Network adapter over core::ReliableNic so the existing drivers can
 * run with end-to-end reliability enabled (--reliable): inject() goes
 * through send(), step() runs the retransmit timers, deliveries() is
 * the deduplicated exactly-once stream.
 */
class ReliableNetwork : public Network
{
  public:
    explicit ReliableNetwork(Network &inner,
                             const core::ReliableNicOptions &opts = {})
        : inner_(inner), rnic_(inner, opts)
    {
    }

    int nodeCount() const override { return inner_.nodeCount(); }
    const MeshTopology &mesh() const override { return inner_.mesh(); }
    Cycle now() const override { return inner_.now(); }
    bool nicHasSpace(NodeId n) const override
    {
        return inner_.nicHasSpace(n);
    }
    bool inject(const Packet &pkt) override { return rnic_.send(pkt); }
    void step() override { rnic_.step(); }
    const std::vector<Delivery> &deliveries() const override
    {
        return rnic_.deliveries();
    }
    uint64_t inFlight() const override { return rnic_.inFlight(); }
    const NetworkCounters &counters() const override
    {
        return inner_.counters();
    }

    core::ReliableNic &nic() { return rnic_; }
    Network &inner() { return inner_; }

  private:
    Network &inner_;
    core::ReliableNic rnic_;
};

/**
 * --wavefront selects the contention engine (DESIGN.md §11): bitplane
 * (word-parallel FCFS, default), fcfs (the scalar reference), or
 * global (the eviction-priority ablation). --mesh WxH resizes the
 * router grid. Both rebuild the optical network @p net once, before
 * any mode branches off, so every mode (the fault sweep included)
 * and every observer sees them.
 */
void
applyEngineFlags(const Config &args, std::unique_ptr<Network> &net)
{
    if (!args.has("wavefront") && !args.has("mesh"))
        return;
    auto *pl = dynamic_cast<core::PhastlaneNetwork *>(net.get());
    if (!pl)
        panic("--%s supports optical (Phastlane) configurations only",
              args.has("wavefront") ? "wavefront" : "mesh");
    core::PhastlaneParams p = pl->params();
    if (args.has("wavefront")) {
        const std::string name = args.getString("wavefront", "");
        if (name == "bitplane")
            p.wavefront = core::WavefrontModel::BitplaneFcfs;
        else if (name == "fcfs")
            p.wavefront = core::WavefrontModel::SubstepFcfs;
        else if (name == "global")
            p.wavefront = core::WavefrontModel::GlobalPriority;
        else
            panic("--wavefront expects bitplane, fcfs or global "
                  "(got '%s')",
                  name.c_str());
    }
    if (args.has("mesh")) {
        const std::string spec = args.getString("mesh", "");
        const size_t x = spec.find('x');
        int w = 0;
        int h = 0;
        if (x != std::string::npos) {
            w = std::atoi(spec.substr(0, x).c_str());
            h = std::atoi(spec.substr(x + 1).c_str());
        }
        if (w < 1 || h < 1)
            panic("--mesh expects WxH with positive dimensions "
                  "(got '%s')",
                  spec.c_str());
        p.meshWidth = w;
        p.meshHeight = h;
    }
    net = std::make_unique<core::PhastlaneNetwork>(p);
}

std::vector<std::string>
knownFlags()
{
    std::vector<std::string> flags = {
        "help",        "config",          "workload",
        "rate",        "bcast",           "warmup",
        "measure",     "txns",            "seed",
        "metrics",     "power",           "heatmap",
        "trace",       "trace-cap",       "metrics-out",
        "heatmap-csv", "heatmap-interval", "check",
        "reliable",    "fault-sweep-out", "fault-field",
        "fault-max",   "fault-steps",     "threads",
        "wavefront",   "mesh",            "fairness-csv",
        "max-cycles",
    };
    for (const auto &f : sim::faultFlagNames())
        flags.push_back(f);
    for (const auto &f : sim::admissionFlagNames())
        flags.push_back(f);
    for (const auto &f : sim::trafficFlagNames())
        flags.push_back(f);
    return flags;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    args.requireKnown(knownFlags());
    if (args.getBool("help", false)) {
        std::printf(
            "usage: netsim_cli --config <name> --workload "
            "<uniform|bitcomp|bitrev|shuffle|transpose|tornado|"
            "neighbor|hotspot|splash:<bench>|trace:<file>>\n"
            "  synthetic: --rate R --bcast F --warmup N --measure N\n"
            "  trace: text or binary (.pltrace) format, sniffed by "
            "magic; binary\n"
            "            traces stream in O(chunk) memory. "
            "--max-cycles N bounds the\n"
            "            replay (default 10000000).\n"
            "  splash: --txns N --seed S\n"
            "  reports: --metrics --power --heatmap\n"
            "  observability (optical configs):\n"
            "    --trace F.json    per-packet Chrome trace "
            "(chrome://tracing, Perfetto)\n"
            "    --trace-cap N     trace ring capacity "
            "(default 1048576 records)\n"
            "    --metrics-out F   counters/gauges/histograms as "
            "JSON\n"
            "    --heatmap-csv F   per-router heatmap snapshots as "
            "CSV\n"
            "    --heatmap-interval N   cycles between snapshots "
            "(default 64)\n"
            "  engine (optical configs): --wavefront "
            "bitplane|fcfs|global\n"
            "            (word-parallel bit-plane engine [default], "
            "the scalar FCFS\n"
            "            reference, or the eviction-priority "
            "ablation)\n"
            "    --mesh WxH        override the mesh dimensions "
            "(e.g. 32x32, 9x7)\n"
            "  checking: --check (run under the invariant checker "
            "and, where supported,\n"
            "            in lockstep with the reference oracle; "
            "aborts on divergence)\n"
            "  fault injection (optical configs; DESIGN.md §10):\n"
            "    --fault-mis-turn R --fault-missed-receive R\n"
            "    --fault-signal-loss R --fault-corrupt R\n"
            "    --fault-router-fail R --fault-seed S\n"
            "    --reliable        end-to-end retransmission layer\n"
            "  admission control (optical configs; DESIGN.md §14):\n"
            "    --admission none|token|age\n"
            "    --admission-burst N --admission-period N "
            "(token bucket)\n"
            "    --admission-age N (age-boost threshold, cycles)\n"
            "  adversarial traffic (synthetic workloads):\n"
            "    --hotspot-fraction F --hotspot-node N "
            "(hotspot pattern)\n"
            "    --mix none|elephant|tenant\n"
            "    --elephant-fraction F --elephant-boost X\n"
            "    --tenant-count N --tenant-boost X\n"
            "    --fairness-csv F  per-source "
            "delivered/latency/starvation CSV\n"
            "  fault sweep (writes JSON and exits):\n"
            "    --fault-sweep-out F.json [--fault-field NAME]\n"
            "    [--fault-max R --fault-steps N] [--threads N]\n"
            "  configs: Optical4/5/8, Optical4B32/B64/IB, "
            "Electrical2/3\n");
        return 0;
    }

    const std::string config_name =
        args.getString("config", "Optical4");
    const std::string workload =
        args.getString("workload", "uniform");
    const uint64_t seed =
        static_cast<uint64_t>(args.getInt("seed", 42));

    const sim::NetConfig cfg = sim::makeConfig(config_name);
    auto net = cfg.make(seed);
    applyEngineFlags(args, net);

    // Fault-sweep campaign mode: run the fault-rate sweep and exit.
    const std::string fault_sweep_path =
        args.getString("fault-sweep-out", "");
    if (!fault_sweep_path.empty()) {
        auto *pl = dynamic_cast<core::PhastlaneNetwork *>(net.get());
        if (!pl)
            panic("--fault-sweep-out supports optical (Phastlane) "
                  "configurations only");
        sim::FaultSweepConfig fs;
        fs.params = pl->params();
        net.reset();
        sim::applyFaultFlags(args, fs.params.faults);
        fs.sweepField =
            args.getString("fault-field", "dropSignalLossRate");
        if (args.has("fault-max") || args.has("fault-steps")) {
            const double max = args.getDouble("fault-max", 0.5);
            const int steps =
                static_cast<int>(args.getInt("fault-steps", 7));
            if (max < 0.0 || max > 1.0 || steps < 1)
                fatal("--fault-max must be in [0, 1] and "
                      "--fault-steps >= 1");
            fs.rates.push_back(0.0);
            for (int i = 1; i <= steps; ++i)
                fs.rates.push_back(max * i / steps);
        } else {
            fs.rates = sim::defaultFaultGrid();
        }
        sim::applyAdmissionFlags(args, fs.params);
        {
            traffic::PatternOptions ignored;
            sim::applyTrafficFlags(args, ignored, fs.adversarial);
        }
        fs.injectionRate = args.getDouble("rate", 0.05);
        fs.broadcastFraction = args.getDouble("bcast", 0.1);
        fs.measureCycles =
            static_cast<Cycle>(args.getInt("measure", 2000));
        fs.seed = seed;
        fs.threads = static_cast<int>(args.getInt("threads", 0));
        fs.reliable = args.getBool("reliable", true);
        const auto points = sim::runFaultSweep(fs);
        for (const auto &p : points) {
            std::printf(
                "fault %.4f: offered=%llu delivered=%llu/%llu "
                "lost=%llu retx(optical)=%llu retx(e2e)=%llu "
                "dup=%llu%s\n",
                p.faultRate,
                static_cast<unsigned long long>(p.messagesOffered),
                static_cast<unsigned long long>(p.unitsDelivered),
                static_cast<unsigned long long>(p.unitsExpected),
                static_cast<unsigned long long>(p.events.lostUnits),
                static_cast<unsigned long long>(p.retransmissions),
                static_cast<unsigned long long>(p.e2e.retransmits),
                static_cast<unsigned long long>(
                    p.events.duplicatesSuppressed),
                p.drained ? "" : " [not drained]");
        }
        sim::writeFaultSweepJson(fs, points, fault_sweep_path);
        std::printf("fault sweep: wrote %s\n",
                    fault_sweep_path.c_str());
        return 0;
    }

    // Fault flags rebuild the optical network with the requested
    // injection rates before any checker/observer attaches.
    {
        auto *pl = dynamic_cast<core::PhastlaneNetwork *>(net.get());
        core::PhastlaneParams::FaultInjection faults =
            pl ? pl->params().faults
               : core::PhastlaneParams::FaultInjection{};
        if (sim::applyFaultFlags(args, faults)) {
            if (!pl)
                panic("fault injection supports optical (Phastlane) "
                      "configurations only");
            core::PhastlaneParams p = pl->params();
            p.faults = faults;
            net = std::make_unique<core::PhastlaneNetwork>(p);
        }
    }

    // Admission-control flags rebuild the optical network the same
    // way (DESIGN.md §14), still before any checker/observer.
    {
        auto *pl = dynamic_cast<core::PhastlaneNetwork *>(net.get());
        core::PhastlaneParams p =
            pl ? pl->params() : core::PhastlaneParams{};
        if (sim::applyAdmissionFlags(args, p)) {
            if (!pl)
                panic("--admission supports optical (Phastlane) "
                      "configurations only");
            net = std::make_unique<core::PhastlaneNetwork>(p);
        }
    }

    std::unique_ptr<check::CheckedNetwork> checked;
    if (args.getBool("check", false)) {
        auto *pl = dynamic_cast<core::PhastlaneNetwork *>(net.get());
        if (!pl)
            panic("--check supports optical (Phastlane) "
                  "configurations only");
        checked =
            std::make_unique<check::CheckedNetwork>(pl->params());
        net.reset();
    }
    // The workload drives `drive`; reports read `report`, which stays
    // the PhastlaneNetwork so their dynamic_casts keep working when
    // --check interposes the wrapper.
    Network &report =
        checked ? static_cast<Network &>(checked->primary()) : *net;
    sim::LatencyCollector metrics(report.mesh());
    sim::FairnessCollector fairness(report.nodeCount());
    Network &driven =
        checked ? static_cast<Network &>(*checked) : *net;
    std::unique_ptr<ReliableNetwork> reliable;
    if (args.getBool("reliable", false))
        reliable = std::make_unique<ReliableNetwork>(driven);
    CollectingNetwork drive(reliable ? *reliable : driven, metrics,
                            &fairness);

    // Observability (src/obs/): per-packet trace ring, metrics
    // registry, and per-router heatmap, composed with the invariant
    // checker through an ObserverMux when --check is on.
    const std::string trace_path = args.getString("trace", "");
    const std::string metrics_path =
        args.getString("metrics-out", "");
    const std::string heatmap_path =
        args.getString("heatmap-csv", "");
    obs::ObserveOptions oopts;
    oopts.traceCapacity = static_cast<size_t>(
        args.getInt("trace-cap", 1 << 20));
    oopts.heatmapInterval = static_cast<Cycle>(
        args.getInt("heatmap-interval", 64));
    std::unique_ptr<obs::TraceObserver> tracer;
    std::unique_ptr<obs::MetricsObserver> recorder;
    obs::MetricsRegistry registry;
    core::ObserverMux mux;
    auto *pl_report =
        dynamic_cast<core::PhastlaneNetwork *>(&report);
    if (!trace_path.empty() || !metrics_path.empty() ||
        !heatmap_path.empty()) {
        if (!pl_report)
            panic("--trace/--metrics-out/--heatmap-csv support "
                  "optical (Phastlane) configurations only");
        if (heatmap_path.empty())
            oopts.heatmapInterval = 0;
        if (!trace_path.empty())
            tracer = std::make_unique<obs::TraceObserver>(*pl_report,
                                                          oopts);
        if (!metrics_path.empty() || !heatmap_path.empty())
            recorder = std::make_unique<obs::MetricsObserver>(
                *pl_report, registry, oopts);
        if (checked) {
            if (recorder)
                checked->addObserver(recorder.get());
            if (tracer)
                checked->addObserver(tracer.get());
        } else {
            if (recorder)
                mux.add(recorder.get());
            if (tracer)
                mux.add(tracer.get());
            pl_report->setObserver(&mux);
        }
    }

    std::printf("config %s, workload %s\n", config_name.c_str(),
                workload.c_str());

    if (workload.rfind("splash:", 0) == 0) {
        traffic::SplashProfile prof =
            traffic::splashProfile(workload.substr(7));
        prof.txnsPerNode =
            static_cast<int>(args.getInt("txns", 100));
        const auto streams =
            traffic::generateStreams(prof, drive.nodeCount(), seed);
        traffic::RecordingNetwork rec(drive);
        traffic::CoherenceDriver driver(rec, streams,
                                        prof.mshrLimit);
        // Run manually so every delivery feeds the collector.
        const auto result = driver.run();
        std::printf("completed %llu transactions in %llu cycles "
                    "(msg latency %.1f, round trip %.1f)\n",
                    static_cast<unsigned long long>(
                        result.transactions),
                    static_cast<unsigned long long>(
                        result.completionCycles),
                    result.avgMessageLatency, result.avgRoundTrip);
        printCommonReports(args, cfg, report, result.completionCycles,
                           &metrics, &fairness);
    } else if (workload.rfind("trace:", 0) == 0) {
        const std::string tpath = workload.substr(6);
        sim::ReplayOptions ropts;
        ropts.maxCycles = static_cast<Cycle>(
            args.getInt("max-cycles", 10000000));
        sim::ReplayStats result;
        if (traffic::isBinaryTraceFile(tpath)) {
            // Binary traces stream one chunk at a time, so a
            // multi-billion-record trace replays in O(chunk) memory.
            traffic::TraceStreamReader src(tpath,
                                           drive.nodeCount());
            result = sim::replayTraceStream(drive, src, ropts);
        } else {
            const auto records =
                traffic::readTrace(tpath, drive.nodeCount());
            traffic::VectorTraceSource src(records);
            result = sim::replayTraceStream(drive, src, ropts);
        }
        std::printf("replayed %llu messages (%llu deliveries) in "
                    "%llu cycles, avg latency %.1f\n",
                    static_cast<unsigned long long>(result.messages),
                    static_cast<unsigned long long>(
                        result.deliveries),
                    static_cast<unsigned long long>(
                        result.completionCycle),
                    result.avgLatency);
        if (result.hitCycleLimit)
            std::printf("cycle limit hit with %llu messages "
                        "outstanding (raise --max-cycles)\n",
                        static_cast<unsigned long long>(
                            result.outstanding));
        printCommonReports(args, cfg, report, result.completionCycle,
                           &metrics, &fairness);
    } else {
        traffic::SyntheticConfig sc;
        sc.pattern = traffic::parsePattern(workload);
        // Validate the pattern/mesh combination upfront: a transpose
        // on a non-square mesh (or a bit permutation on a
        // non-power-of-two node count) used to abort mid-run via
        // PL_ASSERT deep in the pattern code.
        const std::string perr =
            traffic::validatePattern(sc.pattern, drive.mesh());
        if (!perr.empty())
            panic("%s", perr.c_str());
        sim::applyTrafficFlags(args, sc.patternOpts, sc.adversarial);
        sc.injectionRate = args.getDouble("rate", 0.05);
        sc.broadcastFraction = args.getDouble("bcast", 0.0);
        sc.warmupCycles =
            static_cast<Cycle>(args.getInt("warmup", 1000));
        sc.measureCycles =
            static_cast<Cycle>(args.getInt("measure", 5000));
        sc.seed = seed;
        traffic::SyntheticDriver driver(drive, sc);
        const auto result = driver.run();
        std::printf("offered %.4f accepted %.4f pkt/node/cycle, avg "
                    "latency %.1f (p99 %.1f)%s\n",
                    result.offeredRate, result.acceptedRate,
                    result.avgLatency, result.p99Latency,
                    result.saturated ? " [saturated]" : "");
        printCommonReports(args, cfg, report, drive.now(), &metrics,
                           &fairness);
    }

    const std::string fairness_path =
        args.getString("fairness-csv", "");
    if (!fairness_path.empty()) {
        const std::string csv =
            fairness.csv(starvationCounters(report));
        std::FILE *f = std::fopen(fairness_path.c_str(), "w");
        if (!f)
            fatal("cannot write fairness CSV to %s",
                  fairness_path.c_str());
        std::fwrite(csv.data(), 1, csv.size(), f);
        std::fclose(f);
        std::printf("fairness: wrote %s\n", fairness_path.c_str());
    }

    if (reliable) {
        // Run the retransmit timers until every tracked message
        // completes or exhausts its retries.
        for (int i = 0;
             i < 200000 &&
             !(reliable->nic().idle() && driven.inFlight() == 0);
             ++i)
            drive.step();
        const auto &st = reliable->nic().stats();
        std::printf(
            "reliable: sends=%llu completed=%llu expired=%llu "
            "retransmits=%llu duplicates=%llu late=%llu "
            "lost_units=%llu\n",
            static_cast<unsigned long long>(st.sends),
            static_cast<unsigned long long>(st.completed),
            static_cast<unsigned long long>(st.expired),
            static_cast<unsigned long long>(st.retransmits),
            static_cast<unsigned long long>(st.duplicates),
            static_cast<unsigned long long>(st.late),
            static_cast<unsigned long long>(st.lostUnits));
    }

    if (checked) {
        // Drain so the quiescence invariants (all units delivered,
        // every drop retransmitted) can be asserted too.
        auto &pl = checked->primary();
        for (int i = 0;
             i < 200000 &&
             (pl.inFlight() > 0 || pl.bufferedPackets() > 0 ||
              pl.nicQueuedPackets() > 0);
             ++i)
            checked->step();
        checked->checkQuiescent();
        std::printf("check: ok (%s)\n",
                    checked->hasOracle()
                        ? "invariants + differential oracle"
                        : "invariants only");
    }

    if (tracer) {
        const auto &ring = tracer->ring();
        const auto &oc = pl_report->phastlaneCounters();
        std::printf(
            "trace: %llu records retained (%llu shed); deliver "
            "events %llu vs counter %llu, drop events %llu vs "
            "counter %llu\n",
            static_cast<unsigned long long>(ring.size()),
            static_cast<unsigned long long>(ring.shedRecords()),
            static_cast<unsigned long long>(
                ring.kindCount(obs::TraceEvent::Deliver)),
            static_cast<unsigned long long>(
                report.counters().deliveries),
            static_cast<unsigned long long>(
                ring.kindCount(obs::TraceEvent::Drop)),
            static_cast<unsigned long long>(oc.drops));
        obs::writeChromeTrace(ring, report.mesh(), trace_path);
        std::printf("trace: wrote %s\n", trace_path.c_str());
    }
    if (!metrics_path.empty()) {
        registry.writeJson(metrics_path);
        std::printf("metrics: wrote %s\n", metrics_path.c_str());
    }
    if (recorder && !heatmap_path.empty()) {
        if (const auto *hm = recorder->heatmap()) {
            hm->writeCsv(heatmap_path);
            std::printf("heatmap: wrote %s\n", heatmap_path.c_str());
        }
    }
    return 0;
}
