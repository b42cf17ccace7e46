/**
 * @file
 * Repository benchmark driver: one workload, one process.
 *
 *   perfbench_driver --workload paper|light|serve --seed N --seconds S
 *                    --trace 0|1 [--expected FILE] [--trace-out FILE]
 *                    [--size full|reduced] [--write-expected FILE]
 *
 * --trace 0 sets up three times (setup_s is the median), then repeats
 * the untraced job until S seconds have passed and prints the
 * end-to-end metrics, medians over the repetitions. --trace 1 sets up once, runs the untraced job once and
 * the traced job once, and prints the per-layer metrics; --trace-out
 * receives the per-cell layer totals.
 * --write-expected appends the first repetition's result digests in
 * the --expected format (to re-record golden values on purpose).
 * Every result is checked (README.md lists the checks); the last line
 * of stdout is one JSON object with correct/attempted/failed/metrics.
 */

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include "common/config.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
secondsSince(Clock::time_point t0)
{
    return static_cast<double>(nsBetween(t0, Clock::now())) * 1e-9;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Peak resident set of this process image, in MB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Ops of the finished repetitions, for the abort report. */
std::atomic<uint64_t> gAttempted{0};
std::atomic<uint64_t> gFailed{0};

/** Append the decimal digits of @p v (async-signal-safe). */
size_t
putDecimal(char *out, uint64_t v)
{
    char tmp[24];
    size_t n = 0;
    do {
        tmp[n++] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v);
    for (size_t i = 0; i < n; ++i)
        out[i] = tmp[n - 1 - i];
    return n;
}

/**
 * SIGABRT handler. A panic() in the simulator (an internal invariant
 * broke, such as the electrical network's no-progress watchdog) aborts
 * in the middle of a job. Report that job's op as failed on a result
 * line with no metrics, instead of ending without a result.
 */
extern "C" void
onAbort(int)
{
    char line[160];
    size_t n = 0;
    const auto put = [&](const char *s) {
        while (*s)
            line[n++] = *s++;
    };
    put("{\"correct\": false, \"attempted\": ");
    n += putDecimal(line + n, gAttempted.load() + 1);
    put(", \"failed\": ");
    n += putDecimal(line + n, gFailed.load() + 1);
    put(", \"metrics\": {}}\n");
    if (::write(STDOUT_FILENO, line, n) < 0)
        _exit(3);
    _exit(0);
}

/** The run's check state: attempted and failed ops and why. */
struct Checks {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> why;

    void tally(const JobOutput &job)
    {
        attempted += opsOf(job);
        failed += failedOf(job);
    }
    /** Ops that should have run but did not. */
    void missing(size_t n)
    {
        attempted += n;
        failed += n;
    }
};

/** Mark @p got against a complete reference run: differing results,
 *  and results present in only one of the two, fail. */
void
compareComplete(JobOutput &got, const JobOutput &ref, Checks &checks)
{
    markMismatches(got.results, ref.results, &checks.why);
    std::set<std::string> refNames;
    for (const Result &r : ref.results)
        refNames.insert(r.name);
    std::set<std::string> gotNames;
    for (Result &r : got.results) {
        gotNames.insert(r.name);
        if (!refNames.count(r.name)) {
            r.ok = false;
            checks.why.push_back(r.name + ": not in the reference run");
        }
    }
    for (const std::string &n : refNames) {
        if (!gotNames.count(n)) {
            checks.missing(1);
            checks.why.push_back(n + ": missing");
        }
    }
}

void
checkAgainstExpected(JobOutput &job, const Expected &expected,
                     Checks &checks)
{
    checks.missing(checkExpected(job.results, expected, &checks.why));
}

/** Self times (ns) of every layer, summed over the traced cells. */
struct SelfTimes {
    double coreStep = 0, coreInject = 0, elStep = 0, elInject = 0,
           observer = 0, synthPre = 0, synthPost = 0, cohPre = 0,
           cohPost = 0, splashGen = 0, decode = 0, submit = 0, pump = 0;

    double total() const
    {
        return coreStep + coreInject + elStep + elInject + observer +
               synthPre + synthPost + cohPre + cohPost + splashGen +
               decode + submit + pump;
    }
};

/**
 * A cell's self time per layer: each timed quantity minus the timer
 * cost inside its own intervals, minus the full cost of the calls it
 * nests (step > observer hooks; driver preStep > inject; pump > step,
 * inject).
 */
void
addSelfTimes(const LayerTotals &t, const TimerCost &tc, SelfTimes &s)
{
    const auto own = [&](T q) {
        return static_cast<double>(t[q]) -
               static_cast<double>(t.callsOf(q)) * tc.inside;
    };
    const auto nested = [&](T q) {
        return static_cast<double>(t[q]) +
               static_cast<double>(t.callsOf(q)) * tc.outside;
    };
    const double injects = nested(T::CoreInjectNs) + nested(T::ElInjectNs);
    s.observer += own(T::ObserverNs);
    s.coreStep += own(T::CoreStepNs) - nested(T::ObserverNs);
    s.coreInject += own(T::CoreInjectNs);
    s.elStep += own(T::ElStepNs);
    s.elInject += own(T::ElInjectNs);
    if (t.callsOf(T::SynthPreNs))
        s.synthPre += own(T::SynthPreNs) - injects;
    s.synthPost += own(T::SynthPostNs);
    if (t.callsOf(T::CohPreNs))
        s.cohPre += own(T::CohPreNs) - injects;
    s.cohPost += own(T::CohPostNs);
    s.splashGen += own(T::SplashGenNs);
    s.decode += own(T::DecodeNs);
    s.submit += own(T::SubmitNs);
    if (t.callsOf(T::PumpNs))
        s.pump += own(T::PumpNs) - nested(T::CoreStepNs) - injects;
}

std::vector<Metric>
layerMetrics(const TracedOutput &tr, const TimerCost &tc,
             double tracedWallS, double untracedWallS,
             double untracedCpuS, int threads)
{
    LayerTotals sum = tr.jobTotals;
    SelfTimes self;
    double callbacks = 0;
    for (const TracedCell &c : tr.cells) {
        sum.add(c.totals);
        addSelfTimes(c.totals, tc, self);
        callbacks += static_cast<double>(c.totals.callsOf(T::SynthPreNs) +
                                         c.totals.callsOf(T::SynthPostNs));
    }
    // Gang stepping (light): runAll time minus the job callbacks, and
    // minus the timer code around them that their intervals miss.
    if (sum[T::GangStepNs])
        self.coreStep +=
            static_cast<double>(sum[T::GangStepNs]) - callbacks * tc.outside;

    const auto ms = [](double ns) { return std::max(0.0, ns * 1e-6); };
    const auto ratio = [&](T a, T b) {
        return sum[b] ? static_cast<double>(sum[a]) /
                            static_cast<double>(sum[b])
                      : 0.0;
    };
    const auto count = [&](T t) { return static_cast<double>(sum[t]); };
    const double cellWallS = static_cast<double>(sum[T::CellWallNs]) * 1e-9;
    // What the timers themselves cost: every timed call at the
    // calibrated price.
    uint64_t timed = 0;
    for (uint64_t c : sum.calls)
        timed += c;
    const double timerMs =
        static_cast<double>(timed) * (tc.inside + tc.outside) * 1e-6;

    return {
        {"core.step_ms", ms(self.coreStep), "ms"},
        {"core.step_calls", count(T::CoreStepCalls), "count"},
        {"core.node_cycles", count(T::CoreNodeCycles), "count"},
        {"core.idle_step_ratio", ratio(T::CoreIdleSteps, T::CoreStepCalls),
         "ratio"},
        {"core.inject_ms", ms(self.coreInject), "ms"},
        {"core.inject_refused_ratio",
         ratio(T::CoreInjectRefused, T::CoreInjectCalls), "ratio"},
        {"core.launches", count(T::CoreLaunches), "count"},
        {"core.drop_ratio", ratio(T::CoreDrops, T::CoreLaunches), "ratio"},
        {"core.retransmissions", count(T::CoreRetransmissions), "count"},
        {"electrical.step_ms", ms(self.elStep), "ms"},
        {"electrical.step_calls", count(T::ElStepCalls), "count"},
        {"electrical.inject_ms", ms(self.elInject), "ms"},
        {"electrical.inject_refused_ratio",
         ratio(T::ElInjectRefused, T::ElInjectCalls), "ratio"},
        {"electrical.sa_grants", count(T::ElSaGrants), "count"},
        {"traffic.synthetic_pre_ms", ms(self.synthPre), "ms"},
        {"traffic.synthetic_post_ms", ms(self.synthPost), "ms"},
        {"traffic.coherence_pre_ms", ms(self.cohPre), "ms"},
        {"traffic.coherence_post_ms", ms(self.cohPost), "ms"},
        {"traffic.splash_gen_ms", ms(self.splashGen), "ms"},
        {"traffic.codec_decode_ms", ms(self.decode), "ms"},
        {"traffic.codec_bytes_per_record",
         ratio(T::DecodeBytes, T::DecodeRecords), "B/record"},
        {"sim.parallel_busy_ratio", cellWallS / (untracedWallS * threads),
         "ratio"},
        {"sim.server_submit_ms", ms(self.submit), "ms"},
        {"sim.server_pump_self_ms", ms(self.pump), "ms"},
        {"sim.server_acks_deferred", count(T::AcksDeferred), "count"},
        {"obs.observer_ms", ms(self.observer), "ms"},
        {"obs.observer_events", count(T::ObserverEvents), "count"},
        {"trace.overhead_ratio", tracedWallS / untracedCpuS, "ratio"},
        {"trace.timer_ms", timerMs, "ms"},
        {"trace.unattributed_ms",
         tracedWallS * 1e3 - self.total() * 1e-6 - timerMs, "ms"},
    };
}

void
writeTraceJson(const std::string &path, const std::string &workload,
               uint64_t seed, const TracedOutput &tr)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64 ",\n",
                 workload.c_str(), seed);
    std::fprintf(f, " \"job\": %s,\n \"cells\": [\n",
                 tr.jobTotals.json().c_str());
    for (size_t i = 0; i < tr.cells.size(); ++i)
        std::fprintf(f, "  {\"name\": \"%s\", \"totals\": %s}%s\n",
                     tr.cells[i].name.c_str(),
                     tr.cells[i].totals.json().c_str(),
                     i + 1 < tr.cells.size() ? "," : "");
    std::fprintf(f, " ]}\n");
    if (std::fclose(f) != 0)
        std::fprintf(stderr, "perfbench: error writing %s\n", path.c_str());
}

/** Append the digests of @p job's results as expected values. */
void
writeExpected(const std::string &path, const std::string &workload,
              uint64_t seed, const JobOutput &job)
{
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    for (const Result &r : job.results)
        std::fprintf(f, "%s %" PRIu64 " %s %016" PRIx64 "\n",
                     workload.c_str(), seed, r.name.c_str(),
                     digest(r.text));
    if (std::fclose(f) != 0)
        std::fprintf(stderr, "perfbench: error writing %s\n", path.c_str());
}

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    for (const std::string &w : checks.why)
        std::fprintf(stderr, "perfbench: check failed: %s\n", w.c_str());
    for (const Metric &m : metrics)
        std::printf("%-36s %.17g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%-36s %" PRIu64 " count\n", "ops", checks.attempted);
    std::printf("%-36s %" PRIu64 " count\n", "ops_failed", checks.failed);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                checks.failed == 0 ? "true" : "false", checks.attempted,
                checks.failed);
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = Clock::now();
    struct sigaction sa = {};
    sa.sa_handler = onAbort;
    sigaction(SIGABRT, &sa, nullptr);
    const phastlane::Config args = phastlane::Config::fromArgs(argc, argv);
    args.requireKnown({"workload", "seed", "seconds", "trace", "expected",
                       "trace-out", "size", "write-expected"});
    const std::string name = args.getString("workload", "");
    const uint64_t seed = static_cast<uint64_t>(args.getInt("seed", 1));
    const double seconds = args.getDouble("seconds", 10.0);
    const bool trace = args.getInt("trace", 0) != 0;
    const std::string sizeName = args.getString("size", "full");
    // Untraced runs report the median set-up time of three passes.
    const int passes = trace ? 1 : 3;
    if (!makeWorkload(name, seed, Size::Full) ||
        (sizeName != "full" && sizeName != "reduced") || seconds <= 0) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload paper|light|serve"
                     " --seed N --seconds S --trace 0|1\n");
        return 2;
    }
    const Size size = sizeName == "full" ? Size::Full : Size::Reduced;

    Checks checks;
    std::string expectError;
    const Expected expected = loadExpected(args.getString("expected", ""),
                                           name, seed, &expectError);
    if (!expectError.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", expectError.c_str());
        return 2;
    }

    // Set-up: everything between process start and the first timed
    // call, repeated so its median is steady.
    std::vector<double> setupS;
    std::unique_ptr<Workload> w;
    for (int i = 0; i < passes; ++i) {
        const auto t0 = i == 0 ? start : Clock::now();
        w = makeWorkload(name, seed, size);
        w->setup();
        setupS.push_back(secondsSince(t0));
    }

    std::vector<Metric> metrics;
    if (!trace) {
        std::vector<JobOutput> reps;
        std::vector<double> wall, cpu, nodeRate, recRate;
        const auto t0 = Clock::now();
        // Whole jobs until the window has passed, so every run measures
        // at least S seconds and a long job repeats at least once.
        do {
            const auto j0 = Clock::now();
            const double c0 = cpuSeconds();
            reps.push_back(w->run());
            const double s = secondsSince(j0);
            gAttempted += opsOf(reps.back());
            gFailed += failedOf(reps.back());
            cpu.push_back(cpuSeconds() - c0);
            wall.push_back(s);
            nodeRate.push_back(static_cast<double>(reps.back().nodeCycles) / s);
            recRate.push_back(static_cast<double>(reps.back().records) / s);
        } while (secondsSince(t0) < seconds);
        const double peakRss = peakRssMb(); // before the checks' own work

        // Checks: every repetition equals the first, the seed-
        // independent reference and, for a committed seed, the
        // expected digests.
        const std::vector<Result> ref = w->reference(reps.front());
        for (size_t i = 0; i < reps.size(); ++i) {
            if (i > 0)
                compareComplete(reps[i], reps.front(), checks);
            markMismatches(reps[i].results, ref, &checks.why);
            checkAgainstExpected(reps[i], expected, checks);
            checks.tally(reps[i]);
        }
        metrics = {
            {"job_wall_ms", median(wall) * 1e3, "ms"},
            {"job_cpu_ms", median(cpu) * 1e3, "ms"},
            {"sim_node_cycles_per_s", median(nodeRate), "1/s"},
            {"records_per_s", median(recRate), "1/s"},
            {"peak_rss_mb", peakRss, "MB"},
            {"setup_s", median(setupS), "s"},
        };
        std::fprintf(stderr, "perfbench: %s seed %" PRIu64
                     ": %zu repetitions, ms:", name.c_str(), seed,
                     reps.size());
        for (double s : wall)
            std::fprintf(stderr, " %.1f", s * 1e3);
        std::fprintf(stderr, "\n");
        const std::string golden = args.getString("write-expected", "");
        if (!golden.empty())
            writeExpected(golden, name, seed, reps.front());
    } else {
        const auto u0 = Clock::now();
        const double c0 = cpuSeconds();
        JobOutput untraced = w->run();
        const double untracedWall = secondsSince(u0);
        const double untracedCpu = cpuSeconds() - c0;
        gAttempted += opsOf(untraced);
        gFailed += failedOf(untraced);

        const TimerCost tc = calibrateTimer();
        const auto t0 = Clock::now();
        TracedOutput traced = w->runTraced();
        const double tracedWall = secondsSince(t0);

        // The traced run must reproduce the untraced one exactly.
        compareComplete(traced.job, untraced, checks);
        checkAgainstExpected(untraced, expected, checks);
        checks.tally(untraced);
        checks.tally(traced.job);
        metrics = layerMetrics(traced, tc, tracedWall, untracedWall,
                               untracedCpu, w->threads());
        const std::string out = args.getString("trace-out", "");
        if (!out.empty())
            writeTraceJson(out, name, seed, traced);
    }
    printResult(checks, metrics);
    return 0;
}
