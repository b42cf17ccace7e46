/**
 * @file
 * The benchmark's three workloads (README.md says why each exists):
 *
 *   paper  one runExperiment over the Fig 10/11 grid plus the Fig 9
 *          sweeps, at 2 threads;
 *   light  a serial low-load Optical4 sweep through the MultiSim gang;
 *   serve  two in-process clients streaming PLTR chunks stop-and-wait
 *          through SimServer on one observed Optical4 network.
 *
 * Each workload runs its job untraced through the libraries' public
 * entry points, or traced through the forwarding wrappers of
 * layers.hpp, and renders every simulated outcome as text so the two
 * runs -- and independent reference computations -- can be compared
 * exactly.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {

/** One checked outcome of a job: a simulation cell, a sweep point, or
 *  a served round (which covers all of its chunks). */
struct Result {
    std::string name;  ///< stable id, e.g. "grid/Barnes/Optical4"
    std::string text;  ///< canonical rendering of the simulated outcome
    uint64_t ops = 1;  ///< ops this outcome covers
    bool ok = true;    ///< no timeout, cycle limit, error or mismatch
};

/** What one run of a job produced. */
struct JobOutput {
    std::vector<Result> results;
    uint64_t nodeCycles = 0; ///< sum over networks of cycles x nodes
    uint64_t records = 0;    ///< trace records / messages taken in
};

/** Layer totals of one traced cell. */
struct TracedCell {
    std::string name;
    LayerTotals totals;
};

/** A traced run: its results and its per-cell layer totals. */
struct TracedOutput {
    JobOutput job;
    std::vector<TracedCell> cells;
    /** Totals of the job rather than of one cell: a gang's stepping
     *  time and wall time (light). */
    LayerTotals jobTotals;
};

/** Full size is what the benchmark measures; Reduced keeps the same
 *  structure at a few percent of the work, for tests. */
enum class Size { Full, Reduced };

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Threads the untraced job uses. */
    virtual int threads() const = 0;

    /** Build configurations, networks and inputs from the seed, then
     *  warm up on a small job. Call once, before anything else. */
    virtual void setup() = 0;

    /** The untraced job, through the libraries' public entry points. */
    virtual JobOutput run() = 0;

    /** The same job, serially, through the tracing wrappers. */
    virtual TracedOutput runTraced() = 0;

    /** Independent recomputation of some or all of @p job's results
     *  (names match), for checking untraced runs of any seed. */
    virtual std::vector<Result> reference(const JobOutput &job) = 0;
};

/** "paper", "light" or "serve"; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, Size size);

/** 64-bit FNV-1a of @p s (result digests in expected.txt). */
uint64_t digest(const std::string &s);

/**
 * Mark every result of @p got whose text differs from the reference
 * result of the same name as failed. Results without a reference are
 * left alone. Returns the number of mismatches; when @p why is set,
 * appends one line per mismatch.
 */
size_t markMismatches(std::vector<Result> &got,
                      const std::vector<Result> &ref,
                      std::vector<std::string> *why = nullptr);

/** Expected digests by result name, for one (workload, seed). */
using Expected = std::map<std::string, uint64_t>;

/**
 * Read the entries for (@p workload, @p seed) from an expected-values
 * file of "workload seed name hexdigest" lines. Returns an empty map
 * when the file or the entries are absent; @p error is set when the
 * file exists but a line is malformed.
 */
Expected loadExpected(const std::string &path,
                      const std::string &workload, uint64_t seed,
                      std::string *error = nullptr);

/**
 * Check @p got against expected digests: a result whose digest
 * differs, or whose name is not expected, is marked failed. Returns
 * the number of expected results missing from @p got (each one an op
 * that did not run). Does nothing when @p expected is empty.
 */
size_t checkExpected(std::vector<Result> &got, const Expected &expected,
                     std::vector<std::string> *why = nullptr);

/** Ops attempted and failed in @p job. */
uint64_t opsOf(const JobOutput &job);
uint64_t failedOf(const JobOutput &job);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
