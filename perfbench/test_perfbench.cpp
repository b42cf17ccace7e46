// Tests of the benchmark itself, on the reduced size of each workload:
// the tracing wrappers reproduce the untraced job exactly, the
// seed-independent references agree with it, and a wrong expected
// value fails an op instead of stopping the run.

#include <gtest/gtest.h>

#include "workloads.hpp"

using namespace perfbench;

namespace {

void
expectSameResults(const JobOutput &a, const JobOutput &b)
{
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].name, b.results[i].name);
        EXPECT_EQ(a.results[i].text, b.results[i].text)
            << a.results[i].name;
    }
}

class ReducedWorkload : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ReducedWorkload, TracedRunReproducesUntracedRun)
{
    for (uint64_t seed : {1u, 7u}) {
        auto w = makeWorkload(GetParam(), seed, Size::Reduced);
        ASSERT_TRUE(w);
        w->setup();
        const JobOutput plain = w->run();
        ASSERT_FALSE(plain.results.empty());
        EXPECT_EQ(failedOf(plain), 0u);
        EXPECT_GT(plain.nodeCycles, 0u);
        EXPECT_GT(plain.records, 0u);

        const TracedOutput traced = w->runTraced();
        expectSameResults(traced.job, plain);
        EXPECT_EQ(failedOf(traced.job), 0u);
        EXPECT_FALSE(traced.cells.empty());
        // The wrappers saw every simulated cycle of the job.
        LayerTotals sum = traced.jobTotals;
        for (const TracedCell &c : traced.cells)
            sum.add(c.totals);
        EXPECT_EQ(sum[T::CoreNodeCycles] + sum[T::ElNodeCycles],
                  plain.nodeCycles);
    }
}

TEST_P(ReducedWorkload, ReferenceAgreesAndRepeats)
{
    auto w = makeWorkload(GetParam(), 3, Size::Reduced);
    w->setup();
    JobOutput first = w->run();
    JobOutput second = w->run();
    expectSameResults(first, second);
    const std::vector<Result> ref = w->reference(first);
    ASSERT_FALSE(ref.empty());
    std::vector<std::string> why;
    EXPECT_EQ(markMismatches(first.results, ref, &why), 0u)
        << (why.empty() ? "" : why.front());
}

TEST_P(ReducedWorkload, WrongExpectedValueFailsOpsNotTheRun)
{
    auto w = makeWorkload(GetParam(), 1, Size::Reduced);
    w->setup();
    JobOutput job = w->run();
    Expected expected;
    for (const Result &r : job.results)
        expected[r.name] = digest(r.text);
    EXPECT_EQ(checkExpected(job.results, expected), 0u);
    EXPECT_EQ(failedOf(job), 0u);

    const std::string wrong = job.results.back().name;
    expected[wrong] ^= 1; // one wrong golden value
    expected["no/such/result"] = 42;
    std::vector<std::string> why;
    EXPECT_EQ(checkExpected(job.results, expected, &why), 1u);
    const uint64_t wrongOps = job.results.back().ops;
    EXPECT_EQ(failedOf(job), wrongOps);
    EXPECT_EQ(why.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(All, ReducedWorkload,
                         ::testing::Values("paper", "light", "serve"));

TEST(Mismatches, DifferingTextFailsOnlyThatResult)
{
    std::vector<Result> got = {{"a", "1", 1, true}, {"b", "2", 3, true}};
    const std::vector<Result> ref = {{"b", "20", 1, true}};
    EXPECT_EQ(markMismatches(got, ref), 1u);
    EXPECT_TRUE(got[0].ok);
    EXPECT_FALSE(got[1].ok);
    JobOutput job;
    job.results = got;
    EXPECT_EQ(opsOf(job), 4u);
    EXPECT_EQ(failedOf(job), 3u);
}

TEST(Expected, ParsesOnlyTheRequestedWorkloadAndSeed)
{
    const std::string path = ::testing::TempDir() + "perfbench_expected.txt";
    FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_TRUE(f);
    std::fputs("# comment\n"
               "light 1 fig9/uniform/Optical4/r0 00000000000000ff\n"
               "light 2 fig9/uniform/Optical4/r0 0000000000000001\n"
               "serve 1 serve/round 0000000000000002\n",
               f);
    std::fclose(f);
    std::string err;
    const Expected e = loadExpected(path, "light", 1, &err);
    EXPECT_TRUE(err.empty());
    ASSERT_EQ(e.size(), 1u);
    EXPECT_EQ(e.at("fig9/uniform/Optical4/r0"), 0xffu);
    EXPECT_TRUE(loadExpected(path + ".absent", "light", 1, &err).empty());

    f = std::fopen(path.c_str(), "w");
    std::fputs("light 1 truncated\n", f);
    std::fclose(f);
    EXPECT_TRUE(loadExpected(path, "light", 1, &err).empty());
    EXPECT_FALSE(err.empty());
}

} // namespace
