#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace phastlane {

int
resolveThreadCount(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("PL_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            return static_cast<int>(std::min<long>(v, 1024));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

uint64_t
derivePointSeed(uint64_t base, uint64_t index)
{
    // SplitMix64 finalizer over (base advanced by index): the same
    // mixing the Rng seeding uses, so per-point streams never overlap
    // even for adjacent indices.
    uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
parallelFor(size_t n, const std::function<void(size_t)> &body,
            int threads)
{
    const size_t workers = std::min(
        static_cast<size_t>(resolveThreadCount(threads)), n);
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // Self-scheduling: every worker claims the next index until none
    // is left. Simulation points vary wildly in cost near saturation,
    // so fixed chunks would leave the last one running alone.
    std::atomic<size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr first_error;
    const auto work = [&] {
        while (true) {
            const size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> helpers;
    helpers.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w)
        helpers.emplace_back(work);
    work(); // the caller works too
    for (auto &h : helpers)
        h.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace phastlane
