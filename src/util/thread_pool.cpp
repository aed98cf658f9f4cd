#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.h"

namespace reduce {

std::size_t resolve_thread_count(std::size_t requested, std::size_t cap) {
    std::size_t count = requested;
    if (count == 0) {
        count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    if (cap > 0) { count = std::min(count, cap); }
    return std::max<std::size_t>(1, count);
}

std::size_t cap_group_at_fair_share(std::size_t group, std::size_t items,
                                    std::size_t workers) {
    const std::size_t fair = workers == 0 ? items : (items + workers - 1) / workers;
    return std::min(std::max<std::size_t>(1, group), std::max<std::size_t>(1, fair));
}

void run_workers(std::size_t workers, const std::function<void()>& job) {
    REDUCE_CHECK(workers >= 1, "run_workers needs at least one worker");
    if (workers == 1) {
        job();
        return;
    }
    std::mutex mutex;
    std::exception_ptr first_error;
    const auto run_copy = [&] {
        try {
            job();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            if (!first_error) { first_error = std::current_exception(); }
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(workers);
    try {
        for (std::size_t i = 0; i < workers; ++i) { threads.emplace_back(run_copy); }
    } catch (...) {
        // A thread that could not start: the started copies still finish.
        for (std::thread& t : threads) { t.join(); }
        throw;
    }
    for (std::thread& t : threads) { t.join(); }
    if (first_error) { std::rethrow_exception(first_error); }
}

}  // namespace reduce
