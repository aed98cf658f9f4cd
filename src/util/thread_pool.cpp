#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

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
    thread_pool pool(workers);
    for (std::size_t i = 0; i < workers; ++i) { pool.submit(job); }
    pool.wait();
}

thread_pool::thread_pool(std::size_t num_threads) {
    REDUCE_CHECK(num_threads >= 1, "thread pool needs at least one worker");
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

thread_pool::~thread_pool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread& worker : workers_) {
        if (worker.joinable()) { worker.join(); }
    }
}

void thread_pool::submit(std::function<void()> job) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        REDUCE_CHECK(!stopping_, "submit on a stopping thread pool");
        queue_.push_back(std::move(job));
    }
    work_available_.notify_one();
}

void thread_pool::wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
    if (first_error_) {
        std::exception_ptr error = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(error);
    }
}

void thread_pool::worker_loop() {
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) { return; }  // stopping with nothing left to do
            job = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        try {
            job();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!first_error_) { first_error_ = std::current_exception(); }
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
        }
        all_done_.notify_all();
    }
}

}  // namespace reduce
