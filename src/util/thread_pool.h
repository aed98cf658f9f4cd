// Minimal fixed-size worker pool for fan-out/join parallelism.
//
// The framework has one level of parallelism: `run_workers` runs a handful
// of long-running job copies (one per worker, each draining a shared atomic
// work counter) on a temporary `thread_pool` — the fleet executor and the
// resilience sweep engine fan chips/cells out this way. Every tensor kernel
// runs serially on its worker's thread. Jobs may throw; the first exception
// is captured and re-thrown after every sibling has finished.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace reduce {

/// Resolves a thread-count request: 0 → hardware concurrency (at least 1),
/// anything else unchanged. `cap` bounds the result when non-zero (no point
/// spawning more workers than work items).
std::size_t resolve_thread_count(std::size_t requested, std::size_t cap = 0);

// --- ignored; perfbench spells it; ROADMAP 1b deletes ----------------------
// Inert remnants of the deleted intra-op level. No library caller uses them.
struct thread_budget {
    std::size_t fleet_workers = 1;
    std::size_t gemm_threads = 1;  ///< always 1
};
inline thread_budget resolve_thread_budget(std::size_t fleet_workers,
                                           std::size_t /*gemm_threads*/,
                                           std::size_t work_items) {
    return {resolve_thread_count(fleet_workers, work_items), 1};
}
/// Does nothing.
class scoped_intra_op_threads {
public:
    explicit scoped_intra_op_threads(std::size_t /*threads*/) {}
    scoped_intra_op_threads(const scoped_intra_op_threads&) = delete;
    scoped_intra_op_threads& operator=(const scoped_intra_op_threads&) = delete;
};
// --- end of the ignored block ----------------------------------------------

/// Caps a work-claim group width at an even items/worker split (and a floor
/// of 1): the fleet executor's rule for the chip blocks workers claim — an
/// oversized group request must never starve worker threads of items.
std::size_t cap_group_at_fair_share(std::size_t group, std::size_t items,
                                    std::size_t workers);

/// Runs `workers` copies of `job` to completion — the shared fan-out idiom
/// of the fleet executor and the resilience sweep engine, where each copy
/// drains a common atomic work counter. With one worker the job runs inline
/// on the calling thread (no pool, exceptions propagate directly); with
/// more, a temporary pool runs the copies and wait() re-throws the first
/// failure after every copy has finished.
void run_workers(std::size_t workers, const std::function<void()>& job);

/// Fixed pool of worker threads consuming a FIFO job queue.
class thread_pool {
public:
    /// Spawns `num_threads` workers (must be >= 1).
    explicit thread_pool(std::size_t num_threads);

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Drains the queue, then joins all workers.
    ~thread_pool();

    /// Number of worker threads.
    std::size_t size() const { return workers_.size(); }

    /// Enqueues a job. Must not be called after the destructor has begun.
    void submit(std::function<void()> job);

    /// Blocks until every submitted job has finished. If any job threw, the
    /// first captured exception is re-thrown here (subsequent calls do not
    /// re-throw it again).
    void wait();

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable work_available_;
    std::condition_variable all_done_;
    std::size_t in_flight_ = 0;
    bool stopping_ = false;
    std::exception_ptr first_error_;
};

}  // namespace reduce
