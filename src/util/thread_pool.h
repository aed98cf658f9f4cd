// Minimal fixed-size worker pool for fan-out/join parallelism, plus the
// intra-op `parallel_for` primitive the tensor kernels run on.
//
// Two levels of parallelism share this file, mirroring the two-level thread
// budget of the whole framework:
//
//  * INTER-op (fleet level): `run_workers` runs a handful of long-running
//    job copies (one per worker, each draining a shared atomic work
//    counter) on a temporary `thread_pool` — the fleet executor and the
//    resilience sweep engine fan chips/cells out this way.
//  * INTRA-op (tensor level): `parallel_for` splits one kernel's index
//    range over a PERSISTENT process-wide pool sized by
//    `set_intra_op_threads`. The caller thread always participates and
//    claims chunks itself, so a busy pool can never deadlock a caller —
//    worst case the caller computes everything inline.
//
// Nesting rule: parallel regions do not nest. A `parallel_for` body — on
// the caller thread or on an intra-op pool worker — must not call
// `parallel_for` or `run_workers` again; both report a clear error
// (REDUCE_CHECK) instead of silently serializing or deadlocking. The
// supported composition is the other way around: `run_workers` jobs (fleet
// workers) MAY call `parallel_for`, which is how a retraining episode uses
// its per-worker slice of the gemm-thread budget. Jobs may throw; the first
// exception is captured and re-thrown after every sibling has finished.
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

/// The two-level thread budget: how many fleet/sweep workers fan out over
/// chips or grid cells (inter-op), and how many intra-op threads each
/// worker's tensor kernels may use via parallel_for. Neither level ever
/// changes results — outcomes are bit-identical at any budget (the kernels
/// never split a K accumulation across threads); the budget only moves
/// wall-clock time.
struct thread_budget {
    std::size_t fleet_workers = 1;
    std::size_t gemm_threads = 1;
};

/// Resolves a two-level request against the machine. `fleet_workers` and
/// `gemm_threads` follow resolve_thread_count semantics (0 → hardware
/// concurrency); `work_items` caps the worker count. Oversubscription
/// guard: when more than one fleet worker runs, the per-worker intra-op
/// budget is shrunk so that workers x gemm_threads never exceeds the
/// hardware thread count — inter-chip workers already saturate the machine,
/// and oversubscribing it with nested GEMM threads only adds contention
/// (a LOG_WARN reports the shrink). A single-worker run keeps its explicit
/// gemm_threads request unclamped.
thread_budget resolve_thread_budget(std::size_t fleet_workers, std::size_t gemm_threads,
                                    std::size_t work_items);

/// Sets the process-wide intra-op thread budget consumed by parallel_for
/// (0 → hardware concurrency; the value is resolved before storing).
/// Returns the previous budget. Default is 1: serial kernels unless a
/// harness or engine opts in (--gemm-threads).
std::size_t set_intra_op_threads(std::size_t threads);

/// Current intra-op thread budget (always >= 1).
std::size_t intra_op_threads();

/// RAII budget override: sets the intra-op budget on construction and
/// restores the previous value on destruction — how the fleet executor and
/// the sweep engine scope their guarded per-worker budget to one run.
class scoped_intra_op_threads {
public:
    explicit scoped_intra_op_threads(std::size_t threads)
        : previous_(set_intra_op_threads(threads)) {}
    scoped_intra_op_threads(const scoped_intra_op_threads&) = delete;
    scoped_intra_op_threads& operator=(const scoped_intra_op_threads&) = delete;
    ~scoped_intra_op_threads() { set_intra_op_threads(previous_); }

private:
    std::size_t previous_;
};

/// Runs `body(begin, end)` over a static partition of [0, n) into at most
/// intra_op_threads() contiguous chunks. Chunk boundaries are a pure
/// function of n and the budget — never of scheduling — and the caller
/// thread participates (claiming chunks alongside the persistent intra-op
/// pool), so the call makes progress even when every pool worker is busy
/// with another caller. Determinism is the CALLER's contract: bodies must
/// write disjoint output ranges and keep every accumulation chain within
/// one chunk (the GEMM drivers partition M/N macro-panels and never split
/// K, which is why their results are bit-identical at any budget).
/// Exceptions from any chunk are captured; the first is re-thrown on the
/// caller after all chunks finish. Throws immediately when invoked from
/// inside a parallel region (see the nesting rule above).
void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& body);

/// True while the calling thread executes a parallel_for body (either as
/// the caller or as an intra-op pool worker). Exposed for kernels that want
/// to assert the nesting rule early with a domain-specific message.
bool in_intra_op_region();

/// The shared fan-out gate of every intra-op kernel: true when the budget
/// exceeds one thread, the caller is not already inside a parallel region,
/// and `work` (a caller-chosen unit: multiply-adds for GEMM, elements for
/// data movement) reaches `min_work`. Gating is a pure function of shapes
/// and the budget — and even an "oversized" fan-out of tiny work is merely
/// slow, never wrong, since the kernels are bit-identical at any budget.
inline bool should_fan_out(double work, double min_work) {
    return intra_op_threads() > 1 && !in_intra_op_region() && work >= min_work;
}

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
/// failure after every copy has finished. Job copies may call parallel_for;
/// run_workers itself must NOT be called from inside a parallel_for body
/// (it reports a clear error — see the nesting rule above).
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
