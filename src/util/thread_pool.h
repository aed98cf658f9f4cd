// Fan-out/join parallelism on plain threads.
//
// The framework has one level of parallelism: `run_workers` starts a handful
// of long-running job copies on their own `std::thread`s and joins them. The
// episode driver (core/fat_trainer.h: run_episodes) runs every Step-1 cell
// and every Step-3 chip this way, each copy draining a shared atomic work
// cursor. Every tensor kernel runs serially on its worker's thread. Jobs may
// throw; the first exception is kept and re-thrown after every sibling has
// returned.
#pragma once

#include <cstddef>
#include <functional>

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
/// of 1). The fleet executor's grouping counters carve claimed blocks of
/// this width; an oversized group request never exceeds a fair share.
std::size_t cap_group_at_fair_share(std::size_t group, std::size_t items,
                                    std::size_t workers);

/// Runs `workers` copies of `job` to completion. With one worker the job
/// runs inline on the calling thread (exceptions propagate directly); with
/// more, each copy gets its own std::thread, every thread is joined, and the
/// first failure is re-thrown after all copies have returned.
void run_workers(std::size_t workers, const std::function<void()>& job);

}  // namespace reduce
