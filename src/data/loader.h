// Mini-batch iteration with reshuffling — the unit of "retraining amount".
//
// The Reduce paper measures retraining in (possibly fractional) epochs:
// 0.05 epochs means 5% of one pass over the training set. data_loader is
// therefore step-oriented: next_batch() hands out consecutive shuffled
// batches and reshuffles at every epoch boundary, so a trainer can run an
// arbitrary number of steps and convert steps ↔ epochs exactly.
#pragma once

#include "data/dataset.h"
#include "util/rng.h"

namespace reduce {

/// Cycling shuffled batch iterator over a dataset.
class data_loader {
public:
    /// The loader keeps a reference to `data`; the dataset must outlive it.
    data_loader(const dataset& data, std::size_t batch_size, std::uint64_t seed);

    /// Batches per full pass: ceil(N / batch_size).
    std::size_t steps_per_epoch() const { return steps_per_epoch_; }

    /// Total batches handed out so far.
    std::size_t steps_taken() const { return steps_taken_; }

    /// Returns the next shuffled batch; reshuffles each time a pass ends.
    batch next_batch();

    /// Converts an epoch amount to a whole step count (ceil; minimum 1 when
    /// epochs > 0, 0 when epochs == 0).
    std::size_t steps_for_epochs(double epochs) const;

    /// Resumable position in the batch stream (shuffle RNG, current epoch
    /// order, cursor, step counter) — copyable, so event-driven training
    /// can checkpoint and roll back to an exact point of the stream and
    /// replay the identical batch sequence.
    struct state {
        rng gen;
        std::vector<std::size_t> order;
        std::size_t cursor = 0;
        std::size_t steps_taken = 0;
    };

    /// Captures the current position.
    state save_state() const;

    /// Restores a position captured from this loader (same dataset/batch
    /// size); the stream continues exactly as it would have from there.
    void restore_state(const state& s);

private:
    void start_epoch();

    const dataset& data_;
    std::size_t batch_size_;
    rng gen_;
    std::vector<std::size_t> order_;
    std::size_t cursor_ = 0;
    std::size_t steps_per_epoch_ = 0;
    std::size_t steps_taken_ = 0;
};

}  // namespace reduce
