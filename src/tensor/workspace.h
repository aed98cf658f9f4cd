// Thread-local scratch arena for the tensor hot paths.
//
// Every stage of the Reduce pipeline bottoms out in conv lowering and the
// GEMM family, which used to allocate fresh buffers on every call — one
// im2col matrix, one GEMM output, and two std::vector image copies per
// image per training step. The workspace replaces those with a small pool
// of reusable slabs: after the first step of a training run the hot path
// performs no heap allocation at all.
//
// Concurrency model: the arena is thread-local (`workspace::local()`), so
// the parallel sweep/fleet workers each own an independent pool without
// locking. Fleet/sweep worker threads are short-lived (run_workers builds
// a pool per fan-out), so a worker's slabs are released when its thread
// exits. The main thread's arena persists and is bounded by the largest
// layer it ever lowered.
//
// Determinism: the arena only recycles memory — it never changes the
// numbers a kernel produces, so sweep/fleet bit-identical guarantees are
// unaffected by pool state.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace reduce {

/// Pool of float slabs with checkout/return semantics.
class workspace {
public:
    /// RAII lease of a slab; returns it to the owning pool on destruction.
    /// Contents are unspecified unless acquired through acquire_zeroed().
    class buffer {
    public:
        buffer() = default;
        buffer(buffer&& other) noexcept;
        buffer& operator=(buffer&& other) noexcept;
        buffer(const buffer&) = delete;
        buffer& operator=(const buffer&) = delete;
        ~buffer();

        float* data() { return data_; }
        const float* data() const { return data_; }
        std::size_t size() const { return size_; }

        /// Sets the leased region (not the whole slab) to zero.
        void zero();

    private:
        friend class workspace;
        buffer(workspace* owner, std::size_t slot, float* data, std::size_t size)
            : owner_(owner), slot_(slot), data_(data), size_(size) {}

        workspace* owner_ = nullptr;
        std::size_t slot_ = 0;  ///< index into the owner's slab table
        float* data_ = nullptr;
        std::size_t size_ = 0;
    };

    workspace() = default;
    workspace(const workspace&) = delete;
    workspace& operator=(const workspace&) = delete;
    ~workspace();

    /// Leases a slab of at least `n` floats (contents unspecified). Best-fit
    /// over the free slabs; allocates a new slab only when none fits, so
    /// steady-state training loops stop allocating after warm-up.
    buffer acquire(std::size_t n);

    /// Leases a slab with the first `n` floats zeroed.
    buffer acquire_zeroed(std::size_t n);

    /// Bytes currently held by the pool (free + leased slabs).
    std::size_t pooled_bytes() const;

    /// Number of currently leased (not yet returned) buffers.
    std::size_t outstanding() const { return outstanding_; }

    /// High-water mark of simultaneously leased floats.
    std::size_t peak_floats() const { return peak_floats_; }

    /// Releases all free slabs back to the OS. Leased buffers stay valid;
    /// their slabs are dropped (not pooled) when returned.
    void trim();

    /// The calling thread's arena. Each sweep/fleet worker thread gets its
    /// own instance; it is destroyed when the thread exits.
    static workspace& local();

private:
    struct slab {
        std::unique_ptr<float[]> data;
        std::size_t capacity = 0;
        bool leased = false;
        bool pooled = true;  ///< false after trim(): drop on return
    };

    void release(std::size_t slot);

    std::vector<slab> slabs_;
    std::size_t outstanding_ = 0;
    std::size_t leased_floats_ = 0;
    std::size_t peak_floats_ = 0;
};

}  // namespace reduce
