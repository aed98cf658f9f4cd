#include "tensor/workspace.h"

#include <algorithm>

#include "util/error.h"

namespace reduce {

workspace::buffer::buffer(buffer&& other) noexcept
    : owner_(other.owner_), slot_(other.slot_), data_(other.data_), size_(other.size_) {
    other.owner_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
}

workspace::buffer& workspace::buffer::operator=(buffer&& other) noexcept {
    if (this != &other) {
        if (owner_ != nullptr) { owner_->release(slot_); }
        owner_ = other.owner_;
        slot_ = other.slot_;
        data_ = other.data_;
        size_ = other.size_;
        other.owner_ = nullptr;
        other.data_ = nullptr;
        other.size_ = 0;
    }
    return *this;
}

workspace::buffer::~buffer() {
    if (owner_ != nullptr) { owner_->release(slot_); }
}

workspace::~workspace() = default;

workspace::buffer workspace::acquire(std::size_t n) {
    REDUCE_CHECK(n > 0, "workspace::acquire needs a positive size");
    // Best fit: the smallest free slab that holds n, so a small lease does
    // not pin the big conv-lowering slab.
    std::size_t best = slabs_.size();
    for (std::size_t i = 0; i < slabs_.size(); ++i) {
        const slab& s = slabs_[i];
        if (s.leased || s.capacity < n) { continue; }
        if (best == slabs_.size() || s.capacity < slabs_[best].capacity) { best = i; }
    }
    if (best == slabs_.size()) {
        // Uninitialized storage on purpose: callers overwrite what they lease.
        slabs_.push_back(slab{std::unique_ptr<float[]>(new float[n]), n, false});
    }
    slab& s = slabs_[best];
    s.leased = true;
    ++outstanding_;
    leased_floats_ += s.capacity;
    peak_floats_ = std::max(peak_floats_, leased_floats_);
    return buffer(this, best, s.data.get(), n);
}

void workspace::release(std::size_t slot) {
    slab& s = slabs_[slot];
    s.leased = false;
    --outstanding_;
    leased_floats_ -= s.capacity;
}

std::size_t workspace::pooled_bytes() const {
    std::size_t total = 0;
    for (const slab& s : slabs_) { total += s.capacity * sizeof(float); }
    return total;
}

workspace& workspace::local() {
    static thread_local workspace arena;
    return arena;
}

}  // namespace reduce
