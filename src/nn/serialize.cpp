#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>

#include "util/error.h"

namespace reduce {

model_snapshot snapshot_parameters(const std::vector<parameter*>& params) {
    model_snapshot snap;
    snap.names.reserve(params.size());
    snap.values.reserve(params.size());
    for (const parameter* p : params) {
        REDUCE_CHECK(p != nullptr, "snapshot received a null parameter");
        snap.names.push_back(p->name);
        snap.values.push_back(p->value);
    }
    return snap;
}

void restore_parameters(const std::vector<parameter*>& params, const model_snapshot& snapshot) {
    if (params.size() != snapshot.size()) {
        throw io_error("snapshot has " + std::to_string(snapshot.size()) +
                       " parameters, model has " + std::to_string(params.size()));
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (params[i]->value.shape() != snapshot.values[i].shape()) {
            throw io_error("snapshot parameter " + std::to_string(i) + " shape " +
                           snapshot.values[i].describe() + " does not match model " +
                           params[i]->value.describe());
        }
        params[i]->value = snapshot.values[i];
    }
}

model_snapshot snapshot_model(sequential& model) {
    model_snapshot snap = snapshot_parameters(model.parameters());
    for (const tensor* buffer : model.state_buffers()) {
        REDUCE_CHECK(buffer != nullptr, "snapshot received a null state buffer");
        snap.state.push_back(*buffer);
    }
    return snap;
}

void restore_model(sequential& model, const model_snapshot& snapshot) {
    restore_parameters(model.parameters(), snapshot);
    if (snapshot.state.empty()) { return; }  // parameters-only capture
    const std::vector<tensor*> buffers = model.state_buffers();
    if (buffers.size() != snapshot.state.size()) {
        throw io_error("snapshot has " + std::to_string(snapshot.state.size()) +
                       " state buffers, model has " + std::to_string(buffers.size()));
    }
    for (std::size_t i = 0; i < buffers.size(); ++i) {
        if (buffers[i]->shape() != snapshot.state[i].shape()) {
            throw io_error("snapshot state buffer " + std::to_string(i) + " shape " +
                           snapshot.state[i].describe() + " does not match model " +
                           buffers[i]->describe());
        }
        *buffers[i] = snapshot.state[i];
    }
}

namespace {

constexpr char k_magic_v1[] = "RDNN1\n";
constexpr char k_magic_v2[] = "RDNN2\n";
constexpr std::size_t k_magic_len = 6;

template <typename T>
void write_pod(std::ostream& os, T value) {
    os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::istream& is) {
    T value{};
    is.read(reinterpret_cast<char*>(&value), sizeof value);
    if (!is) { throw io_error("unexpected end of snapshot file"); }
    return value;
}

void write_tensor(std::ostream& os, const tensor& value) {
    write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(value.dim()));
    for (const std::size_t extent : value.shape()) {
        write_pod<std::uint64_t>(os, extent);
    }
    os.write(reinterpret_cast<const char*>(value.raw()),
             static_cast<std::streamsize>(value.numel() * sizeof(float)));
}

// Sanity bounds for counts read from disk: far above any real model, low
// enough that a corrupt header throws the documented io_error instead of
// driving an unchecked multi-gigabyte allocation (std::length_error /
// bad_alloc) out of vector::reserve or the tensor constructor.
constexpr std::uint64_t k_max_entries = 1u << 20;
constexpr std::uint32_t k_max_rank = 32;

/// Bytes left between the read position and the end of a seekable stream;
/// nullopt for streams that cannot seek.
std::optional<std::uint64_t> remaining_bytes(std::istream& is) {
    const std::istream::pos_type here = is.tellg();
    if (here == std::istream::pos_type(-1)) { return std::nullopt; }
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.seekg(here);
    if (end == std::istream::pos_type(-1) || !is) { return std::nullopt; }
    return static_cast<std::uint64_t>(end - here);
}

/// Rejects an entry count above the sanity bound or — on a seekable stream —
/// above what the remaining bytes can hold at `min_bytes` per entry, before
/// anything is reserved for it.
void check_count(std::istream& is, std::uint64_t count, std::uint64_t min_bytes,
                 const std::string& what) {
    const std::optional<std::uint64_t> left = remaining_bytes(is);
    if (count > k_max_entries || (left.has_value() && count > *left / min_bytes)) {
        throw io_error("corrupt snapshot: " + what + " count " + std::to_string(count) +
                       (left.has_value() ? " but only " + std::to_string(*left) + " bytes remain"
                                         : std::string()));
    }
}

tensor read_tensor(std::istream& is) {
    const auto rank = read_pod<std::uint32_t>(is);
    if (rank > k_max_rank) {
        throw io_error("corrupt snapshot: tensor rank " + std::to_string(rank));
    }
    shape_t shape(rank);
    // The extents come off disk or the wire: their product must neither
    // wrap (a wrapped product would allocate a tensor far smaller than its
    // shape claims) nor ask for more payload than the stream still holds.
    std::size_t bytes = sizeof(float);
    for (auto& extent : shape) {
        const auto e = read_pod<std::uint64_t>(is);
        if (__builtin_mul_overflow(bytes, e, &bytes)) {
            throw io_error("corrupt snapshot: tensor extents overflow");
        }
        extent = static_cast<std::size_t>(e);
    }
    const std::optional<std::uint64_t> left = remaining_bytes(is);
    if (left.has_value() && bytes > *left) {
        throw io_error("corrupt snapshot: tensor of " + std::to_string(bytes) +
                       " bytes but only " + std::to_string(*left) + " remain");
    }
    tensor value(shape);
    is.read(reinterpret_cast<char*>(value.raw()),
            static_cast<std::streamsize>(value.numel() * sizeof(float)));
    if (!is) { throw io_error("unexpected end of snapshot file"); }
    return value;
}

}  // namespace

void save_snapshot(std::ostream& os, const model_snapshot& snapshot) {
    // State-free snapshots stay on the v1 format so their files remain
    // readable by pre-RDNN2 tools and byte-identical to earlier releases.
    const bool versioned = !snapshot.state.empty();
    os.write(versioned ? k_magic_v2 : k_magic_v1, k_magic_len);
    write_pod<std::uint64_t>(os, snapshot.size());
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        const std::string& name = snapshot.names[i];
        write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(name.size()));
        os.write(name.data(), static_cast<std::streamsize>(name.size()));
        write_tensor(os, snapshot.values[i]);
    }
    if (versioned) {
        write_pod<std::uint64_t>(os, snapshot.state.size());
        for (const tensor& buffer : snapshot.state) { write_tensor(os, buffer); }
    }
    if (!os) { throw io_error("failed while writing snapshot stream"); }
}

void save_snapshot(const std::string& path, const model_snapshot& snapshot) {
    std::ofstream file(path, std::ios::binary);
    if (!file) { throw io_error("cannot open snapshot file for writing: " + path); }
    save_snapshot(static_cast<std::ostream&>(file), snapshot);
    if (!file) { throw io_error("failed while writing snapshot: " + path); }
}

model_snapshot load_snapshot(std::istream& is) {
    char magic[k_magic_len] = {};
    is.read(magic, k_magic_len);
    const std::string header(magic, k_magic_len);
    const bool v1 = header == std::string(k_magic_v1, k_magic_len);
    const bool v2 = header == std::string(k_magic_v2, k_magic_len);
    if (!is || (!v1 && !v2)) {
        throw io_error("not a model snapshot stream");
    }
    // A parameter needs at least its name length and rank (8 bytes).
    const auto count = read_pod<std::uint64_t>(is);
    check_count(is, count, 8, "parameter");
    model_snapshot snap;
    snap.names.reserve(count);
    snap.values.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const auto name_len = read_pod<std::uint32_t>(is);
        if (name_len > k_max_entries) {
            throw io_error("corrupt snapshot: name length " + std::to_string(name_len));
        }
        std::string name(name_len, '\0');
        is.read(name.data(), name_len);
        if (!is) { throw io_error("unexpected end of snapshot file"); }
        snap.names.push_back(std::move(name));
        snap.values.push_back(read_tensor(is));
    }
    if (v2) {
        // A state buffer needs at least its rank (4 bytes). save_snapshot
        // writes RDNN1 for state-free snapshots, so RDNN2 with no buffers
        // is not an encoding it produces.
        const auto state_count = read_pod<std::uint64_t>(is);
        if (state_count == 0) { throw io_error("corrupt snapshot: RDNN2 without state buffers"); }
        check_count(is, state_count, 4, "state buffer");
        snap.state.reserve(state_count);
        for (std::uint64_t i = 0; i < state_count; ++i) {
            snap.state.push_back(read_tensor(is));
        }
    }
    return snap;
}

model_snapshot load_snapshot(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    if (!file) { throw io_error("cannot open snapshot file: " + path); }
    return load_snapshot(static_cast<std::istream&>(file));
}

std::string snapshot_to_bytes(const model_snapshot& snapshot) {
    std::ostringstream buffer(std::ios::binary);
    save_snapshot(buffer, snapshot);
    return std::move(buffer).str();
}

model_snapshot snapshot_from_bytes(const std::string& bytes) {
    std::istringstream buffer(bytes, std::ios::binary);
    model_snapshot snap = load_snapshot(buffer);
    // A byte buffer is one whole payload: anything after it means the bytes
    // are corrupt, not a second snapshot.
    if (buffer.peek() != std::char_traits<char>::eof()) {
        throw io_error("corrupt snapshot: trailing bytes after the payload");
    }
    return snap;
}

}  // namespace reduce
