#include "fault/serialization.h"

#include <cstdint>

#include "util/base64.h"
#include "util/error.h"

namespace reduce {

namespace {

constexpr std::string_view k_tag = "RFM1";

/// Faulty kinds in codec order: the pe_fault enum after `healthy`, which is
/// implicit, so kind k is pe_fault value k + 1.
constexpr std::size_t k_kind_count = 4;
static_assert(static_cast<std::size_t>(pe_fault::stuck_weight_min) == k_kind_count);

void put_varint(std::string& out, std::uint64_t v) {
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/// Bounds-checked cursor over the codec bytes; every failure is an
/// io_error naming what was being read.
class byte_reader {
public:
    explicit byte_reader(std::string_view bytes) : bytes_(bytes) {}

    std::size_t remaining() const { return bytes_.size() - pos_; }

    /// One minimal LEB128 varint of at most 64 bits.
    std::uint64_t varint(const char* what) {
        std::uint64_t v = 0;
        for (unsigned shift = 0;; shift += 7) {
            if (pos_ == bytes_.size()) {
                throw io_error(std::string("fault map truncated in ") + what);
            }
            const auto b = static_cast<unsigned char>(bytes_[pos_++]);
            if (shift == 63 && b > 1) {
                throw io_error(std::string("fault map varint overflows 64 bits in ") + what);
            }
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0) {
                // A zero final byte after a continuation adds nothing: the
                // value has a shorter encoding, which is the only one accepted.
                if (b == 0 && shift > 0) {
                    throw io_error(std::string("fault map varint is not minimal in ") + what);
                }
                return v;
            }
        }
    }

private:
    std::string_view bytes_;
    std::size_t pos_ = 0;
};

}  // namespace

std::string fault_grid_to_bytes(const fault_grid& grid) {
    // One pass over the row-major states gap-codes each kind's list; the
    // first index of a kind is its own gap from 0.
    std::string lists[k_kind_count];
    std::size_t counts[k_kind_count] = {};
    std::size_t prev[k_kind_count] = {};
    const std::vector<pe_fault>& states = grid.states();
    for (std::size_t i = 0; i < states.size(); ++i) {
        if (states[i] == pe_fault::healthy) { continue; }
        const auto k = static_cast<std::size_t>(states[i]) - 1;
        put_varint(lists[k], i - prev[k]);
        prev[k] = i;
        ++counts[k];
    }
    std::string out(k_tag);
    put_varint(out, grid.rows());
    put_varint(out, grid.cols());
    for (const std::size_t n : counts) { put_varint(out, n); }
    for (const std::string& list : lists) { out += list; }
    return out;
}

fault_grid fault_grid_from_bytes(std::string_view bytes) {
    if (bytes.size() < k_tag.size() || bytes.substr(0, 3) != k_tag.substr(0, 3)) {
        throw io_error("not a fault map: bad magic");
    }
    if (bytes[3] != k_tag[3]) {
        throw io_error("unsupported fault map version byte " +
                       std::to_string(static_cast<unsigned char>(bytes[3])) +
                       " (this build reads '" + k_tag[3] + "')");
    }
    byte_reader in(bytes.substr(k_tag.size()));
    // Each extent is capped on its own before they are multiplied, so the
    // product cannot overflow.
    const std::uint64_t rows = in.varint("rows");
    const std::uint64_t cols = in.varint("cols");
    if (rows == 0 || cols == 0 || rows > fault_map_max_pes || cols > fault_map_max_pes ||
        rows * cols > fault_map_max_pes) {
        throw io_error("fault map extents " + std::to_string(rows) + "x" +
                       std::to_string(cols) + " are not within [1, " +
                       std::to_string(fault_map_max_pes) + "] PEs");
    }
    const std::uint64_t pes = rows * cols;
    std::uint64_t counts[k_kind_count];
    std::uint64_t total = 0;
    for (std::uint64_t& n : counts) {
        n = in.varint("a kind count");
        // Each count is at most pes (<= 2^20) once checked, so the running
        // total cannot overflow.
        if (n > pes || (total += n) > pes) {
            throw io_error("fault map lists more faulty PEs than its " + std::to_string(pes));
        }
    }
    // Every index takes at least one byte: a cheap early truncation check.
    if (total > in.remaining()) {
        throw io_error("fault map truncated: " + std::to_string(total) + " indices in " +
                       std::to_string(in.remaining()) + " bytes");
    }

    fault_grid grid(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
    for (std::size_t k = 0; k < k_kind_count; ++k) {
        std::uint64_t index = 0;
        for (std::uint64_t i = 0; i < counts[k]; ++i) {
            const std::uint64_t gap = in.varint("a PE index");
            if (gap >= pes - index) {
                throw io_error("fault map PE index " + std::to_string(index) + "+" +
                               std::to_string(gap) + " is outside its " +
                               std::to_string(pes) + " PEs");
            }
            index += gap;
            const std::size_t r = static_cast<std::size_t>(index / cols);
            const std::size_t c = static_cast<std::size_t>(index % cols);
            // Catches a zero gap (the same PE twice in one kind) and a PE
            // listed under two kinds alike.
            if (is_faulty(grid.at(r, c))) {
                throw io_error("fault map lists PE " + std::to_string(index) + " twice");
            }
            grid.set(r, c, static_cast<pe_fault>(k + 1));
        }
    }
    if (in.remaining() != 0) {
        throw io_error("fault map has " + std::to_string(in.remaining()) + " trailing bytes");
    }
    return grid;
}

json_value chip_to_json(const chip& c) {
    json_object root;
    root.set("id", json_value(c.id));
    // Seeds use the full 64-bit range; JSON numbers (doubles) would lose the
    // low bits, so serialize as a decimal string.
    root.set("seed", json_value(std::to_string(c.seed)));
    root.set("nominal_fault_rate", json_value(c.nominal_fault_rate));
    root.set("fault_map", json_value(base64_encode(fault_grid_to_bytes(c.faults))));
    return json_value(std::move(root));
}

chip chip_from_json(const json_value& value) {
    const json_object& root = value.as_object();
    const std::string& seed_text = root.at("seed").as_string();
    char* end = nullptr;
    const std::uint64_t seed = std::strtoull(seed_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || seed_text.empty()) {
        throw io_error("chip seed is not a decimal string: '" + seed_text + "'");
    }
    chip c{static_cast<std::size_t>(root.at("id").as_int()), seed,
           root.at("nominal_fault_rate").as_number(),
           fault_grid_from_bytes(base64_decode(root.at("fault_map").as_string()))};
    return c;
}

json_value fleet_to_json(const std::vector<chip>& fleet) {
    json_array chips;
    chips.reserve(fleet.size());
    for (const chip& c : fleet) { chips.push_back(chip_to_json(c)); }
    json_object root;
    root.set("chips", json_value(std::move(chips)));
    return json_value(std::move(root));
}

std::vector<chip> fleet_from_json(const json_value& value) {
    const json_object& root = value.as_object();
    std::vector<chip> fleet;
    for (const json_value& entry : root.at("chips").as_array()) {
        fleet.push_back(chip_from_json(entry));
    }
    return fleet;
}

void save_fleet(const std::string& path, const std::vector<chip>& fleet) {
    json_save_file(path, fleet_to_json(fleet));
}

std::vector<chip> load_fleet(const std::string& path) {
    return fleet_from_json(json_load_file(path));
}

}  // namespace reduce
