#include "fault/serialization.h"

#include <cmath>

#include "util/error.h"

namespace reduce {

json_value fault_grid_to_json(const fault_grid& grid) {
    json_object root;
    root.set("rows", json_value(grid.rows()));
    root.set("cols", json_value(grid.cols()));
    json_array faults;
    for (std::size_t r = 0; r < grid.rows(); ++r) {
        for (std::size_t c = 0; c < grid.cols(); ++c) {
            const pe_fault f = grid.at(r, c);
            if (!is_faulty(f)) { continue; }
            json_object entry;
            entry.set("r", json_value(r));
            entry.set("c", json_value(c));
            entry.set("kind", json_value(to_string(f)));
            faults.push_back(json_value(std::move(entry)));
        }
    }
    root.set("faults", json_value(std::move(faults)));
    return json_value(std::move(root));
}

namespace {

/// Reads `key` of `obj` as an integer in [lo, hi]; anything else — a
/// non-number, a fraction, a value out of range — is an io_error naming
/// `what`. Range-checked as a double first, so no out-of-range value is
/// ever converted.
std::size_t decode_index(const json_object& obj, const char* key, std::size_t lo,
                         std::size_t hi, const char* what) {
    const double d = obj.at(key).as_number();
    if (!(d >= static_cast<double>(lo) && d <= static_cast<double>(hi)) || d != std::floor(d)) {
        throw io_error(std::string("fault map ") + what + " '" + key + "' = " +
                       std::to_string(d) + " is not an integer in [" + std::to_string(lo) +
                       ", " + std::to_string(hi) + "]");
    }
    return static_cast<std::size_t>(d);
}

}  // namespace

fault_grid fault_grid_from_json(const json_value& value) {
    const json_object& root = value.as_object();
    // Each extent is capped on its own before they are multiplied, so the
    // product cannot overflow.
    const std::size_t rows = decode_index(root, "rows", 1, fault_map_max_pes, "extent");
    const std::size_t cols = decode_index(root, "cols", 1, fault_map_max_pes, "extent");
    if (rows * cols > fault_map_max_pes) {
        throw io_error("fault map " + std::to_string(rows) + "x" + std::to_string(cols) +
                       " exceeds the " + std::to_string(fault_map_max_pes) + "-PE cap");
    }
    fault_grid grid(rows, cols);
    for (const json_value& entry : root.at("faults").as_array()) {
        const json_object& obj = entry.as_object();
        const std::size_t r = decode_index(obj, "r", 0, rows - 1, "PE");
        const std::size_t c = decode_index(obj, "c", 0, cols - 1, "PE");
        const std::string& kind = obj.at("kind").as_string();
        try {
            grid.set(r, c, pe_fault_from_string(kind));
        } catch (const invalid_argument_error&) {
            throw io_error("fault map PE (" + std::to_string(r) + "," + std::to_string(c) +
                           ") has unknown kind '" + kind + "'");
        }
    }
    return grid;
}

json_value line_fault_config_to_json(const line_fault_config& cfg) {
    json_object root;
    root.set("fault_rate", json_value(cfg.fault_rate));
    root.set("row_fraction", json_value(cfg.row_fraction));
    root.set("kind_mix", json_value(to_string(cfg.kind_mix)));
    return json_value(std::move(root));
}

line_fault_config line_fault_config_from_json(const json_value& value) {
    const json_object& root = value.as_object();
    line_fault_config cfg;
    cfg.fault_rate = root.at("fault_rate").as_number();
    cfg.row_fraction = root.at("row_fraction").as_number();
    cfg.kind_mix = fault_kind_mix_from_string(root.at("kind_mix").as_string());
    return cfg;
}

json_value chip_to_json(const chip& c) {
    json_object root;
    root.set("id", json_value(c.id));
    // Seeds use the full 64-bit range; JSON numbers (doubles) would lose the
    // low bits, so serialize as a decimal string.
    root.set("seed", json_value(std::to_string(c.seed)));
    root.set("nominal_fault_rate", json_value(c.nominal_fault_rate));
    root.set("fault_map", fault_grid_to_json(c.faults));
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
           fault_grid_from_json(root.at("fault_map"))};
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
