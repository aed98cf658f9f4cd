// JSON (de)serialization of fault maps and chips.
//
// Fault maps are the per-chip artifact that travels between fab test and the
// retraining service in the paper's flow, so they get a stable,
// human-inspectable on-disk form. Faulty PEs are stored sparsely.
#pragma once

#include <string>
#include <vector>

#include "accel/fault_grid.h"
#include "fault/chip.h"
#include "fault/models.h"
#include "util/json.h"

namespace reduce {

/// fault_grid → JSON: {"rows": R, "cols": C, "faults": [{"r","c","kind"}...]}.
json_value fault_grid_to_json(const fault_grid& grid);

/// Largest rows × cols a decoded fault map may declare: 16 × the 256×256
/// array, the largest in use. Bounds what a malformed map can make the
/// decoder allocate.
inline constexpr std::size_t fault_map_max_pes = std::size_t{1} << 20;

/// JSON → fault_grid; throws io_error on malformed documents: a missing or
/// mistyped member, non-positive or non-integral rows/cols, rows × cols
/// over fault_map_max_pes, a PE outside the grid, or an unknown fault kind.
fault_grid fault_grid_from_json(const json_value& value);

/// line_fault_config ⇄ JSON ({"fault_rate","row_fraction","kind_mix"}) —
/// the model descriptor that travels alongside a line-fault map so the
/// receiving end can regenerate or extend the map deterministically.
json_value line_fault_config_to_json(const line_fault_config& cfg);
line_fault_config line_fault_config_from_json(const json_value& value);

/// chip → JSON (id, seed, nominal rate + embedded fault map).
json_value chip_to_json(const chip& c);

/// JSON → chip.
chip chip_from_json(const json_value& value);

/// Fleet convenience wrappers.
json_value fleet_to_json(const std::vector<chip>& fleet);
std::vector<chip> fleet_from_json(const json_value& value);

/// File round-trips.
void save_fleet(const std::string& path, const std::vector<chip>& fleet);
std::vector<chip> load_fleet(const std::string& path);

}  // namespace reduce
