// Serialization of fault maps and chips.
//
// Fault maps are the per-chip artifact that travels between fab test and the
// retraining service in the paper's flow: one per fleet lease on the wire,
// one per chip in fleet files. Chip identity (id, seed, nominal rate) stays
// readable JSON; the map itself is a compact, versioned binary codec carried
// as base64 inside the chip document — a 256×256 map at rate 0.15 is about
// 14 KB instead of ~10⁴ per-PE JSON objects.
//
// Fault-map codec, version 1 (every integer an unsigned LEB128 varint):
//
//   "RFM1"                        4-byte magic + version tag
//   rows, cols                    extents, each >= 1, rows × cols <= cap
//   n_bypassed, n_stuck_zero,     number of PEs in each faulty kind
//   n_stuck_max, n_stuck_min
//   for each kind, in that order: its row-major PE indices, ascending —
//                                 the first absolute, each later one as the
//                                 (non-zero) gap to its predecessor
//
// Healthy PEs are implicit. Encoding is a pure function of the grid, so equal
// grids give equal bytes, and every accepted input re-encodes to itself.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "accel/fault_grid.h"
#include "fault/chip.h"
#include "util/json.h"

namespace reduce {

/// Largest rows × cols a decoded fault map may declare: 16 × the 256×256
/// array, the largest in use. Bounds what a malformed map can make the
/// decoder allocate.
inline constexpr std::size_t fault_map_max_pes = std::size_t{1} << 20;

/// fault_grid → codec bytes (format above).
std::string fault_grid_to_bytes(const fault_grid& grid);

/// Codec bytes → fault_grid. Throws io_error on any malformed input: a bad
/// magic or version tag; truncation anywhere, mid-varint included; a varint
/// that overflows 64 bits or is not minimally encoded; a zero extent, or an
/// extent or rows × cols over fault_map_max_pes; a kind count over the PE
/// count, or counts summing past it; a PE index out of range; a PE listed
/// twice, within one kind or across kinds; trailing bytes. Nothing is
/// allocated before the extents pass the cap.
fault_grid fault_grid_from_bytes(std::string_view bytes);

/// chip → JSON: {"id", "seed" (decimal string), "nominal_fault_rate",
/// "fault_map" (base64 of the codec bytes)}.
json_value chip_to_json(const chip& c);

/// JSON → chip; throws io_error on a malformed seed, base64 or fault map.
chip chip_from_json(const json_value& value);

/// Fleet convenience wrappers.
json_value fleet_to_json(const std::vector<chip>& fleet);
std::vector<chip> fleet_from_json(const json_value& value);

/// File round-trips.
void save_fleet(const std::string& path, const std::vector<chip>& fleet);
std::vector<chip> load_fleet(const std::string& path);

}  // namespace reduce
