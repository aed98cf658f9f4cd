#include "accel/systolic_array.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace reduce {

systolic_array::systolic_array(const array_config& config, fault_grid faults)
    : config_(config), faults_(std::move(faults)) {
    REDUCE_CHECK(faults_.rows() == config_.rows && faults_.cols() == config_.cols,
                 "fault grid " << faults_.rows() << "x" << faults_.cols()
                               << " does not match array " << config_.rows << "x"
                               << config_.cols);
}

tensor systolic_array::run_gemm(const tensor& activations, const tensor& weight,
                                const gemm_mapping& mapping, float w_max) const {
    REDUCE_CHECK(activations.dim() == 2, "run_gemm activations must be [M, fan_in]");
    REDUCE_CHECK(weight.dim() == 2, "run_gemm weight must be [fan_out, fan_in]");
    const std::size_t batch = activations.extent(0);
    const std::size_t fan_in = activations.extent(1);
    const std::size_t fan_out = weight.extent(0);
    REDUCE_CHECK(weight.extent(1) == fan_in,
                 "weight " << weight.describe() << " does not match activations "
                           << activations.describe());
    REDUCE_CHECK(mapping.fan_in() == fan_in && mapping.fan_out() == fan_out,
                 "mapping (" << mapping.fan_in() << "x" << mapping.fan_out()
                             << ") does not match GEMM (" << fan_in << "x" << fan_out << ")");
    REDUCE_CHECK(mapping.array_rows() == config_.rows && mapping.array_cols() == config_.cols,
                 "mapping array geometry does not match this array");

    if (w_max <= 0.0f) {
        w_max = 0.0f;
        for (const float w : weight.data()) { w_max = std::max(w_max, std::abs(w)); }
    }

    // The modulo structure means a weight's fault state only depends on
    // (i mod rows, o mod cols) — read the grid's row-major storage directly
    // instead of copying it into a per-call lookup table.
    const std::size_t rows = config_.rows;
    const std::size_t cols = config_.cols;
    const pe_fault* fault_of = faults_.states().data();
    const std::vector<std::size_t>& perm = mapping.column_permutation();

    tensor output({batch, fan_out});
    const float* x = activations.raw();
    const float* w = weight.raw();
    float* y = output.raw();
    for (std::size_t m = 0; m < batch; ++m) {
        const float* xrow = x + m * fan_in;
        float* yrow = y + m * fan_out;
        for (std::size_t o = 0; o < fan_out; ++o) {
            const std::size_t col = perm[o % cols];
            const float* wrow = w + o * fan_in;
            float acc = 0.0f;
            for (std::size_t i = 0; i < fan_in; ++i) {
                const pe_fault f = fault_of[(i % rows) * cols + col];
                acc = pe_mac(f, acc, wrow[i], xrow[i], w_max);
            }
            yrow[o] = acc;
        }
    }
    return output;
}

std::size_t systolic_array::apply_fap() { return faults_.repair_all(pe_fault::bypassed); }

gemm_perf estimate_gemm_perf(const array_config& config, const gemm_mapping& mapping,
                             std::size_t batch, const fault_grid* faults) {
    REDUCE_CHECK(batch > 0, "perf estimate needs a positive batch");
    gemm_perf perf;
    const std::size_t rows = config.rows;
    const std::size_t cols = config.cols;
    const std::vector<std::size_t>& perm = mapping.column_permutation();

    for (std::size_t ti = 0; ti < mapping.row_tiles(); ++ti) {
        const std::size_t tile_rows = std::min(rows, mapping.fan_in() - ti * rows);
        for (std::size_t tj = 0; tj < mapping.col_tiles(); ++tj) {
            const std::size_t tile_cols = std::min(cols, mapping.fan_out() - tj * cols);
            // Weight fill (one row per cycle) + pipelined activation stream.
            perf.cycles += tile_rows;                            // load
            perf.cycles += batch + tile_rows + tile_cols - 2;    // stream + drain
            perf.weight_loads += tile_rows * tile_cols;

            std::size_t faulty_in_tile = 0;
            if (faults != nullptr) {
                for (std::size_t c = 0; c < tile_cols; ++c) {
                    const std::size_t phys_col = perm[c];
                    for (std::size_t r = 0; r < tile_rows; ++r) {
                        if (is_faulty(faults->at(r, phys_col))) { ++faulty_in_tile; }
                    }
                }
            }
            const std::uint64_t tile_macs =
                static_cast<std::uint64_t>(batch) * tile_rows * tile_cols;
            const std::uint64_t lost =
                static_cast<std::uint64_t>(batch) * faulty_in_tile;
            perf.useful_macs += tile_macs - lost;
            perf.lost_macs += lost;
        }
    }

    perf.energy_nj = (static_cast<double>(perf.useful_macs) * config.energy_per_mac_pj +
                      static_cast<double>(perf.weight_loads) * config.energy_per_weight_load_pj +
                      static_cast<double>(batch) * static_cast<double>(mapping.fan_in()) *
                          static_cast<double>(mapping.row_tiles()) *
                          config.energy_per_act_stream_pj) *
                     1e-3;
    const double capacity = static_cast<double>(perf.cycles) *
                            static_cast<double>(config.pe_count());
    perf.utilization = capacity > 0.0 ? static_cast<double>(perf.useful_macs) / capacity : 0.0;
    return perf;
}

}  // namespace reduce
