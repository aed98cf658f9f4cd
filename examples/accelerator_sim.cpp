// Example: the accelerator substrate up close.
//
// Runs one DNN layer through the weight-stationary systolic-array
// functional model under increasing permanent-fault rates, showing:
//   * what unmitigated stuck-at faults do to the layer's output error,
//   * that FAP bypass equals weight masking (printed max deviation),
//   * the performance model: cycles, utilization, energy, and the work
//     lost to bypassed PEs (FAP costs throughput, not latency).
//
// Usage: accelerator_sim [--array 64] [--fan-in 128] [--fan-out 96]
//          [--batch 16] [--rates 0.01,0.05,0.1,0.2]

#include <cmath>
#include <iostream>

#include "accel/systolic_array.h"
#include "fault/mask_builder.h"
#include "fault/models.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/rng.h"

using namespace reduce;

namespace {

double max_abs_diff(const tensor& a, const tensor& b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i) {
        worst = std::max(worst, std::abs(static_cast<double>(a[i]) - b[i]));
    }
    return worst;
}

double rms(const tensor& t) {
    return std::sqrt(squared_norm(t) / static_cast<double>(t.numel()));
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        array_config cfg;
        cfg.rows = static_cast<std::size_t>(args.get_int("array", 64));
        cfg.cols = cfg.rows;
        const std::size_t fan_in = static_cast<std::size_t>(args.get_int("fan-in", 128));
        const std::size_t fan_out = static_cast<std::size_t>(args.get_int("fan-out", 96));
        const std::size_t batch = static_cast<std::size_t>(args.get_int("batch", 16));
        const std::vector<double> rates =
            args.get_double_list("rates", {0.01, 0.05, 0.1, 0.2});
        args.reject_unread_options();

        std::cout << "== Systolic-array simulation ==\n"
                  << "array " << cfg.rows << "x" << cfg.cols << " | GEMM " << fan_in << "x"
                  << fan_out << " | batch " << batch << "\n\n";

        rng gen(2024);
        tensor x({batch, fan_in});
        tensor wgt({fan_out, fan_in});
        uniform_init(x, -1.0f, 1.0f, gen);
        uniform_init(wgt, -0.5f, 0.5f, gen);
        const gemm_mapping mapping(cfg, fan_in, fan_out);
        const tensor golden = matmul_nt(x, wgt);
        std::cout << "golden output RMS: " << rms(golden) << "\n\n";

        csv_table out({"fault_rate", "stuck_rms_error", "fap_rms_error",
                       "fap_vs_mask_max_diff", "cycles", "utilization", "energy_nj",
                       "lost_macs"});
        out.set_precision(4);
        for (const double rate : rates) {
            // Unmitigated: random stuck weight registers.
            random_fault_config stuck_cfg;
            stuck_cfg.fault_rate = rate;
            stuck_cfg.kind_mix = fault_kind_mix::random_stuck;
            const fault_grid stuck = generate_random_faults(
                cfg, stuck_cfg, 1000 + static_cast<std::uint64_t>(rate * 1e4));
            const systolic_array broken(cfg, stuck);
            const tensor y_stuck = broken.run_gemm(x, wgt, mapping);

            // Same defects, FAP-repaired.
            systolic_array repaired(cfg, stuck);
            repaired.apply_fap();
            const tensor y_fap = repaired.run_gemm(x, wgt, mapping);

            // Equivalence check against the mask fast path.
            const tensor mask = build_weight_mask(mapping, repaired.faults());
            const tensor y_mask = matmul_nt(x, mul(wgt, mask));

            const gemm_perf perf =
                estimate_gemm_perf(cfg, mapping, batch, &repaired.faults());
            out.add_row({rate, rms(sub(y_stuck, golden)), rms(sub(y_fap, golden)),
                         max_abs_diff(y_fap, y_mask), static_cast<long long>(perf.cycles),
                         perf.utilization, perf.energy_nj,
                         static_cast<long long>(perf.lost_macs)});
        }
        out.write_pretty(std::cout);
        std::cout << "\nReading the table:\n"
                  << "  stuck_rms_error >> fap_rms_error: unmitigated faults are\n"
                  << "  catastrophic, FAP degrades gracefully (Zhang et al., VTS'18).\n"
                  << "  fap_vs_mask_max_diff = 0: bypassed execution IS weight masking\n"
                  << "  (the equivalence the training stack relies on).\n"
                  << "  cycles constant across rates: FAP costs work, not latency.\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
