// Functional model of a weight-stationary systolic array with faults.
//
// This is the ground-truth executor: it computes a GEMM the way the damaged
// hardware would, PE by PE, honoring each PE's fault state. The training
// stack never calls this in its hot loop — instead the fault module derives
// a weight mask and the tests in tests/accel_equivalence_test.cpp prove that
// masked execution on healthy hardware is bit-identical to FAP-bypassed
// execution here. That equivalence is what licenses the fast path.
#pragma once

#include "accel/array_config.h"
#include "accel/fault_grid.h"
#include "accel/mapping.h"
#include "tensor/tensor.h"

namespace reduce {

/// Executes GEMMs on a (possibly faulty) weight-stationary PE array.
class systolic_array {
public:
    /// The array adopts the geometry of `config`; `faults` must match it.
    systolic_array(const array_config& config, fault_grid faults);

    const array_config& config() const { return config_; }
    const fault_grid& faults() const { return faults_; }

    /// Mutable fault state (tests inject faults incrementally).
    fault_grid& faults() { return faults_; }

    /// Runs Y = X · Wᵀ through the array.
    /// activations: [M, fan_in]; weight: [fan_out, fan_in] (linear-layer
    /// layout); returns [M, fan_out]. The mapping decides which PE hosts
    /// each weight; each PE applies its fault behaviour (pe_mac).
    ///
    /// `w_max` is the stuck-at magnitude; pass a non-positive value to use
    /// max|W| (per-layer weight range).
    tensor run_gemm(const tensor& activations, const tensor& weight,
                    const gemm_mapping& mapping, float w_max = -1.0f) const;

    /// Applies FAP: turns every faulty PE into a bypassed one. Returns the
    /// number of PEs repaired.
    std::size_t apply_fap();

private:
    array_config config_;
    fault_grid faults_;
};

/// Cost/performance estimate of one GEMM on the array.
struct gemm_perf {
    std::uint64_t cycles = 0;         ///< total cycles (load + pipelined stream)
    std::uint64_t weight_loads = 0;   ///< weights written into PEs
    std::uint64_t useful_macs = 0;    ///< MACs on healthy PEs
    std::uint64_t lost_macs = 0;      ///< MACs skipped on bypassed/faulty PEs
    double utilization = 0.0;         ///< useful MACs / (cycles * PE count)
    double energy_nj = 0.0;
};

/// Analytic performance model for a batch-M GEMM with the given mapping.
/// Faults reduce useful work (bypassed MACs are counted in lost_macs) but do
/// not change cycle count — FAP's key property: no latency penalty.
gemm_perf estimate_gemm_perf(const array_config& config, const gemm_mapping& mapping,
                             std::size_t batch, const fault_grid* faults = nullptr);

}  // namespace reduce
