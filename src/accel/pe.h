// Processing-element behaviour model, including permanent-fault modes.
#pragma once

#include <cstdint>

namespace reduce {

/// Permanent-fault behaviour of one PE's MAC datapath.
///
/// `bypassed` is the FAP repair state (Zhang et al. VTS'18): the PE's
/// partial-sum mux forwards the incoming value unchanged, so the weight
/// mapped there is effectively pruned. The stuck_* kinds model what happens
/// WITHOUT mitigation: the weight register is stuck, so the MAC multiplies
/// the activation by a wrong constant.
///
/// One byte per PE: a 256x256 fault_grid is 64 KiB, so copying a chip lot
/// stays cheap. Every encoder writes the values, never the memory.
enum class pe_fault : std::uint8_t {
    healthy,            ///< psum_out = psum_in + w * x
    bypassed,           ///< psum_out = psum_in              (FAP repair)
    stuck_weight_zero,  ///< psum_out = psum_in + 0 * x      (benign corruption)
    stuck_weight_max,   ///< psum_out = psum_in + (+w_max) * x
    stuck_weight_min,   ///< psum_out = psum_in + (-w_max) * x
};
static_assert(sizeof(pe_fault) == 1, "fault grids store one byte per PE");

/// True for any non-healthy state.
bool is_faulty(pe_fault fault);

/// One multiply-accumulate through a PE in the given fault state.
///
/// `w_max` is the magnitude used by the stuck-at-extreme models (callers
/// pass the per-layer weight range, mirroring a stuck sign/magnitude
/// register in a quantized datapath).
float pe_mac(pe_fault fault, float psum_in, float weight, float activation, float w_max);

}  // namespace reduce
