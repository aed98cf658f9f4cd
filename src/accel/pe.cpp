#include "accel/pe.h"

#include "util/error.h"

namespace reduce {

bool is_faulty(pe_fault fault) { return fault != pe_fault::healthy; }

float pe_mac(pe_fault fault, float psum_in, float weight, float activation, float w_max) {
    switch (fault) {
        case pe_fault::healthy: return psum_in + weight * activation;
        case pe_fault::bypassed: return psum_in;
        case pe_fault::stuck_weight_zero: return psum_in;
        case pe_fault::stuck_weight_max: return psum_in + w_max * activation;
        case pe_fault::stuck_weight_min: return psum_in - w_max * activation;
    }
    throw invalid_argument_error("unknown pe_fault value");
}

}  // namespace reduce
