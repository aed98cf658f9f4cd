// Weight initialization schemes (reproducible via reduce::rng).
#pragma once

#include "tensor/tensor.h"
#include "util/rng.h"

namespace reduce {

/// Fills with N(0, sqrt(2 / fan_in)) — He initialization for ReLU nets.
void he_normal(tensor& t, std::size_t fan_in, rng& gen);

/// Fills with U(lo, hi).
void uniform_init(tensor& t, float lo, float hi, rng& gen);

/// Fills with N(mean, stddev).
void normal_init(tensor& t, float mean, float stddev, rng& gen);

}  // namespace reduce
