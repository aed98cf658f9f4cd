#include "tensor/init.h"

#include <cmath>

#include "util/error.h"

namespace reduce {

void he_normal(tensor& t, std::size_t fan_in, rng& gen) {
    REDUCE_CHECK(fan_in > 0, "he_normal requires positive fan_in");
    const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
    normal_init(t, 0.0f, stddev, gen);
}

void uniform_init(tensor& t, float lo, float hi, rng& gen) {
    for (float& v : t.data()) { v = static_cast<float>(gen.uniform(lo, hi)); }
}

void normal_init(tensor& t, float mean, float stddev, rng& gen) {
    for (float& v : t.data()) { v = static_cast<float>(gen.normal(mean, stddev)); }
}

}  // namespace reduce
