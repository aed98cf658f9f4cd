// Seeded input mutations shared by the decoder fuzz tests. Every draw comes
// from the caller's rng (the chaos schedule's stream), so a failing trial
// replays from its seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace reduce::fuzz {

/// Mutates `bytes` one of five ways: flip 1-4 bytes, truncate anywhere,
/// splice a prefix onto a suffix of one of `seeds`, `oversize` (the
/// decoder-specific mutation: huge extents, extreme numbers), or insert 1-8
/// random bytes.
inline void mutate(rng& random, std::string& bytes, const std::vector<std::string>& seeds,
                   const std::function<void(std::string&)>& oversize) {
    switch (random.uniform_index(5)) {
        case 0: {
            const std::uint64_t flips = 1 + random.uniform_index(4);
            for (std::uint64_t f = 0; f < flips; ++f) {
                bytes[random.uniform_index(bytes.size())] ^=
                    static_cast<char>(1 + random.uniform_index(255));
            }
            break;
        }
        case 1:
            bytes.resize(random.uniform_index(bytes.size()));
            break;
        case 2: {
            const std::string& other = seeds[random.uniform_index(seeds.size())];
            bytes = bytes.substr(0, random.uniform_index(bytes.size() + 1)) +
                    other.substr(random.uniform_index(other.size() + 1));
            break;
        }
        case 3:
            oversize(bytes);
            break;
        default: {
            const std::size_t at = random.uniform_index(bytes.size() + 1);
            std::string noise;
            for (std::uint64_t n = 1 + random.uniform_index(8); n > 0; --n) {
                noise.push_back(static_cast<char>(random.uniform_index(256)));
            }
            bytes.insert(at, noise);
            break;
        }
    }
}

}  // namespace reduce::fuzz
