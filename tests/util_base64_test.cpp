// Tests for util/base64: round-trips over every length residue and byte
// value, the RFC 4648 vectors, and typed rejection of malformed text.
#include <gtest/gtest.h>

#include <string>

#include "util/base64.h"
#include "util/error.h"

namespace reduce {
namespace {

TEST(Base64, RoundTripsEveryResidueAndAllByteValues) {
    std::string all_bytes;
    for (int i = 0; i < 256; ++i) { all_bytes.push_back(static_cast<char>(i)); }
    // Cover every length % 3 residue, including empty.
    for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 255u, 256u}) {
        const std::string bytes = all_bytes.substr(0, n);
        const std::string encoded = base64_encode(bytes);
        EXPECT_EQ(encoded.size() % 4, 0u);
        EXPECT_EQ(base64_decode(encoded), bytes) << "length " << n;
    }
}

TEST(Base64, KnownVectors) {
    EXPECT_EQ(base64_encode(""), "");
    EXPECT_EQ(base64_encode("f"), "Zg==");
    EXPECT_EQ(base64_encode("fo"), "Zm8=");
    EXPECT_EQ(base64_encode("foo"), "Zm9v");
    EXPECT_EQ(base64_encode("foobar"), "Zm9vYmFy");
}

TEST(Base64, RejectsMalformedInput) {
    EXPECT_THROW((void)base64_decode("Zg="), io_error);       // length % 4 != 0
    EXPECT_THROW((void)base64_decode("Zm9!"), io_error);      // illegal character
    EXPECT_THROW((void)base64_decode("=m9v"), io_error);      // padding up front
    EXPECT_THROW((void)base64_decode("Zg==Zm8="), io_error);  // data after padding
}

}  // namespace
}  // namespace reduce
