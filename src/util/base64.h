// Standard base64 (RFC 4648, with padding) for binary payloads that travel
// inside JSON strings: RDNN snapshots on the wire and in the coordinator
// journal, and compact fault maps in chip documents.
#pragma once

#include <string>

namespace reduce {

/// Standard base64 with padding.
std::string base64_encode(const std::string& bytes);

/// Inverse of base64_encode; throws io_error on malformed input (a length
/// that is not a multiple of 4, an illegal character, or padding anywhere
/// but the last two positions of the final quartet).
std::string base64_decode(const std::string& text);

}  // namespace reduce
