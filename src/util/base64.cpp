#include "util/base64.h"

#include <cstdint>

#include "util/error.h"

namespace reduce {

namespace {

constexpr char k_b64_alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

int b64_value(char c) {
    if (c >= 'A' && c <= 'Z') { return c - 'A'; }
    if (c >= 'a' && c <= 'z') { return c - 'a' + 26; }
    if (c >= '0' && c <= '9') { return c - '0' + 52; }
    if (c == '+') { return 62; }
    if (c == '/') { return 63; }
    return -1;
}

}  // namespace

std::string base64_encode(const std::string& bytes) {
    std::string out;
    out.reserve((bytes.size() + 2) / 3 * 4);
    std::size_t i = 0;
    while (i + 3 <= bytes.size()) {
        const std::uint32_t v = (static_cast<unsigned char>(bytes[i]) << 16) |
                                (static_cast<unsigned char>(bytes[i + 1]) << 8) |
                                static_cast<unsigned char>(bytes[i + 2]);
        out.push_back(k_b64_alphabet[(v >> 18) & 63]);
        out.push_back(k_b64_alphabet[(v >> 12) & 63]);
        out.push_back(k_b64_alphabet[(v >> 6) & 63]);
        out.push_back(k_b64_alphabet[v & 63]);
        i += 3;
    }
    const std::size_t rest = bytes.size() - i;
    if (rest == 1) {
        const std::uint32_t v = static_cast<unsigned char>(bytes[i]) << 16;
        out.push_back(k_b64_alphabet[(v >> 18) & 63]);
        out.push_back(k_b64_alphabet[(v >> 12) & 63]);
        out += "==";
    } else if (rest == 2) {
        const std::uint32_t v = (static_cast<unsigned char>(bytes[i]) << 16) |
                                (static_cast<unsigned char>(bytes[i + 1]) << 8);
        out.push_back(k_b64_alphabet[(v >> 18) & 63]);
        out.push_back(k_b64_alphabet[(v >> 12) & 63]);
        out.push_back(k_b64_alphabet[(v >> 6) & 63]);
        out.push_back('=');
    }
    return out;
}

std::string base64_decode(const std::string& text) {
    if (text.size() % 4 != 0) {
        throw io_error("base64 length " + std::to_string(text.size()) +
                       " is not a multiple of 4");
    }
    std::string out;
    out.reserve(text.size() / 4 * 3);
    for (std::size_t i = 0; i < text.size(); i += 4) {
        int vals[4];
        int pad = 0;
        for (std::size_t j = 0; j < 4; ++j) {
            const char c = text[i + j];
            if (c == '=') {
                // Padding may only appear in the last two positions of the
                // final quartet.
                if (i + 4 != text.size() || j < 2) {
                    throw io_error("base64 padding in an illegal position");
                }
                vals[j] = 0;
                ++pad;
            } else {
                if (pad > 0) { throw io_error("base64 data after padding"); }
                vals[j] = b64_value(c);
                if (vals[j] < 0) {
                    throw io_error(std::string("illegal base64 character '") + c + "'");
                }
            }
        }
        const std::uint32_t v = (static_cast<std::uint32_t>(vals[0]) << 18) |
                                (static_cast<std::uint32_t>(vals[1]) << 12) |
                                (static_cast<std::uint32_t>(vals[2]) << 6) |
                                static_cast<std::uint32_t>(vals[3]);
        out.push_back(static_cast<char>((v >> 16) & 0xff));
        if (pad < 2) { out.push_back(static_cast<char>((v >> 8) & 0xff)); }
        if (pad < 1) { out.push_back(static_cast<char>(v & 0xff)); }
    }
    return out;
}

}  // namespace reduce
