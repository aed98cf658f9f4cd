#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.h"

namespace reduce {

void json_object::set(const std::string& key, json_value value) {
    auto it = members_.find(key);
    if (it == members_.end()) {
        order_.push_back(key);
        members_[key] = std::make_shared<json_value>(std::move(value));
    } else {
        // Replace, never write through: copies of an object share member
        // pointers, and an overwrite must not reach into the original.
        it->second = std::make_shared<json_value>(std::move(value));
    }
}

bool json_object::contains(const std::string& key) const { return members_.count(key) > 0; }

const json_value& json_object::at(const std::string& key) const {
    const auto it = members_.find(key);
    if (it == members_.end()) { throw io_error("json object has no key '" + key + "'"); }
    return *it->second;
}

bool operator==(const json_object& a, const json_object& b) {
    if (a.order_ != b.order_) { return false; }
    for (const std::string& key : a.order_) {
        if (a.at(key) != b.at(key)) { return false; }
    }
    return true;
}

bool operator==(const json_value& a, const json_value& b) { return a.data_ == b.data_; }

bool json_value::as_bool() const {
    if (const auto* b = std::get_if<bool>(&data_)) { return *b; }
    throw io_error("json value is not a bool");
}

double json_value::as_number() const {
    if (const auto* d = std::get_if<double>(&data_)) { return *d; }
    throw io_error("json value is not a number");
}

std::int64_t json_value::as_int() const {
    const double d = as_number();
    // 2^63 bounds llround's range; NaN fails the comparison too.
    if (!(std::abs(d) < 9223372036854775808.0 && std::abs(d - std::round(d)) < 1e-9)) {
        std::ostringstream oss;
        oss << "json number " << d << " is not an integer";
        throw io_error(oss.str());
    }
    return static_cast<std::int64_t>(std::llround(d));
}

const std::string& json_value::as_string() const {
    if (const auto* s = std::get_if<std::string>(&data_)) { return *s; }
    throw io_error("json value is not a string");
}

const json_array& json_value::as_array() const {
    if (const auto* a = std::get_if<json_array>(&data_)) { return *a; }
    throw io_error("json value is not an array");
}

const json_object& json_value::as_object() const {
    if (const auto* o = std::get_if<json_object>(&data_)) { return *o; }
    throw io_error("json value is not an object");
}

namespace {

void append_escaped(std::string& out, const std::string& text) {
    out += '"';
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void append_number(std::string& out, double value) {
    if (value == std::floor(value) && std::abs(value) < 1e15) {
        out += std::to_string(static_cast<long long>(value));
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += buf;
}

void append_indent(std::string& out, int indent, int depth) {
    if (indent < 0) { return; }
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void json_value::dump_to(std::string& out, int indent, int depth) const {
    if (is_null()) {
        out += "null";
    } else if (is_bool()) {
        out += as_bool() ? "true" : "false";
    } else if (is_number()) {
        append_number(out, as_number());
    } else if (is_string()) {
        append_escaped(out, as_string());
    } else if (is_array()) {
        const auto& arr = as_array();
        if (arr.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i > 0) { out += indent < 0 ? "," : ","; }
            append_indent(out, indent, depth + 1);
            arr[i].dump_to(out, indent, depth + 1);
        }
        append_indent(out, indent, depth);
        out += ']';
    } else {
        const auto& obj = as_object();
        if (obj.size() == 0) {
            out += "{}";
            return;
        }
        out += '{';
        bool first = true;
        for (const auto& key : obj.keys()) {
            if (!first) { out += ','; }
            first = false;
            append_indent(out, indent, depth + 1);
            append_escaped(out, key);
            out += indent < 0 ? ":" : ": ";
            obj.at(key).dump_to(out, indent, depth + 1);
        }
        append_indent(out, indent, depth);
        out += '}';
    }
}

std::string json_value::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

namespace {

class parser {
public:
    explicit parser(const std::string& text) : text_(text) {}

    json_value parse_document() {
        json_value value = parse_value(0);
        skip_whitespace();
        if (pos_ != text_.size()) { fail("trailing characters after document"); }
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& why) const {
        std::ostringstream oss;
        oss << "json parse error at offset " << pos_ << ": " << why;
        throw io_error(oss.str());
    }

    void skip_whitespace() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) { fail("unexpected end of input"); }
        return text_[pos_];
    }

    char take() {
        const char c = peek();
        ++pos_;
        return c;
    }

    void expect(char c) {
        if (take() != c) { fail(std::string("expected '") + c + "'"); }
    }

    void expect_literal(const std::string& literal) {
        for (const char c : literal) { expect(c); }
    }

    json_value parse_value(std::size_t depth) {
        skip_whitespace();
        const char c = peek();
        switch (c) {
            case '{': return parse_object(depth + 1);
            case '[': return parse_array(depth + 1);
            case '"': return json_value(parse_string());
            case 't': expect_literal("true"); return json_value(true);
            case 'f': expect_literal("false"); return json_value(false);
            case 'n': expect_literal("null"); return json_value(nullptr);
            default: return parse_number();
        }
    }

    /// `depth` is the nesting level of the array/object being opened (1 at
    /// the top of the document).
    void check_depth(std::size_t depth) const {
        if (depth > json_max_depth) {
            fail("nesting deeper than " + std::to_string(json_max_depth) + " levels");
        }
    }

    json_value parse_object(std::size_t depth) {
        check_depth(depth);
        expect('{');
        json_object obj;
        skip_whitespace();
        if (peek() == '}') {
            take();
            return json_value(std::move(obj));
        }
        while (true) {
            skip_whitespace();
            const std::string key = parse_string();
            skip_whitespace();
            expect(':');
            obj.set(key, parse_value(depth));
            skip_whitespace();
            const char next = take();
            if (next == '}') { break; }
            if (next != ',') { fail("expected ',' or '}' in object"); }
        }
        return json_value(std::move(obj));
    }

    json_value parse_array(std::size_t depth) {
        check_depth(depth);
        expect('[');
        json_array arr;
        skip_whitespace();
        if (peek() == ']') {
            take();
            return json_value(std::move(arr));
        }
        while (true) {
            arr.push_back(parse_value(depth));
            skip_whitespace();
            const char next = take();
            if (next == ']') { break; }
            if (next != ',') { fail("expected ',' or ']' in array"); }
        }
        return json_value(std::move(arr));
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            const char c = take();
            if (c == '"') { break; }
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = take();
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = take();
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code += static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code += static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code += static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            fail("bad \\u escape");
                        }
                    }
                    if (code > 0x7f) { fail("non-ASCII \\u escapes are not supported"); }
                    out += static_cast<char>(code);
                    break;
                }
                default: fail("unknown escape sequence");
            }
        }
        return out;
    }

    json_value parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') { take(); }
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' ||
                c == '-') {
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start) { fail("expected a value"); }
        const std::string token = text_.substr(start, pos_ - start);
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') { fail("malformed number '" + token + "'"); }
        return json_value(value);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace

json_value json_parse(const std::string& text) { return parser(text).parse_document(); }

json_value json_load_file(const std::string& path) {
    std::ifstream file(path);
    if (!file) { throw io_error("cannot open json file: " + path); }
    std::ostringstream oss;
    oss << file.rdbuf();
    return json_parse(oss.str());
}

void json_save_file(const std::string& path, const json_value& value) {
    std::ofstream file(path);
    if (!file) { throw io_error("cannot open json file for writing: " + path); }
    file << value.dump(2) << '\n';
    if (!file) { throw io_error("failed while writing json file: " + path); }
}

}  // namespace reduce
