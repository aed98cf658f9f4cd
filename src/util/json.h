// Minimal JSON document model with parser and serializer.
//
// Used to persist human-inspectable artifacts: chip fleets, resilience
// tables, and experiment reports. Supports the full JSON value grammar
// except for \uXXXX escapes beyond the ASCII range (sufficient for this
// project's machine-generated documents).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace reduce {

class json_value;

/// Ordered object representation: preserves insertion order so serialized
/// documents are stable and diff-friendly.
class json_object {
public:
    /// Inserts or overwrites a key.
    void set(const std::string& key, json_value value);

    /// True when the key exists.
    bool contains(const std::string& key) const;

    /// Access by key; throws io_error when missing.
    const json_value& at(const std::string& key) const;

    /// Keys in insertion order.
    const std::vector<std::string>& keys() const { return order_; }

    /// Number of members.
    std::size_t size() const { return order_.size(); }

    /// Deep equality, sensitive to insertion order (two objects with the
    /// same members in different order are *not* equal — matches the
    /// serializer, so a == b iff a.dump() == b.dump() for finite numbers).
    friend bool operator==(const json_object& a, const json_object& b);
    friend bool operator!=(const json_object& a, const json_object& b) { return !(a == b); }

private:
    std::vector<std::string> order_;
    std::map<std::string, std::shared_ptr<json_value>> members_;
};

using json_array = std::vector<json_value>;

/// A JSON value: null, bool, number (double), string, array, or object.
class json_value {
public:
    json_value() : data_(nullptr) {}
    json_value(std::nullptr_t) : data_(nullptr) {}
    json_value(bool b) : data_(b) {}
    json_value(double d) : data_(d) {}
    json_value(int i) : data_(static_cast<double>(i)) {}
    json_value(std::int64_t i) : data_(static_cast<double>(i)) {}
    json_value(std::size_t i) : data_(static_cast<double>(i)) {}
    json_value(const char* s) : data_(std::string(s)) {}
    json_value(std::string s) : data_(std::move(s)) {}
    json_value(json_array a) : data_(std::move(a)) {}
    json_value(json_object o) : data_(std::move(o)) {}

    bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
    bool is_bool() const { return std::holds_alternative<bool>(data_); }
    bool is_number() const { return std::holds_alternative<double>(data_); }
    bool is_string() const { return std::holds_alternative<std::string>(data_); }
    bool is_array() const { return std::holds_alternative<json_array>(data_); }
    bool is_object() const { return std::holds_alternative<json_object>(data_); }

    /// Typed accessors; each throws io_error when the value has another type
    /// (as_int also when the number is not an integer in int64 range).
    bool as_bool() const;
    double as_number() const;
    std::int64_t as_int() const;
    const std::string& as_string() const;
    const json_array& as_array() const;
    const json_object& as_object() const;

    /// Serializes; indent < 0 → compact single line, otherwise pretty-printed
    /// with the given indent width.
    std::string dump(int indent = -1) const;

    /// Deep structural equality (numbers by ==, objects insertion-order
    /// sensitive). Used to compare persisted artifacts such as merged partial
    /// tables against single-shot sweeps.
    friend bool operator==(const json_value& a, const json_value& b);
    friend bool operator!=(const json_value& a, const json_value& b) { return !(a == b); }

private:
    void dump_to(std::string& out, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, double, std::string, json_array, json_object> data_;
};

/// Deepest array/object nesting json_parse accepts. The parser recurses
/// once per level, so without a bound a wire frame of nothing but '['
/// would exhaust the stack; no document this project writes nests more
/// than a few levels.
inline constexpr std::size_t json_max_depth = 256;

/// Parses a JSON document; throws io_error with position info on malformed
/// input, including nesting deeper than json_max_depth.
json_value json_parse(const std::string& text);

/// Reads and parses a JSON file; throws io_error on I/O or parse failure.
json_value json_load_file(const std::string& path);

/// Serializes to a file (pretty-printed); throws io_error on I/O failure.
void json_save_file(const std::string& path, const json_value& value);

}  // namespace reduce
