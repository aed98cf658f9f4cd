// Tiny command-line parser for bench and example binaries.
//
// Supports `--flag`, `--key value` and `--key=value` forms. Every harness in
// bench/ and examples/ uses this so the option style is uniform.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace reduce {

/// Parsed command line with typed accessors and defaults.
class cli_args {
public:
    /// Parses argv; throws invalid_argument_error on malformed options.
    cli_args(int argc, const char* const* argv);

    /// True when `--name` was present (as a bare flag or with a value).
    bool has(const std::string& name) const;

    /// String option with default. A bare `--name` (no value) also yields
    /// the default; `--name=` yields "".
    std::string get(const std::string& name, const std::string& fallback) const;

    /// Integer option with default; throws invalid_argument_error on a
    /// non-numeric value or one outside the std::int64_t range.
    std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

    /// Floating-point option with default; throws invalid_argument_error on
    /// a non-numeric or non-finite value (`nan`, `inf`, `1e999`).
    double get_double(const std::string& name, double fallback) const;

    /// Boolean flag: present without value → true; "true"/"1"/"yes" → true.
    bool get_flag(const std::string& name) const;

    /// Positional arguments (tokens not starting with "--").
    const std::vector<std::string>& positional() const { return positional_; }

    /// Program name (argv[0]).
    const std::string& program() const { return program_; }

    /// Comma-separated list of doubles, e.g. `--rates 0.0,0.1,0.2`; every
    /// element must be a finite number.
    std::vector<double> get_double_list(const std::string& name,
                                        const std::vector<double>& fallback) const;

    /// Comma-separated list of strings, e.g. `--policy reduce,fixed`.
    /// Empty elements are rejected; an absent option yields the fallback.
    std::vector<std::string> get_string_list(
        const std::string& name, const std::vector<std::string>& fallback) const;

    /// Throws invalid_argument_error naming every option on the command
    /// line that no accessor above has looked up. Harnesses call it once
    /// their options are read and before any work starts, so a misspelt
    /// or removed option fails instead of being silently ignored.
    void reject_unread_options() const;

private:
    /// The option's value, or nullptr when absent; records `name` as read.
    const std::string* find(const std::string& name) const;

    std::string program_;
    std::map<std::string, std::string> options_;
    std::set<std::string> bare_;  // options given without a value
    std::vector<std::string> positional_;
    mutable std::set<std::string> read_;
};

}  // namespace reduce
