#include "util/cli.h"

#include <cstdlib>
#include <sstream>

#include "util/error.h"

namespace reduce {

cli_args::cli_args(int argc, const char* const* argv) {
    REDUCE_CHECK(argc >= 1, "argc must be at least 1");
    program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        if (token.rfind("--", 0) != 0) {
            positional_.push_back(token);
            continue;
        }
        const std::string body = token.substr(2);
        REDUCE_CHECK(!body.empty(), "bare '--' is not a valid option");
        const auto eq = body.find('=');
        if (eq != std::string::npos) {
            options_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // `--key value` if the next token is not itself an option.
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            options_[body] = argv[i + 1];
            ++i;
        } else {
            options_[body] = "";
        }
    }
}

bool cli_args::has(const std::string& name) const { return options_.count(name) > 0; }

std::string cli_args::get(const std::string& name, const std::string& fallback) const {
    const auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
}

std::int64_t cli_args::get_int(const std::string& name, std::int64_t fallback) const {
    const auto it = options_.find(name);
    if (it == options_.end()) { return fallback; }
    char* end = nullptr;
    const long long value = std::strtoll(it->second.c_str(), &end, 10);
    REDUCE_CHECK(end != nullptr && *end == '\0' && !it->second.empty(),
                 "option --" << name << " expects an integer, got '" << it->second << "'");
    return value;
}

double cli_args::get_double(const std::string& name, double fallback) const {
    const auto it = options_.find(name);
    if (it == options_.end()) { return fallback; }
    char* end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    REDUCE_CHECK(end != nullptr && *end == '\0' && !it->second.empty(),
                 "option --" << name << " expects a number, got '" << it->second << "'");
    return value;
}

bool cli_args::get_flag(const std::string& name) const {
    const auto it = options_.find(name);
    if (it == options_.end()) { return false; }
    const std::string& v = it->second;
    return v.empty() || v == "1" || v == "true" || v == "yes" || v == "on";
}

std::vector<double> cli_args::get_double_list(const std::string& name,
                                              const std::vector<double>& fallback) const {
    const auto it = options_.find(name);
    if (it == options_.end()) { return fallback; }
    std::vector<double> values;
    std::stringstream ss(it->second);
    std::string item;
    while (std::getline(ss, item, ',')) {
        char* end = nullptr;
        const double value = std::strtod(item.c_str(), &end);
        REDUCE_CHECK(end != nullptr && *end == '\0' && !item.empty(),
                     "option --" << name << " has a non-numeric element '" << item << "'");
        values.push_back(value);
    }
    REDUCE_CHECK(!values.empty(), "option --" << name << " is an empty list");
    return values;
}

std::vector<std::string> cli_args::get_string_list(
    const std::string& name, const std::vector<std::string>& fallback) const {
    const auto it = options_.find(name);
    if (it == options_.end()) { return fallback; }
    std::vector<std::string> values;
    std::stringstream ss(it->second);
    std::string item;
    while (std::getline(ss, item, ',')) {
        REDUCE_CHECK(!item.empty(), "option --" << name << " has an empty element");
        values.push_back(item);
    }
    REDUCE_CHECK(!values.empty(), "option --" << name << " is an empty list");
    return values;
}

}  // namespace reduce
