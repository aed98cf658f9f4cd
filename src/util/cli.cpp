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

const std::string* cli_args::find(const std::string& name) const {
    read_.insert(name);
    const auto it = options_.find(name);
    return it == options_.end() ? nullptr : &it->second;
}

bool cli_args::has(const std::string& name) const { return find(name) != nullptr; }

std::string cli_args::get(const std::string& name, const std::string& fallback) const {
    const std::string* value = find(name);
    return value == nullptr ? fallback : *value;
}

std::int64_t cli_args::get_int(const std::string& name, std::int64_t fallback) const {
    const std::string* text = find(name);
    if (text == nullptr) { return fallback; }
    char* end = nullptr;
    const long long value = std::strtoll(text->c_str(), &end, 10);
    REDUCE_CHECK(end != nullptr && *end == '\0' && !text->empty(),
                 "option --" << name << " expects an integer, got '" << *text << "'");
    return value;
}

double cli_args::get_double(const std::string& name, double fallback) const {
    const std::string* text = find(name);
    if (text == nullptr) { return fallback; }
    char* end = nullptr;
    const double value = std::strtod(text->c_str(), &end);
    REDUCE_CHECK(end != nullptr && *end == '\0' && !text->empty(),
                 "option --" << name << " expects a number, got '" << *text << "'");
    return value;
}

bool cli_args::get_flag(const std::string& name) const {
    const std::string* v = find(name);
    if (v == nullptr) { return false; }
    return v->empty() || *v == "1" || *v == "true" || *v == "yes" || *v == "on";
}

std::vector<double> cli_args::get_double_list(const std::string& name,
                                              const std::vector<double>& fallback) const {
    const std::string* text = find(name);
    if (text == nullptr) { return fallback; }
    std::vector<double> values;
    std::stringstream ss(*text);
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
    const std::string* text = find(name);
    if (text == nullptr) { return fallback; }
    std::vector<std::string> values;
    std::stringstream ss(*text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        REDUCE_CHECK(!item.empty(), "option --" << name << " has an empty element");
        values.push_back(item);
    }
    REDUCE_CHECK(!values.empty(), "option --" << name << " is an empty list");
    return values;
}

void cli_args::reject_unread_options() const {
    std::string unread;
    for (const auto& entry : options_) {
        if (read_.count(entry.first) == 0) {
            unread += (unread.empty() ? "--" : ", --") + entry.first;
        }
    }
    if (!unread.empty()) {
        throw invalid_argument_error(program_ + ": unknown option(s) " + unread);
    }
}

}  // namespace reduce
