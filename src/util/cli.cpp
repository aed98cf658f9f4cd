#include "util/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/error.h"

namespace reduce {

namespace {

// One number of option --name; `what` says what was expected in the message.
// Rejects trailing garbage and non-finite values.
double parse_finite(const std::string& name, const std::string& text, const char* what) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0') {
        throw invalid_argument_error("option --" + name + " expects " + what + ", got '" +
                                     text + "'");
    }
    if (!std::isfinite(value)) {
        throw invalid_argument_error("option --" + name + " must be finite, got '" + text +
                                     "'");
    }
    return value;
}

}  // namespace

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
        if (body.empty()) { throw invalid_argument_error("bare '--' is not a valid option"); }
        const auto eq = body.find('=');
        if (eq != std::string::npos) {
            options_[body.substr(0, eq)] = body.substr(eq + 1);
            bare_.erase(body.substr(0, eq));
            continue;
        }
        // `--key value` if the next token is not itself an option.
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            options_[body] = argv[i + 1];
            bare_.erase(body);
            ++i;
        } else {
            options_[body] = "";
            bare_.insert(body);
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
    return value == nullptr || bare_.count(name) != 0 ? fallback : *value;
}

std::int64_t cli_args::get_int(const std::string& name, std::int64_t fallback) const {
    const std::string* text = find(name);
    if (text == nullptr) { return fallback; }
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text->c_str(), &end, 10);
    if (text->empty() || *end != '\0') {
        throw invalid_argument_error("option --" + name + " expects an integer, got '" +
                                     *text + "'");
    }
    if (errno == ERANGE) {
        throw invalid_argument_error("option --" + name + " is out of range, got '" + *text +
                                     "'");
    }
    return value;
}

double cli_args::get_double(const std::string& name, double fallback) const {
    const std::string* text = find(name);
    if (text == nullptr) { return fallback; }
    return parse_finite(name, *text, "a number");
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
        values.push_back(parse_finite(name, item, "numeric elements"));
    }
    if (values.empty()) {
        throw invalid_argument_error("option --" + name + " is an empty list");
    }
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
        if (item.empty()) {
            throw invalid_argument_error("option --" + name + " has an empty element");
        }
        values.push_back(item);
    }
    if (values.empty()) {
        throw invalid_argument_error("option --" + name + " is an empty list");
    }
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
