#include "fault/scenario.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"
#include "util/rng.h"

namespace reduce {

namespace {

// Canonical double text (%.17g): round-trips exactly and matches the
// resilience fingerprint's number formatting, so the scenario's canonical
// string is stable across producers.
std::string exact(double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

double parse_number(const std::string& text, const std::string& what) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    // The whole token: an embedded NUL must not hide trailing bytes.
    if (text.empty() || end != text.c_str() + text.size()) {
        throw invalid_argument_error("scenario: bad " + what + " '" + text + "'");
    }
    return value;
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
    // Bare digits that fit: strtoull would skip whitespace, negate a sign
    // and saturate on overflow.
    if (text.empty() || std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
        throw invalid_argument_error("scenario: bad " + what + " '" + text + "'");
    }
    errno = 0;
    char* end = nullptr;
    const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size()) {
        throw invalid_argument_error("scenario: bad " + what + " '" + text + "'");
    }
    return value;
}

}  // namespace

std::string to_string(fault_event_kind kind) {
    switch (kind) {
        case fault_event_kind::strike: return "strike";
        case fault_event_kind::accrue: return "accrue";
        case fault_event_kind::repair: return "repair";
    }
    throw invalid_argument_error("unknown fault_event_kind");
}

fault_event_kind fault_event_kind_from_string(const std::string& name) {
    if (name == "strike") { return fault_event_kind::strike; }
    if (name == "accrue") { return fault_event_kind::accrue; }
    if (name == "repair") { return fault_event_kind::repair; }
    throw invalid_argument_error("unknown fault event kind '" + name + "'");
}

std::string to_string(recovery_mode mode) {
    switch (mode) {
        case recovery_mode::recover: return "recover";
        case recovery_mode::restart: return "restart";
    }
    throw invalid_argument_error("unknown recovery_mode");
}

recovery_mode recovery_mode_from_string(const std::string& name) {
    if (name == "recover") { return recovery_mode::recover; }
    if (name == "restart") { return recovery_mode::restart; }
    throw invalid_argument_error("unknown recovery mode '" + name + "'");
}

scenario_config parse_scenario(const std::string& spec) {
    scenario_config s;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t sep = std::min(spec.find(';', pos), spec.size());
        const std::string token = spec.substr(pos, sep - pos);
        pos = sep + 1;
        if (token.empty()) { continue; }
        const std::size_t eq = token.find('=');
        const std::size_t at = token.find('@');
        if (eq != std::string::npos && (at == std::string::npos || eq < at)) {
            const std::string key = token.substr(0, eq);
            const std::string value = token.substr(eq + 1);
            if (key == "mode") {
                s.mode = recovery_mode_from_string(value);
            } else if (key == "rollback") {
                s.rollback_budget = static_cast<std::size_t>(parse_u64(value, "rollback"));
            } else if (key == "seed") {
                s.seed = parse_u64(value, "seed");
            } else if (key == "kinds") {
                s.kind_mix = fault_kind_mix_from_string(value);
            } else {
                throw invalid_argument_error("scenario: unknown setting '" + key + "'");
            }
            continue;
        }
        if (at == std::string::npos) {
            throw invalid_argument_error("scenario: bad token '" + token + "'");
        }
        fault_event event;
        event.kind = fault_event_kind_from_string(token.substr(0, at));
        const std::string rest = token.substr(at + 1);
        const std::size_t colon = rest.find(':');
        event.epoch = parse_number(rest.substr(0, colon), "event epoch");
        if (colon != std::string::npos) {
            // The canonical form writes no magnitude for a repair.
            if (event.kind == fault_event_kind::repair) {
                throw invalid_argument_error("scenario: repair takes no magnitude");
            }
            event.magnitude = parse_number(rest.substr(colon + 1), "event magnitude");
        }
        REDUCE_CHECK(event.epoch > 0.0 && std::isfinite(event.epoch),
                     "scenario: event epoch must be positive and finite, got " << event.epoch);
        REDUCE_CHECK(event.magnitude >= 0.0 && event.magnitude <= 1.0,
                     "scenario: event magnitude must be in [0,1], got " << event.magnitude);
        s.events.push_back(event);
    }
    std::stable_sort(s.events.begin(), s.events.end(),
                     [](const fault_event& a, const fault_event& b) {
                         return a.epoch < b.epoch;
                     });
    for (std::size_t i = 1; i < s.events.size(); ++i) {
        REDUCE_CHECK(s.events[i].epoch != s.events[i - 1].epoch,
                     "scenario: duplicate event epoch " << s.events[i].epoch);
    }
    return s;
}

std::string scenario_to_string(const scenario_config& s) {
    if (s.empty()) { return ""; }
    std::string out;
    for (const fault_event& e : s.events) {
        if (!out.empty()) { out += ';'; }
        out += to_string(e.kind) + "@" + exact(e.epoch);
        if (e.kind != fault_event_kind::repair) { out.append(":").append(exact(e.magnitude)); }
    }
    out += ";mode=" + to_string(s.mode);
    out += ";rollback=" + std::to_string(s.rollback_budget);
    out += ";seed=" + std::to_string(s.seed);
    out += ";kinds=" + to_string(s.kind_mix);
    return out;
}

fault_timeline timeline_for_cell(const scenario_config& s, std::size_t rate_index,
                                 std::size_t repeat) {
    return fault_timeline{s, mix_seed(s.seed, rate_index, repeat)};
}

fault_timeline timeline_for_chip(const scenario_config& s, std::size_t chip_id) {
    return fault_timeline{s, mix_seed(s.seed, chip_id)};
}

std::size_t apply_fault_event(fault_grid& grid, const fault_timeline& timeline,
                              std::size_t index) {
    REDUCE_CHECK(index < timeline.scenario.events.size(),
                 "fault event index " << index << " out of range");
    const fault_event& event = timeline.scenario.events[index];
    if (event.kind == fault_event_kind::repair) {
        return grid.repair_all(pe_fault::bypassed);
    }
    // Strike/accrue: exact-count injection into the healthy PE set. The
    // event-local stream never touches the map's generation seed, so the
    // same event replayed (rollback, re-leased work unit) lands on the
    // same PEs.
    rng gen(mix_seed(timeline.episode_seed, index));
    const std::size_t extra = static_cast<std::size_t>(
        std::llround(event.magnitude * static_cast<double>(grid.pe_count())));
    std::vector<std::size_t> healthy;
    healthy.reserve(grid.pe_count());
    for (std::size_t r = 0; r < grid.rows(); ++r) {
        for (std::size_t c = 0; c < grid.cols(); ++c) {
            if (!is_faulty(grid.at(r, c))) { healthy.push_back(r * grid.cols() + c); }
        }
    }
    const std::size_t count = std::min(extra, healthy.size());
    if (count == 0) { return 0; }
    const std::vector<std::size_t> picks =
        gen.sample_without_replacement(healthy.size(), count);
    for (const std::size_t pick : picks) {
        const std::size_t flat = healthy[pick];
        grid.set(flat / grid.cols(), flat % grid.cols(),
                 sample_fault_kind(timeline.scenario.kind_mix, gen));
    }
    return count;
}

}  // namespace reduce
