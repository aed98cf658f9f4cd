#include "core/resilience.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <utility>

#include "nn/module.h"
#include "tensor/workspace.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace reduce {

resilience_table::resilience_table(std::vector<resilience_run> runs, double max_epochs,
                                   std::string fingerprint, std::size_t grid_cells)
    : runs_(std::move(runs)),
      max_epochs_(max_epochs),
      fingerprint_(std::move(fingerprint)),
      grid_cells_(grid_cells) {
    REDUCE_CHECK(!runs_.empty(), "resilience table needs at least one run");
    REDUCE_CHECK(max_epochs_ > 0.0, "max_epochs must be positive");
    for (const resilience_run& run : runs_) {
        REDUCE_CHECK(!run.trajectory.empty() && run.trajectory.front().epochs == 0.0,
                     "every run needs a trajectory starting at epoch 0");
    }
    // Canonical order: ascending (fault_rate, repeat). Tables built from any
    // cell partition, merge order, or thread count serialize byte-identically.
    std::stable_sort(runs_.begin(), runs_.end(),
                     [](const resilience_run& a, const resilience_run& b) {
                         if (a.fault_rate != b.fault_rate) { return a.fault_rate < b.fault_rate; }
                         return a.repeat < b.repeat;
                     });
    for (const resilience_run& run : runs_) { rates_.push_back(run.fault_rate); }
    rates_.erase(std::unique(rates_.begin(), rates_.end(),
                             [](double a, double b) { return std::abs(a - b) < 1e-12; }),
                 rates_.end());
}

resilience_table::resilience_table(const resilience_table& other)
    : runs_(other.runs_),
      rates_(other.rates_),
      max_epochs_(other.max_epochs_),
      fingerprint_(other.fingerprint_),
      grid_cells_(other.grid_cells_),
      clamp_warned_(false) {}

resilience_table& resilience_table::operator=(const resilience_table& other) {
    if (this != &other) {
        runs_ = other.runs_;
        rates_ = other.rates_;
        max_epochs_ = other.max_epochs_;
        fingerprint_ = other.fingerprint_;
        grid_cells_ = other.grid_cells_;
        clamp_warned_.store(false);
    }
    return *this;
}

resilience_table::resilience_table(resilience_table&& other) noexcept
    : runs_(std::move(other.runs_)),
      rates_(std::move(other.rates_)),
      max_epochs_(other.max_epochs_),
      fingerprint_(std::move(other.fingerprint_)),
      grid_cells_(other.grid_cells_),
      clamp_warned_(false) {}

resilience_table& resilience_table::operator=(resilience_table&& other) noexcept {
    if (this != &other) {
        runs_ = std::move(other.runs_);
        rates_ = std::move(other.rates_);
        max_epochs_ = other.max_epochs_;
        fingerprint_ = std::move(other.fingerprint_);
        grid_cells_ = other.grid_cells_;
        clamp_warned_.store(false);
    }
    return *this;
}

namespace {

bool same_rate(double a, double b) { return std::abs(a - b) < 1e-9; }

}  // namespace

std::size_t resilience_table::repeats_at(double fault_rate) const {
    std::size_t count = 0;
    for (const resilience_run& run : runs_) {
        if (same_rate(run.fault_rate, fault_rate)) { ++count; }
    }
    return count;
}

double resilience_table::accuracy_at(double fault_rate, double epochs, statistic stat) const {
    std::vector<double> accs;
    for (const resilience_run& run : runs_) {
        if (same_rate(run.fault_rate, fault_rate)) {
            accs.push_back(accuracy_at_epochs(run.trajectory, epochs));
        }
    }
    REDUCE_CHECK(!accs.empty(), "fault rate " << fault_rate << " not in resilience grid");
    return select_statistic(summarize(accs), stat);
}

summary_stats resilience_table::target_sample::stats() const {
    REDUCE_CHECK(!epochs.empty(), "target_sample is empty");
    return summarize(epochs);
}

resilience_table::target_sample resilience_table::epochs_to_target_at(
    double fault_rate, double target_accuracy) const {
    target_sample sample;
    bool found_rate = false;
    for (const resilience_run& run : runs_) {
        if (!same_rate(run.fault_rate, fault_rate)) { continue; }
        found_rate = true;
        const std::optional<double> needed = epochs_to_reach(run.trajectory, target_accuracy);
        if (needed.has_value()) {
            sample.epochs.push_back(*needed);
        } else {
            sample.epochs.push_back(max_epochs_);
            ++sample.censored;
        }
    }
    REDUCE_CHECK(found_rate, "fault rate " << fault_rate << " not in resilience grid");
    return sample;
}

std::optional<double> resilience_table::epochs_for(double fault_rate, double target_accuracy,
                                                   statistic stat, interpolation mode) const {
    REDUCE_CHECK(fault_rate >= 0.0, "fault rate must be non-negative");
    // Clamp outside the grid; interpolate between bracketing grid points.
    const double lo_rate = rates_.front();
    const double hi_rate = rates_.back();
    if ((fault_rate < lo_rate - 1e-12 || fault_rate > hi_rate + 1e-12) &&
        !clamp_warned_.exchange(true)) {
        LOG_WARN << "resilience_table::epochs_for: fault rate " << fault_rate
                 << " outside the characterized grid [" << lo_rate << ", " << hi_rate
                 << "]; clamping to the nearest grid end (extrapolated answer; "
                    "warning once per table)";
    }
    const double r = std::clamp(fault_rate, lo_rate, hi_rate);

    const auto value_at = [&](double grid_rate) -> std::optional<double> {
        const target_sample sample = epochs_to_target_at(grid_rate, target_accuracy);
        if (sample.censored == sample.epochs.size()) { return std::nullopt; }
        return select_statistic(sample.stats(), stat);
    };

    // Find bracketing grid rates.
    std::size_t hi = 0;
    while (hi < rates_.size() && rates_[hi] < r - 1e-12) { ++hi; }
    if (hi == 0 || same_rate(rates_[std::min(hi, rates_.size() - 1)], r)) {
        return value_at(rates_[std::min(hi, rates_.size() - 1)]);
    }
    const double r0 = rates_[hi - 1];
    const double r1 = rates_[hi];
    const std::optional<double> v0 = value_at(r0);
    const std::optional<double> v1 = value_at(r1);
    if (!v1.has_value()) { return std::nullopt; }          // upper end unreachable
    if (!v0.has_value() || mode == interpolation::upper) { return v1; }
    const double t = (r - r0) / (r1 - r0);
    return *v0 + t * (*v1 - *v0);
}

void resilience_table::check_no_overlapping_cells(const std::vector<resilience_run>& runs) {
    std::vector<std::pair<double, std::size_t>> cells;
    cells.reserve(runs.size());
    for (const resilience_run& run : runs) { cells.emplace_back(run.fault_rate, run.repeat); }
    std::sort(cells.begin(), cells.end());
    const auto duplicate = std::adjacent_find(
        cells.begin(), cells.end(), [](const auto& a, const auto& b) {
            return same_rate(a.first, b.first) && a.second == b.second;
        });
    if (duplicate != cells.end()) {
        std::ostringstream oss;
        oss << "resilience tables overlap: cell (rate=" << duplicate->first
            << ", repeat=" << duplicate->second << ") appears more than once";
        throw io_error(oss.str());
    }
}

void resilience_table::merge_into(resilience_table& into, const resilience_table& part) {
    if (into.fingerprint_.empty()) {
        LOG_WARN << "resilience_table::merge_into: accumulator carries no config "
                    "fingerprint (hand-built or pre-fingerprint artifact); cannot verify "
                    "the part comes from the same sweep";
    }
    REDUCE_CHECK(part.max_epochs_ == into.max_epochs_,
                 "resilience tables disagree on max_epochs: " << part.max_epochs_ << " vs "
                                                              << into.max_epochs_);
    REDUCE_CHECK(part.fingerprint_ == into.fingerprint_,
                 "resilience tables come from different sweep configs (fingerprint '"
                     << part.fingerprint_ << "' vs '" << into.fingerprint_ << "')");
    REDUCE_CHECK(part.grid_cells_ == into.grid_cells_,
                 "resilience tables disagree on the sweep grid size: "
                     << part.grid_cells_ << " vs " << into.grid_cells_ << " cells");
    std::vector<resilience_run> runs = into.runs_;
    runs.insert(runs.end(), part.runs_.begin(), part.runs_.end());
    check_no_overlapping_cells(runs);
    // The constructor re-sorts into canonical (rate, repeat) order, so the
    // accumulator's serialization never depends on arrival order.
    into = resilience_table(std::move(runs), into.max_epochs_, into.fingerprint_,
                            into.grid_cells_);
}

json_value resilience_table::to_json() const {
    json_object root;
    root.set("schema_version", json_value(resilience_schema_version));
    root.set("max_epochs", json_value(max_epochs_));
    if (!fingerprint_.empty()) { root.set("fingerprint", json_value(fingerprint_)); }
    if (grid_cells_ != 0) { root.set("grid_cells", json_value(grid_cells_)); }
    json_array runs;
    for (const resilience_run& run : runs_) {
        json_object entry;
        entry.set("fault_rate", json_value(run.fault_rate));
        entry.set("repeat", json_value(run.repeat));
        // Decimal string: 64-bit seeds are not exactly representable as
        // JSON numbers (doubles), and seeds must survive round-trips.
        entry.set("map_seed", json_value(std::to_string(run.map_seed)));
        entry.set("masked_weight_fraction", json_value(run.masked_weight_fraction));
        json_array traj;
        for (const training_point& p : run.trajectory) {
            json_object point;
            point.set("epochs", json_value(p.epochs));
            point.set("accuracy", json_value(p.test_accuracy));
            traj.push_back(json_value(std::move(point)));
        }
        entry.set("trajectory", json_value(std::move(traj)));
        runs.push_back(json_value(std::move(entry)));
    }
    root.set("runs", json_value(std::move(runs)));
    return json_value(std::move(root));
}

namespace {

[[noreturn]] void reject_table(const std::string& why) {
    throw io_error("malformed resilience table JSON: " + why);
}

/// A finite number within [lo, hi] (NaN and ±inf fail the comparison too).
double number_in(const json_object& obj, const std::string& key, double lo, double hi) {
    const double value = obj.at(key).as_number();
    if (!(std::isfinite(value) && value >= lo && value <= hi)) {
        std::ostringstream oss;
        oss << key << " " << value << " outside [" << lo << ", " << hi << "]";
        reject_table(oss.str());
    }
    return value;
}

std::size_t count_at(const json_object& obj, const std::string& key) {
    const std::int64_t value = obj.at(key).as_int();
    if (value < 0) { reject_table(key + " " + std::to_string(value) + " is negative"); }
    return static_cast<std::size_t>(value);
}

}  // namespace

resilience_table resilience_table::from_json(const json_value& value) {
    constexpr double unbounded = std::numeric_limits<double>::max();
    const json_object& root = value.as_object();
    if (root.contains("schema_version")) {
        const std::int64_t version = root.at("schema_version").as_int();
        if (version != resilience_schema_version) {
            reject_table("schema version " + std::to_string(version) +
                         " but this build expects " +
                         std::to_string(resilience_schema_version) +
                         " — regenerate the artifact (or run --cache-gc)");
        }
    }
    // Tables without the field predate versioning (schema 1); their
    // fingerprints can never match a current config, so the cache already
    // treats them as misses — loading them directly stays permitted for
    // offline inspection of old artifacts.
    const double max_epochs = number_in(root, "max_epochs", 0.0, unbounded);
    if (max_epochs == 0.0) { reject_table("max_epochs must be positive"); }
    std::vector<resilience_run> runs;
    for (const json_value& entry : root.at("runs").as_array()) {
        const json_object& obj = entry.as_object();
        resilience_run run;
        run.fault_rate = number_in(obj, "fault_rate", 0.0, 1.0);
        run.repeat = count_at(obj, "repeat");
        const json_value& seed = obj.at("map_seed");
        if (seed.is_string()) {
            const std::string& text = seed.as_string();
            // Digits only: strtoull would silently wrap "-1" to 2^64-1.
            if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
                reject_table("map_seed '" + text + "' is not a decimal string");
            }
            errno = 0;
            run.map_seed = std::strtoull(text.c_str(), nullptr, 10);
            if (errno == ERANGE) { reject_table("map_seed '" + text + "' overflows 64 bits"); }
        } else {
            run.map_seed = count_at(obj, "map_seed");
        }
        run.masked_weight_fraction = number_in(obj, "masked_weight_fraction", 0.0, 1.0);
        for (const json_value& p : obj.at("trajectory").as_array()) {
            const json_object& point = p.as_object();
            const double epochs = number_in(point, "epochs", 0.0, unbounded);
            if (!run.trajectory.empty() && epochs < run.trajectory.back().epochs) {
                reject_table("trajectory goes back from epoch " +
                             std::to_string(run.trajectory.back().epochs) + " to " +
                             std::to_string(epochs));
            }
            run.trajectory.push_back({epochs, number_in(point, "accuracy", 0.0, 1.0)});
        }
        if (run.trajectory.empty() || run.trajectory.front().epochs != 0.0) {
            reject_table("every run needs a trajectory starting at epoch 0");
        }
        runs.push_back(std::move(run));
    }
    if (runs.empty()) { reject_table("a table needs at least one run"); }
    check_no_overlapping_cells(runs);
    const std::string fingerprint =
        root.contains("fingerprint") ? root.at("fingerprint").as_string() : "";
    const std::size_t grid_cells = root.contains("grid_cells") ? count_at(root, "grid_cells") : 0;
    if (grid_cells != 0 && runs.size() > grid_cells) {
        reject_table(std::to_string(runs.size()) + " runs exceed the grid of " +
                     std::to_string(grid_cells) + " cells");
    }
    return resilience_table(std::move(runs), max_epochs, fingerprint, grid_cells);
}

namespace {

std::vector<double> resolved_eval_grid(const resilience_config& cfg) {
    return cfg.eval_grid.empty() ? make_eval_grid(cfg.max_epochs, 1.0, 0.05, 0.5)
                                 : cfg.eval_grid;
}

void append_exact(std::string& out, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += buf;
    out += ',';
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t hash) {
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

}  // namespace

std::string resilience_fingerprint(const resilience_config& cfg) {
    // The schema version is hashed in, so a version bump retires every
    // cached artifact produced by older code in one stroke.
    std::string canon =
        "reduce-step1-v" + std::to_string(resilience_schema_version) + "|ctx=" + cfg.context +
        "|rates=";
    for (const double rate : cfg.fault_rates) { append_exact(canon, rate); }
    canon += "|repeats=" + std::to_string(cfg.repeats);
    canon += "|budget=";
    append_exact(canon, cfg.max_epochs);
    canon += "|grid=";
    for (const double point : resolved_eval_grid(cfg)) { append_exact(canon, point); }
    canon += "|fault=" + std::to_string(static_cast<int>(cfg.fault_model.count_mode)) + "," +
             std::to_string(static_cast<int>(cfg.fault_model.kind_mix));
    canon += "|seed=" + std::to_string(cfg.seed);
    // Appended ONLY when a timeline is active: scenario-free configs keep
    // their historical fingerprints, so existing caches, journals, and
    // coordinator/worker handshakes stay valid bit for bit.
    if (!cfg.scenario.empty()) { canon += "|scenario=" + scenario_to_string(cfg.scenario); }

    const std::uint64_t h1 = fnv1a(canon, 14695981039346656037ULL);
    const std::uint64_t h2 = mix_seed(h1, canon.size());
    char buf[40];
    std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(h1),
                  static_cast<unsigned long long>(h2));
    return buf;
}

std::vector<sweep_cell> enumerate_sweep_cells(const resilience_config& cfg) {
    REDUCE_CHECK(!cfg.fault_rates.empty(), "resilience sweep needs fault rates");
    REDUCE_CHECK(cfg.repeats > 0, "resilience sweep needs repeats >= 1");
    REDUCE_CHECK(cfg.max_epochs > 0.0, "resilience sweep needs a positive epoch budget");
    for (std::size_t i = 0; i < cfg.fault_rates.size(); ++i) {
        const double rate = cfg.fault_rates[i];
        REDUCE_CHECK(rate >= 0.0 && rate <= 1.0, "fault rate out of range: " << rate);
        for (std::size_t j = i + 1; j < cfg.fault_rates.size(); ++j) {
            REDUCE_CHECK(!same_rate(rate, cfg.fault_rates[j]),
                         "duplicate fault rate " << rate
                                                 << " in the sweep grid — cells would collide");
        }
    }
    std::vector<sweep_cell> cells;
    cells.reserve(cfg.fault_rates.size() * cfg.repeats);
    for (std::size_t rate_index = 0; rate_index < cfg.fault_rates.size(); ++rate_index) {
        for (std::size_t repeat = 0; repeat < cfg.repeats; ++repeat) {
            sweep_cell cell;
            cell.rate_index = rate_index;
            cell.repeat = repeat;
            cell.fault_rate = cfg.fault_rates[rate_index];
            cell.map_seed = mix_seed(cfg.seed, rate_index, repeat);
            cells.push_back(cell);
        }
    }
    return cells;
}

resilience_cache::resilience_cache(std::string dir) : dir_(std::move(dir)) {
    REDUCE_CHECK(!dir_.empty(), "resilience cache needs a directory");
}

std::string resilience_cache::path_for(const resilience_config& cfg) const {
    return (std::filesystem::path(dir_) / ("step1-" + resilience_fingerprint(cfg) + ".json"))
        .string();
}

std::optional<resilience_table> resilience_cache::load(const resilience_config& cfg) const {
    const std::string path = path_for(cfg);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) { return std::nullopt; }
    try {
        resilience_table table = resilience_table::from_json(json_load_file(path));
        const std::string expected = resilience_fingerprint(cfg);
        if (table.fingerprint() != expected) {
            LOG_WARN << "resilience cache: " << path << " holds fingerprint '"
                     << table.fingerprint() << "' but the requested config is '" << expected
                     << "'; treating as a miss";
            return std::nullopt;
        }
        return table;
    } catch (const std::exception& e) {
        LOG_WARN << "resilience cache: failed to read " << path << " (" << e.what()
                 << "); treating as a miss";
        return std::nullopt;
    }
}

void resilience_cache::store(const resilience_table& table,
                             const resilience_config& cfg) const {
    std::filesystem::create_directories(dir_);
    const std::string path = path_for(cfg);
    // Unique temp name per process AND per attempt: with a fixed ".tmp"
    // suffix, two processes sharing a cache directory (say the distributed
    // coordinator next to a local run) could clobber each
    // other's in-flight write before the rename. gc() sweeps any ".tmp"
    // infix, so interrupted stores under either scheme stay collectable.
    static std::atomic<std::uint64_t> store_sequence{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                            std::to_string(store_sequence.fetch_add(1));
    json_save_file(tmp, table.to_json());
    std::filesystem::rename(tmp, path);
    LOG_INFO << "resilience cache: stored " << path;
}

resilience_cache::gc_report resilience_cache::gc(const gc_options& opts) const {
    gc_report report;
    std::error_code ec;
    if (!std::filesystem::is_directory(dir_, ec)) { return report; }

    struct entry {
        std::filesystem::path path;
        std::uint64_t bytes = 0;
        std::filesystem::file_time_type mtime;
    };
    std::vector<entry> keep;
    const auto remove_file = [&](const std::filesystem::path& p, std::uint64_t bytes,
                                 std::size_t& counter, const char* why) -> bool {
        std::error_code rm_ec;
        if (std::filesystem::remove(p, rm_ec)) {
            ++counter;
            report.bytes_freed += bytes;
            LOG_INFO << "resilience cache gc: removed " << why << " entry " << p.string();
            return true;
        }
        if (rm_ec) {
            LOG_WARN << "resilience cache gc: could not remove " << p.string() << " ("
                     << rm_ec.message() << ")";
        }
        return false;
    };

    for (const auto& dirent : std::filesystem::directory_iterator(dir_, ec)) {
        if (ec || !dirent.is_regular_file()) { continue; }
        const std::filesystem::path& path = dirent.path();
        const std::string name = path.filename().string();
        if (name.rfind("step1-", 0) != 0) { continue; }
        const std::uint64_t bytes = static_cast<std::uint64_t>(dirent.file_size());
        // ".tmp" litter from an interrupted store is always stale. Matched
        // as an infix: current stores suffix ".tmp.<pid>.<seq>" for
        // concurrent-writer safety, and files from the older bare-".tmp"
        // scheme must stay collectable too. Fingerprints are hex, so a
        // committed entry's name can never contain ".tmp".
        if (name.find(".tmp") != std::string::npos) {
            ++report.scanned;
            remove_file(path, bytes, report.removed_stale, "interrupted-store");
            continue;
        }
        if (name.size() < 5 || name.compare(name.size() - 5, 5, ".json") != 0) { continue; }
        ++report.scanned;
        bool stale = false;
        try {
            // Keep the parsed document alive past as_object(): binding the
            // object reference straight to the temporary dangles.
            const json_value loaded = json_load_file(path.string());
            const json_object& root = loaded.as_object();
            const std::int64_t version =
                root.contains("schema_version") ? root.at("schema_version").as_int() : 1;
            stale = version != resilience_schema_version;
        } catch (const std::exception&) {
            stale = true;  // unreadable counts as stale
        }
        if (stale) {
            remove_file(path, bytes, report.removed_stale, "stale-schema");
        } else {
            keep.push_back({path, bytes, dirent.last_write_time()});
        }
    }

    if (opts.max_total_bytes > 0) {
        // Oldest-first eviction; name tiebreak keeps the order deterministic
        // on filesystems with coarse mtime resolution.
        std::sort(keep.begin(), keep.end(), [](const entry& a, const entry& b) {
            if (a.mtime != b.mtime) { return a.mtime < b.mtime; }
            return a.path.filename().string() < b.path.filename().string();
        });
        std::uint64_t total = 0;
        for (const entry& e : keep) { total += e.bytes; }
        for (const entry& e : keep) {
            if (total <= opts.max_total_bytes) { break; }
            // Only count an eviction that actually happened — a failed
            // remove (permissions, open handle) must not let the loop stop
            // while the directory still exceeds the budget.
            if (remove_file(e.path, e.bytes, report.removed_oversize, "over-budget")) {
                total -= e.bytes;
            }
        }
        report.bytes_kept = total;
    } else {
        for (const entry& e : keep) { report.bytes_kept += e.bytes; }
    }
    LOG_INFO << "resilience cache gc: scanned " << report.scanned << ", removed "
             << report.removed_stale << " stale + " << report.removed_oversize
             << " over-budget, kept " << report.bytes_kept << " bytes in " << dir_;
    return report;
}

resilience_cache::gc_report resilience_cache::gc() const { return gc(gc_options{}); }

std::function<void()> cache_gc_from_cli(const cli_args& args) {
    if (!args.get_flag("cache-gc")) { return {}; }
    const std::string dir = args.get("cache-dir", "");
    REDUCE_CHECK(!dir.empty(), "--cache-gc requires --cache-dir");
    resilience_cache::gc_options opts;
    const double max_mb = args.get_double("cache-gc-max-mb", 0.0);
    REDUCE_CHECK(max_mb >= 0.0, "--cache-gc-max-mb must be non-negative");
    opts.max_total_bytes = static_cast<std::uint64_t>(max_mb * 1024.0 * 1024.0);
    return [dir, opts] {
        const resilience_cache::gc_report report = resilience_cache(dir).gc(opts);
        LOG_WARN << "cache-gc: " << report.scanned << " scanned, " << report.removed_stale
                 << " stale removed, " << report.removed_oversize << " evicted for budget, "
                 << report.bytes_freed << " bytes freed";
    };
}

resilience_analyzer::resilience_analyzer(const sequential& model,
                                         const model_snapshot& pretrained,
                                         const dataset& train_data, const dataset& test_data,
                                         const array_config& array, fat_config trainer_cfg)
    : model_(model),
      pretrained_(pretrained),
      train_data_(train_data),
      test_data_(test_data),
      array_(array),
      trainer_cfg_(trainer_cfg) {}

resilience_table resilience_analyzer::analyze(const resilience_config& cfg,
                                              const sweep_options& opts) {
    return analyze_cells(cfg, enumerate_sweep_cells(cfg), opts);
}

resilience_table resilience_analyzer::analyze_cells(const resilience_config& cfg,
                                                    const std::vector<sweep_cell>& cells,
                                                    const sweep_options& opts) {
    const std::vector<sweep_cell> grid = enumerate_sweep_cells(cfg);
    REDUCE_CHECK(!cells.empty(), "analyze_cells needs at least one cell");
    for (const sweep_cell& cell : cells) {
        // Cells must be grid members with their canonical seeds — a leased
        // cell recomputed from a drifted config would merge silently wrong
        // numbers into the table.
        REDUCE_CHECK(cell.rate_index < cfg.fault_rates.size() && cell.repeat < cfg.repeats,
                     "cell (rate_index=" << cell.rate_index << ", repeat=" << cell.repeat
                                         << ") outside the sweep grid");
        const sweep_cell& canonical = grid[cell.rate_index * cfg.repeats + cell.repeat];
        REDUCE_CHECK(cell.map_seed == canonical.map_seed &&
                         same_rate(cell.fault_rate, canonical.fault_rate),
                     "cell (rate_index=" << cell.rate_index << ", repeat=" << cell.repeat
                                         << ") does not match the grid's canonical seed "
                                            "or rate — config drift?");
    }
    const std::vector<double> eval_grid = resolved_eval_grid(cfg);

    // Work unit: one cell. Each cell's episode measures its own epoch-0
    // (post-FAP) accuracy, so a cell's result is a function of the cell
    // alone, whatever the worker count or cell order.
    const std::size_t workers = resolve_thread_count(opts.threads, cells.size());

    // Workers drain the cell list through an atomic cursor; each owns a
    // deep clone that every episode leaves at the pretrained snapshot, so a
    // cell's result never depends on which worker ran it or in what order.
    std::vector<resilience_run> runs(cells.size());
    std::atomic<std::size_t> next{0};
    const auto worker = [&]() {
        const std::unique_ptr<sequential> model = clone_model(model_);
        // Each worker owns its thread-local workspace arena alongside its
        // model clone: the first cell warms the slabs (im2col, GEMM packing,
        // lowered outputs) and every later cell reuses them allocation-free.
        workspace& arena = workspace::local();
        // One restore up front covers the first cell; afterwards each
        // episode's guard leaves the clone at the pretrained snapshot.
        restore_parameters(model->parameters(), pretrained_);
        fault_aware_trainer trainer(*model, train_data_, test_data_, trainer_cfg_);
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= cells.size()) {
                LOG_DEBUG << "resilience worker done; arena high-water "
                          << arena.peak_floats() * sizeof(float) << " bytes across "
                          << arena.pooled_bytes() << " pooled";
                return;
            }
            const sweep_cell& cell = cells[i];
            // A function of the cell alone (map from its seed, timeline from
            // its coordinates): any partition or lease replays it identically.
            random_fault_config fault_cfg = cfg.fault_model;
            fault_cfg.fault_rate = cell.fault_rate;
            episode_result out = run_episode(
                trainer, pretrained_, array_,
                {.seed = cell.map_seed,
                 .faults = generate_random_faults(array_, fault_cfg, cell.map_seed),
                 .timeline = timeline_for_cell(cfg.scenario, cell.rate_index, cell.repeat),
                 .budget = cfg.max_epochs,
                 .grid = eval_grid});

            resilience_run& run = runs[i];
            run.fault_rate = cell.fault_rate;
            run.repeat = cell.repeat;
            run.map_seed = cell.map_seed;
            run.masked_weight_fraction = out.masks.masked_fraction();
            run.trajectory = std::move(out.fat.trajectory);

            LOG_DEBUG << "resilience: rate=" << cell.fault_rate << " rep=" << cell.repeat
                      << " masked=" << out.masks.masked_fraction()
                      << " final_acc=" << run.trajectory.back().test_accuracy;
        }
    };

    run_workers(workers, worker);

    LOG_INFO << "resilience: swept " << cells.size() << " of " << grid.size() << " cells ("
             << workers << " worker(s))";
    return resilience_table(std::move(runs), cfg.max_epochs, resilience_fingerprint(cfg),
                            grid.size());
}

resilience_table resilience_analyzer::analyze_cached(const resilience_config& cfg,
                                                     const sweep_options& opts,
                                                     const resilience_cache& cache) {
    if (std::optional<resilience_table> cached = cache.load(cfg)) {
        LOG_INFO << "resilience: cache hit (" << cache.path_for(cfg) << ")";
        return std::move(*cached);
    }
    resilience_table table = analyze(cfg, opts);
    cache.store(table, cfg);
    return table;
}

resilience_table run_resilience_sweep(resilience_analyzer& analyzer,
                                      const resilience_config& cfg,
                                      const sweep_options& opts,
                                      const std::string& cache_dir) {
    if (cache_dir.empty()) { return analyzer.analyze(cfg, opts); }
    return analyzer.analyze_cached(cfg, opts, resilience_cache(cache_dir));
}

}  // namespace reduce
