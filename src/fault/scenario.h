// Fault-event timelines: fault maps that change while the system runs.
//
// The base framework retrains against a *static* fault map per episode.
// Real deployments are not static: chips age (permanent faults accrue
// between and during episodes, eFAT), transient upsets strike mid-
// retraining, and FAP repair passes convert stuck PEs into clean bypasses.
// A scenario_config is a seed-driven, ordered list of such events anchored
// at epoch boundaries; binding it to one retraining episode yields a
// fault_timeline whose every sampled decision is a pure function of
// (scenario, episode coordinates) — never of thread schedule, worker
// identity, or wall-clock — so timeline runs keep the repo-wide
// bit-identical guarantee at any --gemm-threads / worker count / cell
// partition, distributed or local.
//
// A scenario has one serialized form: the canonical text of
// scenario_to_string — the --scenario CLI grammar, the exact string
// resilience fingerprints hash, and what distributed workers receive.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/array_config.h"
#include "accel/fault_grid.h"
#include "fault/models.h"

namespace reduce {

/// What a timeline event does to the chip's fault map.
enum class fault_event_kind {
    strike,  ///< transient upset: additional faulty PEs appear at once
    accrue,  ///< aging step: additional permanent faults accumulate
    repair,  ///< FAP pass: every stuck PE becomes a clean bypass
};

std::string to_string(fault_event_kind kind);
fault_event_kind fault_event_kind_from_string(const std::string& name);

/// One timeline event. Events fire when training crosses the epoch
/// boundary (the step count steps_for_epochs(epoch)), so their firing
/// point is exact on every path that shares the loader's step quantizer.
struct fault_event {
    double epoch = 0.0;      ///< boundary the event fires at (> 0)
    fault_event_kind kind = fault_event_kind::strike;
    /// Extra faulty fraction of ALL PEs injected by strike/accrue
    /// (exact-count, sampled from the currently healthy PEs). Ignored by
    /// repair.
    double magnitude = 0.0;

    bool operator==(const fault_event&) const = default;
};

/// What the trainer does at an event (and after a post-event divergence).
enum class recovery_mode {
    /// ReCycle-style recover-and-continue: rebuild masks in place, re-zero
    /// newly masked weights and optimizer state, eval, keep training; on
    /// non-finite divergence, roll back to the last finite checkpoint
    /// (bounded budget) and continue under the new mask.
    recover,
    /// Baseline: restore the pretrained (masked) weights under the new
    /// mask and reset the optimizer — restart-from-scratch accounting with
    /// cumulative epochs, so benches can quantify the epochs recovery saves.
    restart,
};

std::string to_string(recovery_mode mode);
recovery_mode recovery_mode_from_string(const std::string& name);

/// A fault-event timeline plus the knobs that shape its replay. Everything
/// here feeds the resilience fingerprint (appended only when non-empty, so
/// scenario-free fingerprints — and every cached artifact keyed by them —
/// are unchanged).
struct scenario_config {
    std::vector<fault_event> events;  ///< ascending by epoch (validated)
    recovery_mode mode = recovery_mode::recover;
    /// Rollbacks allowed per episode before the run gives up and stops
    /// early (loudly, counted) in non-finite state.
    std::size_t rollback_budget = 2;
    /// Base of the per-episode event streams (see timeline_for_*).
    std::uint64_t seed = 1;
    /// Fault behaviour of newly injected PEs (repair converts stuck ones).
    fault_kind_mix kind_mix = fault_kind_mix::all_bypassed;

    bool empty() const { return events.empty(); }
    bool operator==(const scenario_config&) const = default;
};

/// Parses the --scenario grammar: ';'-separated tokens, each either an
/// event `kind@epoch[:magnitude]` (e.g. "strike@0.6:0.05", "repair@1.2")
/// or a setting `mode=recover|restart`, `rollback=<n>`, `seed=<n>`,
/// `kinds=bypassed|stuck-zero|random-stuck`. Events are sorted by epoch;
/// "" parses to the empty scenario. Numbers fill their whole token;
/// `rollback` and `seed` are bare decimal digits that fit 64 bits. Throws
/// reduce::error on malformed specs (invalid_argument_error for a bad
/// token or a magnitude on a repair), duplicate event epochs, or
/// non-positive or non-finite epochs.
scenario_config parse_scenario(const std::string& spec);

/// Canonical text form: events in epoch order, then every setting —
/// the exact inverse of parse_scenario and the string fingerprints hash.
/// Returns "" for an empty scenario.
std::string scenario_to_string(const scenario_config& s);

/// A scenario bound to one retraining episode: all event sampling draws
/// from streams derived from episode_seed, never from shared state.
struct fault_timeline {
    scenario_config scenario;
    std::uint64_t episode_seed = 0;

    bool empty() const { return scenario.empty(); }
};

/// Timeline of sweep cell (rate_index, repeat):
/// episode_seed = mix_seed(scenario.seed, rate_index, repeat). Derivable
/// identically by any worker, local or distributed, from the config alone.
fault_timeline timeline_for_cell(const scenario_config& s, std::size_t rate_index,
                                 std::size_t repeat);

/// Timeline of a fleet chip: episode_seed = mix_seed(scenario.seed, chip_id).
fault_timeline timeline_for_chip(const scenario_config& s, std::size_t chip_id);

/// Applies event `index` of the timeline to `grid` in place. Strike and
/// accrue sample round(magnitude * pe_count) additional faulty PEs from
/// the currently healthy ones (without replacement, kinds from
/// scenario.kind_mix) using an rng seeded mix_seed(episode_seed, index) —
/// the outcome depends only on (timeline, index, grid), so replays from a
/// rollback or a re-leased distributed unit reproduce it exactly. Repair
/// converts every stuck PE to bypassed and injects nothing. Returns the
/// number of PE states changed.
std::size_t apply_fault_event(fault_grid& grid, const fault_timeline& timeline,
                              std::size_t index);

}  // namespace reduce
