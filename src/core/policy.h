// Pluggable retraining policies (the Step-2 decision, abstracted).
//
// Reduce's core contribution is choosing a *per-chip* retraining amount
// instead of a fleet-wide constant — but the policy space is richer than
// those two points (eFAT's resilience-driven granularity, Chameleon's
// runtime policy selection). This header turns the decision into a
// first-class interface: a retraining_policy receives a per-chip view
// (effective fault rate, resilience table, budget) and returns an epoch
// allocation. Policies are selected by name through a string-keyed registry
// so benches, examples, and CLIs stay policy-agnostic (`--policy=reduce`).
//
// Shipped policies:
//   * reduce  — the paper's Step 2: resilience-table lookup per chip.
//   * fixed   — the VTS'18 baseline: one pre-specified amount for all chips.
//   * oracle  — retrain-until-target upper bound: the minimal checkpointed
//               amount that meets the constraint (idealized; knows the
//               trajectory). Lower-bounds the achievable cost.
//   * binned  — reduce amounts collapsed into k production job classes via
//               the optimal-DP partition of core/binning.h.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/binning.h"
#include "core/resilience.h"
#include "core/selector.h"
#include "fault/chip.h"

namespace reduce {

/// Everything a policy may inspect about one chip when allocating epochs.
struct chip_view {
    std::size_t index = 0;                     ///< position within the fleet
    const chip* device = nullptr;              ///< id, seed, fault map
    double effective_fault_rate = 0.0;         ///< under the policy's rate_kind()
    const resilience_table* table = nullptr;   ///< null when the policy has none
    double epoch_budget = 0.0;                 ///< table budget (0 when no table)
};

/// A policy's verdict for one chip.
struct epoch_allocation {
    double epochs = 0.0;
    bool selection_failed = false;  ///< table deemed the target unreachable
    /// Oracle mode: train up to `epochs` on the checkpoint grid but report
    /// the first checkpoint that meets the target as the amount spent.
    bool train_to_target = false;
};

/// Interface every retraining policy implements. Policies are immutable
/// after construction and must be safe to call concurrently (allocate/plan
/// are const and the fleet executor invokes them before fan-out).
class retraining_policy {
public:
    virtual ~retraining_policy() = default;

    /// Registry-style identifier ("reduce", "fixed", ...).
    virtual std::string name() const = 0;

    /// Accuracy constraint the policy is allocating toward, in [0, 1].
    virtual double accuracy_target() const = 0;

    /// How the executor should estimate each chip's effective fault rate.
    virtual effective_rate_kind rate_kind() const {
        return effective_rate_kind::used_subarray;
    }

    /// Resilience table backing the policy, if any (populates chip_view).
    virtual const resilience_table* table() const { return nullptr; }

    /// Per-chip allocation. Must not depend on other chips.
    virtual epoch_allocation allocate(const chip_view& view) const = 0;

    /// Fleet-level allocation; the default maps allocate() over the views.
    /// Policies that need cross-chip context (e.g. binning) override this.
    virtual std::vector<epoch_allocation> plan(const std::vector<chip_view>& fleet) const;
};

/// One fleet's Step-2 decision: the policy's constraint plus one allocation
/// and one effective fault rate per chip, in fleet order.
struct fleet_plan {
    double constraint = 0.0;
    std::vector<epoch_allocation> allocations;
    std::vector<double> effective_rates;
};

/// Validates the fleet and the policy's constraint, builds one chip_view per
/// chip (effective rate under policy.rate_kind()), and calls policy.plan
/// once over the whole fleet, so policies with cross-chip context (binning)
/// see every chip. The fleet executor and the distributed planner both
/// decide through this. Rate estimation only reads layer geometry: cheap
/// enough to stay serial, which keeps view order trivially deterministic.
fleet_plan plan_fleet(sequential& model, const array_config& array,
                      const retraining_policy& policy, const std::vector<chip>& fleet);

/// The paper's Step 2: per-chip lookup of the resilience table through a
/// retraining_selector. Chips whose selection fails get the full table
/// budget (the conservative fallback).
class reduce_policy : public retraining_policy {
public:
    /// The table must outlive the policy.
    reduce_policy(const resilience_table& table, selector_config cfg,
                  std::string name = "reduce");

    std::string name() const override { return name_; }
    double accuracy_target() const override { return selector_.config().accuracy_target; }
    effective_rate_kind rate_kind() const override { return selector_.config().rate_kind; }
    const resilience_table* table() const override { return &table_; }
    epoch_allocation allocate(const chip_view& view) const override;

private:
    const resilience_table& table_;
    retraining_selector selector_;
    std::string name_;
};

/// The VTS'18 baseline: every chip receives the same pre-specified amount.
class fixed_policy : public retraining_policy {
public:
    /// `epochs` must be >= 0 and `target` in [0, 1].
    fixed_policy(double epochs, double target, std::string name = "fixed");

    std::string name() const override { return name_; }
    double accuracy_target() const override { return target_; }
    epoch_allocation allocate(const chip_view& view) const override;

    double epochs() const { return epochs_; }

private:
    double epochs_;
    double target_;
    std::string name_;
};

/// Idealized retrain-until-target policy: allocates the full budget but has
/// the tuner stop accounting at the first checkpoint meeting the target.
/// Not realizable in production (it assumes perfect knowledge of when to
/// stop) — it lower-bounds the per-chip cost any realizable policy can reach.
class oracle_policy : public retraining_policy {
public:
    /// The table (budget source) must outlive the policy.
    oracle_policy(const resilience_table& table, double target,
                  std::string name = "oracle");

    std::string name() const override { return name_; }
    double accuracy_target() const override { return target_; }
    const resilience_table* table() const override { return &table_; }
    epoch_allocation allocate(const chip_view& view) const override;

private:
    const resilience_table& table_;
    double target_;
    std::string name_;
};

/// Reduce selections collapsed into at most `num_bins` production job
/// classes (each chip gets its bin's allocation — never less than its own
/// selection, so robustness is preserved by construction).
class binned_policy : public retraining_policy {
public:
    /// The table must outlive the policy. Requires num_bins >= 1.
    binned_policy(const resilience_table& table, selector_config cfg,
                  std::size_t num_bins, std::string name = "binned");

    std::string name() const override { return inner_.name(); }
    double accuracy_target() const override { return inner_.accuracy_target(); }
    effective_rate_kind rate_kind() const override { return inner_.rate_kind(); }
    const resilience_table* table() const override { return inner_.table(); }

    /// Single-chip allocation (no fleet context): the raw reduce selection.
    epoch_allocation allocate(const chip_view& view) const override;

    /// Fleet allocation: reduce selections, then the optimal-DP binning.
    std::vector<epoch_allocation> plan(const std::vector<chip_view>& fleet) const override;

    std::size_t num_bins() const { return num_bins_; }

private:
    reduce_policy inner_;
    std::size_t num_bins_;
};

/// Inputs a registry factory may draw from when instantiating a policy.
/// Callers fill in what they have; factories check what they need.
struct policy_context {
    const resilience_table* table = nullptr;  ///< required by reduce/oracle/binned
    selector_config selector{};               ///< target, statistic, rate kind, ...
    double fixed_epochs = 1.0;                ///< fixed policy's allocation
    std::size_t num_bins = 4;                 ///< binned policy's job-class count
};

/// String-keyed policy construction, so harnesses select policies by name.
class policy_registry {
public:
    using factory =
        std::function<std::unique_ptr<retraining_policy>(const policy_context&)>;

    /// Registers (or replaces) a named policy factory.
    void add(std::string name, std::string description, factory make);

    /// True when `name` is registered.
    bool contains(const std::string& name) const;

    /// Instantiates the named policy; throws reduce::error listing the known
    /// names when `name` is unknown, or when the context lacks a required
    /// input (e.g. no resilience table for "reduce").
    std::unique_ptr<retraining_policy> make(const std::string& name,
                                            const policy_context& ctx) const;

    /// Registered names, sorted.
    std::vector<std::string> names() const;

    /// One-line description of a registered policy.
    const std::string& describe(const std::string& name) const;

    /// Process-wide registry pre-populated with the built-in policies
    /// (reduce, reduce-mean, fixed, oracle, binned).
    static policy_registry& global();

private:
    struct entry {
        std::string description;
        factory make;
    };
    std::map<std::string, entry> entries_;
};

}  // namespace reduce
