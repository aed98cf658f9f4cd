#include "core/policy.h"

#include <sstream>

#include "fault/mask_builder.h"
#include "util/error.h"

namespace reduce {

std::vector<epoch_allocation> retraining_policy::plan(
    const std::vector<chip_view>& fleet) const {
    std::vector<epoch_allocation> allocations;
    allocations.reserve(fleet.size());
    for (const chip_view& view : fleet) { allocations.push_back(allocate(view)); }
    return allocations;
}

fleet_plan plan_fleet(sequential& model, const array_config& array,
                      const retraining_policy& policy, const std::vector<chip>& fleet) {
    REDUCE_CHECK(!fleet.empty(), "fleet planned over an empty fleet");
    fleet_plan out;
    out.constraint = policy.accuracy_target();
    REDUCE_CHECK(out.constraint >= 0.0 && out.constraint <= 1.0,
                 "accuracy constraint must be a fraction in [0, 1], got " << out.constraint);
    const resilience_table* table = policy.table();
    std::vector<chip_view> views;
    views.reserve(fleet.size());
    out.effective_rates.reserve(fleet.size());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        chip_view view;
        view.index = i;
        view.device = &fleet[i];
        view.effective_fault_rate =
            effective_fault_rate(model, array, fleet[i].faults, policy.rate_kind());
        view.table = table;
        view.epoch_budget = table != nullptr ? table->max_epochs() : 0.0;
        views.push_back(view);
        out.effective_rates.push_back(view.effective_fault_rate);
    }
    out.allocations = policy.plan(views);
    REDUCE_CHECK(out.allocations.size() == fleet.size(),
                 "policy '" << policy.name() << "' planned " << out.allocations.size()
                            << " allocations for " << fleet.size() << " chips");
    return out;
}

reduce_policy::reduce_policy(const resilience_table& table, selector_config cfg,
                             std::string name)
    : table_(table), selector_(table, cfg), name_(std::move(name)) {}

epoch_allocation reduce_policy::allocate(const chip_view& view) const {
    const selection sel = selector_.select_for_rate(view.effective_fault_rate);
    epoch_allocation alloc;
    // Unreachable target → fall back to the full budget (conservative).
    alloc.epochs = sel.epochs.value_or(table_.max_epochs());
    alloc.selection_failed = !sel.epochs.has_value();
    return alloc;
}

fixed_policy::fixed_policy(double epochs, double target, std::string name)
    : epochs_(epochs), target_(target), name_(std::move(name)) {
    REDUCE_CHECK(epochs_ >= 0.0, "fixed policy epochs must be non-negative, got " << epochs_);
    REDUCE_CHECK(target_ >= 0.0 && target_ <= 1.0,
                 "accuracy constraint must be a fraction in [0, 1], got " << target_);
}

epoch_allocation fixed_policy::allocate(const chip_view&) const {
    epoch_allocation alloc;
    alloc.epochs = epochs_;
    return alloc;
}

oracle_policy::oracle_policy(const resilience_table& table, double target,
                             std::string name)
    : table_(table), target_(target), name_(std::move(name)) {
    REDUCE_CHECK(target_ >= 0.0 && target_ <= 1.0,
                 "accuracy constraint must be a fraction in [0, 1], got " << target_);
}

epoch_allocation oracle_policy::allocate(const chip_view&) const {
    epoch_allocation alloc;
    alloc.epochs = table_.max_epochs();
    alloc.train_to_target = true;
    return alloc;
}

binned_policy::binned_policy(const resilience_table& table, selector_config cfg,
                             std::size_t num_bins, std::string name)
    : inner_(table, cfg, std::move(name)), num_bins_(num_bins) {
    REDUCE_CHECK(num_bins_ >= 1, "binned policy needs at least one bin");
}

epoch_allocation binned_policy::allocate(const chip_view& view) const {
    return inner_.allocate(view);
}

std::vector<epoch_allocation> binned_policy::plan(
    const std::vector<chip_view>& fleet) const {
    std::vector<epoch_allocation> allocations = inner_.plan(fleet);
    std::vector<double> amounts;
    amounts.reserve(allocations.size());
    for (const epoch_allocation& a : allocations) { amounts.push_back(a.epochs); }
    const binning_result bins = bin_retraining_amounts(amounts, num_bins_);
    for (const epoch_bin& bin : bins.bins) {
        for (const std::size_t member : bin.members) {
            allocations[member].epochs = bin.epochs;
        }
    }
    return allocations;
}

void policy_registry::add(std::string name, std::string description, factory make) {
    REDUCE_CHECK(!name.empty(), "policy name must be non-empty");
    REDUCE_CHECK(make != nullptr, "policy factory must be callable");
    entries_[std::move(name)] = entry{std::move(description), std::move(make)};
}

bool policy_registry::contains(const std::string& name) const {
    return entries_.count(name) > 0;
}

std::unique_ptr<retraining_policy> policy_registry::make(const std::string& name,
                                                         const policy_context& ctx) const {
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
        std::ostringstream oss;
        oss << "unknown retraining policy '" << name << "'; registered policies:";
        for (const auto& [known, _] : entries_) { oss << ' ' << known; }
        throw invalid_argument_error(oss.str());
    }
    std::unique_ptr<retraining_policy> policy = it->second.make(ctx);
    REDUCE_CHECK(policy != nullptr, "factory for policy '" << name << "' returned null");
    return policy;
}

std::vector<std::string> policy_registry::names() const {
    std::vector<std::string> all;
    all.reserve(entries_.size());
    for (const auto& [name, _] : entries_) { all.push_back(name); }
    return all;  // std::map iteration is already sorted
}

const std::string& policy_registry::describe(const std::string& name) const {
    const auto it = entries_.find(name);
    REDUCE_CHECK(it != entries_.end(), "unknown retraining policy '" << name << "'");
    return it->second.description;
}

namespace {

const resilience_table& require_table(const policy_context& ctx, const char* policy) {
    REDUCE_CHECK(ctx.table != nullptr,
                 "policy '" << policy << "' needs a resilience table in the context");
    return *ctx.table;
}

policy_registry make_builtin_registry() {
    policy_registry registry;
    registry.add("reduce", "per-chip amount from the resilience table (paper Step 2, max statistic)",
                 [](const policy_context& ctx) -> std::unique_ptr<retraining_policy> {
                     return std::make_unique<reduce_policy>(require_table(ctx, "reduce"),
                                                            ctx.selector);
                 });
    registry.add("reduce-mean", "reduce with the mean statistic (under-trains; Fig. 3b)",
                 [](const policy_context& ctx) -> std::unique_ptr<retraining_policy> {
                     selector_config cfg = ctx.selector;
                     cfg.stat = statistic::mean;
                     return std::make_unique<reduce_policy>(
                         require_table(ctx, "reduce-mean"), cfg, "reduce-mean");
                 });
    registry.add("fixed", "one pre-specified amount for every chip (VTS'18 baseline)",
                 [](const policy_context& ctx) -> std::unique_ptr<retraining_policy> {
                     return std::make_unique<fixed_policy>(ctx.fixed_epochs,
                                                           ctx.selector.accuracy_target);
                 });
    registry.add("oracle", "retrain-until-target upper bound (idealized early stopping)",
                 [](const policy_context& ctx) -> std::unique_ptr<retraining_policy> {
                     return std::make_unique<oracle_policy>(require_table(ctx, "oracle"),
                                                            ctx.selector.accuracy_target);
                 });
    registry.add("binned", "reduce amounts collapsed into k production job classes",
                 [](const policy_context& ctx) -> std::unique_ptr<retraining_policy> {
                     return std::make_unique<binned_policy>(require_table(ctx, "binned"),
                                                            ctx.selector, ctx.num_bins);
                 });
    return registry;
}

}  // namespace

policy_registry& policy_registry::global() {
    static policy_registry registry = make_builtin_registry();
    return registry;
}

}  // namespace reduce
