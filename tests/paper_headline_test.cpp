// The paper's headline, pinned on the default Fig. 3 configuration of
// bench/fig3_policy_comparison (100 chips, 91% constraint, its Step-1 grid
// and seeds): Reduce sits on the Pareto front of (total retraining epochs,
// fraction of chips meeting the constraint) against the fixed-epoch
// policies. A change that trades the result away fails here.
#include <gtest/gtest.h>

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet_executor.h"
#include "core/policy.h"
#include "core/workload.h"
#include "fault/chip.h"

namespace reduce {
namespace {

TEST(PaperHeadline, ReduceIsOnTheParetoFrontOfTheDefaultFig3Fleet) {
    // The fig3 defaults: --seed 20230309, --budget 6, --repeats 5, --chips 100,
    // --constraint 91, --rate-lo 0.01, --rate-hi 0.30, --fixed 0.25,0.5,1.0.
    const std::uint64_t seed = 20230309;
    const double constraint = 0.91;
    workload w = make_standard_workload();
    fleet_executor executor(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                            w.trainer_cfg, fleet_executor_config{.threads = 0});

    resilience_config rc;
    rc.fault_rates = {0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3};
    rc.repeats = 5;
    rc.max_epochs = 6.0;
    rc.seed = seed;
    rc.context = w.context;
    const resilience_table table = executor.analyze(rc);

    fleet_config fc;
    fc.num_chips = 100;
    fc.rate_lo = 0.01;
    fc.rate_hi = 0.30;
    fc.seed = seed + 1;
    const std::vector<chip> fleet = make_fleet(w.array, fc);

    policy_context ctx;
    ctx.table = &table;
    ctx.selector.accuracy_target = constraint;
    ctx.selector.stat = statistic::max;
    const policy_registry& registry = policy_registry::global();
    const policy_outcome reduce = executor.run(*registry.make("reduce", ctx), fleet);
    std::cout << "reduce: " << reduce.total_epochs() << " epochs, "
              << reduce.fraction_meeting() * 100.0 << "% meeting\n";

    bool dominates_one = false;
    for (const double epochs : {0.25, 0.5, 1.0}) {
        ctx.fixed_epochs = epochs;
        const policy_outcome fixed = executor.run(*registry.make("fixed", ctx), fleet);
        std::cout << "fixed-" << epochs << ": " << fixed.total_epochs() << " epochs, "
                  << fixed.fraction_meeting() * 100.0 << "% meeting\n";
        EXPECT_FALSE(fixed.fraction_meeting() >= reduce.fraction_meeting() &&
                     fixed.total_epochs() < reduce.total_epochs())
            << "fixed-" << epochs << " reaches Reduce's meeting fraction with fewer epochs";
        dominates_one = dominates_one ||
                        (reduce.total_epochs() < fixed.total_epochs() &&
                         reduce.fraction_meeting() > fixed.fraction_meeting());
    }
    EXPECT_TRUE(dominates_one) << "Reduce strictly dominates no fixed policy";
}

}  // namespace
}  // namespace reduce
