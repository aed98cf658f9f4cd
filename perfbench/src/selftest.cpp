// Self-tests of the benchmark's own measurement helpers (trace.h). Built
// next to the benchmark and run by `python3 perfbench/run.py --selftest`,
// which also smoke-runs every workload twice and compares their digests.
// Checks stay active in every build type (no assert).

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "trace.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << '\n';
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) { v.push_back(static_cast<double>(i)); }
    return v;
}

void percentile_needs_ten_samples_beyond() {
    using perfbench::guarded_percentile;
    check(!guarded_percentile(ramp(99), 90).has_value(), "p90 of 99 samples has only 9 beyond");
    check(guarded_percentile(ramp(100), 90).has_value(), "p90 of 100 samples has 10 beyond");
    check(near(*guarded_percentile(ramp(100), 90), 90.0), "p90 of 1..100 is 90 (nearest rank)");
    check(!guarded_percentile(ramp(19), 50).has_value(), "p50 of 19 samples has only 9 beyond");
    check(near(*guarded_percentile(ramp(20), 50), 10.0), "p50 of 1..20 is 10");
    check(!guarded_percentile({}, 50).has_value(), "no percentile of an empty sample");
    check(!guarded_percentile(ramp(1000), 100).has_value(), "p100 has nothing beyond it");
    std::vector<double> shuffled{5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 15, 12, 11, 14, 13, 20, 18, 17,
                                 16, 19};
    check(near(*guarded_percentile(shuffled, 50), 10.0), "percentile sorts its input");
    check(near(perfbench::median({3, 1, 2}), 2.0), "odd median");
    check(near(perfbench::median({4, 1, 3, 2}), 2.5), "even median");
}

perfbench::span make_span(double start, double end, std::int64_t parent) {
    return perfbench::span{"s", start, end, parent, 0};
}

void self_time_subtracts_covered_child_time() {
    using perfbench::self_times_ms;
    // Root [0, 100]: children [10, 30] and [20, 50] overlap (parallel
    // workers) and cover [10, 50] = 40 ms; [90, 120] sticks out of the
    // parent and counts only its [90, 100] part.
    std::vector<perfbench::span> spans{make_span(0, 100, -1), make_span(10, 30, 0),
                                       make_span(20, 50, 0), make_span(90, 120, 0),
                                       make_span(12, 18, 1)};
    const std::vector<double> self = self_times_ms(spans);
    check(near(self[0], 100.0 - 40.0 - 10.0), "root self time excludes merged children");
    check(near(self[1], 20.0 - 6.0), "grandchild time is charged to its own parent only");
    check(near(self[2], 30.0), "leaf self time is its duration");
    check(near(self[3], 30.0), "leaf outside its parent keeps its duration");
    check(near(self[4], 6.0), "nested leaf");
    // Disjoint children and a child identical to its parent.
    std::vector<perfbench::span> flat{make_span(0, 10, -1), make_span(0, 10, 0)};
    check(near(self_times_ms(flat)[0], 0.0), "fully covered parent has no self time");
}

void recorder_nests_spans() {
    perfbench::span_recorder rec;
    {
        const perfbench::scoped_span outer(rec, "outer", -1, 7);
        const perfbench::scoped_span inner(rec, "inner", outer.index(), 7);
    }
    const std::vector<perfbench::span> spans = rec.spans();
    check(spans.size() == 2, "two spans recorded");
    check(spans[1].parent == 0 && spans[1].run_id == 7, "inner span keeps parent and run id");
    check(spans[0].end_ms >= spans[1].end_ms && spans[1].start_ms >= spans[0].start_ms,
          "inner span lies within outer span");
}

void digest_is_stable() {
    check(perfbench::fnv1a64("") == 0xcbf29ce484222325ull, "FNV-1a offset basis");
    check(perfbench::hex64(perfbench::fnv1a64("a")) == "af63dc4c8601ec8c", "FNV-1a of 'a'");
    check(perfbench::fnv1a64("ab") == perfbench::fnv1a64("b", perfbench::fnv1a64("a")),
          "chained digest equals digest of the concatenation");
}

}  // namespace

int main() {
    percentile_needs_ten_samples_beyond();
    self_time_subtracts_covered_child_time();
    recorder_nests_spans();
    digest_is_stable();
    if (failures != 0) {
        std::cerr << failures << " self-test check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench self-tests passed\n";
    return 0;
}
