// micro_gemm — GEMM micro-benchmark and kernel correctness gate.
//
// Times the blocked matmul family (tensor/gemm.h) against the seed ikj/dot
// kernels it replaced, verifies both against a double-precision reference,
// and emits BENCH_gemm.json — the perf-trajectory artifact future PRs
// report against. The process exits non-zero on any kernel-vs-reference
// MISMATCH and never on timing, so CI can gate on correctness without
// flaking on noise.
//
// Options:
//   --out PATH     JSON output path              (default BENCH_gemm.json)
//   --min-ms X     min measured ms per sample    (default 100)
//   --samples N    timing samples (best-of)      (default 3)
//
// Self-contained binary (no Google Benchmark): the Release perf smoke job
// runs it on machines without the benchmark library.

#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace reduce;

namespace {

// ---- the seed kernels (pre-blocked baseline), kept verbatim for the
// ---- speedup denominator ---------------------------------------------------

tensor seed_matmul(const tensor& a, const tensor& b) {
    const std::size_t m = a.extent(0);
    const std::size_t k = a.extent(1);
    const std::size_t n = b.extent(1);
    tensor c({m, n});
    const float* pa = a.raw();
    const float* pb = b.raw();
    float* pc = c.raw();
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t p = 0; p < k; ++p) {
            const float aip = pa[i * k + p];
            if (aip == 0.0f) { continue; }
            const float* brow = pb + p * n;
            float* crow = pc + i * n;
            for (std::size_t j = 0; j < n; ++j) { crow[j] += aip * brow[j]; }
        }
    }
    return c;
}

tensor seed_matmul_nt(const tensor& a, const tensor& b) {
    const std::size_t m = a.extent(0);
    const std::size_t k = a.extent(1);
    const std::size_t n = b.extent(0);
    tensor c({m, n});
    const float* pa = a.raw();
    const float* pb = b.raw();
    float* pc = c.raw();
    for (std::size_t i = 0; i < m; ++i) {
        const float* arow = pa + i * k;
        for (std::size_t j = 0; j < n; ++j) {
            const float* brow = pb + j * k;
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p) { acc += arow[p] * brow[p]; }
            pc[i * n + j] = acc;
        }
    }
    return c;
}

tensor seed_matmul_tn(const tensor& a, const tensor& b) {
    const std::size_t k = a.extent(0);
    const std::size_t m = a.extent(1);
    const std::size_t n = b.extent(1);
    tensor c({m, n});
    const float* pa = a.raw();
    const float* pb = b.raw();
    float* pc = c.raw();
    for (std::size_t p = 0; p < k; ++p) {
        const float* arow = pa + p * m;
        const float* brow = pb + p * n;
        for (std::size_t i = 0; i < m; ++i) {
            const float aip = arow[i];
            if (aip == 0.0f) { continue; }
            float* crow = pc + i * n;
            for (std::size_t j = 0; j < n; ++j) { crow[j] += aip * brow[j]; }
        }
    }
    return c;
}

// ---- double-precision reference for the correctness gate -------------------

std::vector<double> reference(const std::string& op, const tensor& a, const tensor& b,
                              std::size_t m, std::size_t k, std::size_t n) {
    std::vector<double> c(m * n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p) {
                double av = 0.0;
                double bv = 0.0;
                if (op == "nn") {
                    av = a.raw()[i * k + p];
                    bv = b.raw()[p * n + j];
                } else if (op == "nt") {
                    av = a.raw()[i * k + p];
                    bv = b.raw()[j * k + p];
                } else {  // tn
                    av = a.raw()[p * m + i];
                    bv = b.raw()[p * n + j];
                }
                acc += av * bv;
            }
            c[i * n + j] = acc;
        }
    }
    return c;
}

bool verify(const tensor& got, const std::vector<double>& want, std::size_t k,
            const std::string& label) {
    double scale = 1.0;
    for (const double v : want) { scale = std::max(scale, std::abs(v)); }
    // Order-of-summation rounding grows ~ k·eps·scale; a 1e-4 relative band
    // is orders of magnitude above that and orders below any real bug.
    const double tol = std::max(1e-5, 1e-4 * scale) + 1e-6 * static_cast<double>(k);
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (std::abs(static_cast<double>(got.raw()[i]) - want[i]) > tol) {
            std::cerr << "MISMATCH " << label << " at flat index " << i << ": got "
                      << got.raw()[i] << ", want " << want[i] << " (tol " << tol << ")\n";
            return false;
        }
    }
    return true;
}

// ---- timing -----------------------------------------------------------------

template <typename Fn>
double best_ms_per_call(Fn&& fn, double min_ms, std::size_t samples) {
    fn();  // warm caches and the workspace arena
    std::size_t reps = 1;
    for (;;) {
        stopwatch t;
        for (std::size_t r = 0; r < reps; ++r) { fn(); }
        const double ms = t.milliseconds();
        if (ms >= min_ms || reps > (1u << 20)) { break; }
        const double grow = ms > 0.0 ? std::min(10.0, 1.25 * min_ms / ms) : 10.0;
        reps = std::max(reps + 1, static_cast<std::size_t>(static_cast<double>(reps) * grow));
    }
    double best = 1e300;
    for (std::size_t s = 0; s < samples; ++s) {
        stopwatch t;
        for (std::size_t r = 0; r < reps; ++r) { fn(); }
        best = std::min(best, t.milliseconds() / static_cast<double>(reps));
    }
    return best;
}

struct gemm_case {
    std::string op;  // nn | nt | tn
    std::size_t m, k, n;
    const char* note;
};

}  // namespace

int main(int argc, char** argv) {
    try {
        const cli_args args(argc, argv);
        const std::string out_path = args.get("out", "BENCH_gemm.json");
        const double min_ms = args.get_double("min-ms", 100.0);
        const std::size_t samples = static_cast<std::size_t>(args.get_int("samples", 3));
        args.reject_unread_options();

        const std::vector<gemm_case> cases = {
            {"nn", 64, 64, 64, "small square"},
            {"nn", 256, 256, 256, "acceptance shape"},
            {"nn", 32, 288, 1024, "conv-lowered layer (O x patch x N*oh*ow)"},
            {"nt", 256, 256, 256, "linear forward"},
            {"nt", 256, 512, 10, "classifier head"},
            {"tn", 256, 256, 256, "weight gradient"},
            {"tn", 32, 288, 1024, "conv dX (patch x cols)"},
        };

        bool all_ok = true;
        double speedup_256 = 0.0;
        json_array case_json;
        rng gen(20230731);

        for (const gemm_case& c : cases) {
            // Operand layouts per op: nn a[m,k] b[k,n]; nt a[m,k] b[n,k];
            // tn a[k,m] b[k,n].
            tensor a(c.op == "tn" ? shape_t{c.k, c.m} : shape_t{c.m, c.k});
            tensor b(c.op == "nt" ? shape_t{c.n, c.k} : shape_t{c.k, c.n});
            uniform_init(a, -1.0f, 1.0f, gen);
            uniform_init(b, -1.0f, 1.0f, gen);

            const auto run_seed = [&]() {
                if (c.op == "nn") { return seed_matmul(a, b); }
                if (c.op == "nt") { return seed_matmul_nt(a, b); }
                return seed_matmul_tn(a, b);
            };
            const auto run_blocked = [&]() {
                if (c.op == "nn") { return matmul(a, b); }
                if (c.op == "nt") { return matmul_nt(a, b); }
                return matmul_tn(a, b);
            };

            const std::vector<double> ref = reference(c.op, a, b, c.m, c.k, c.n);
            const std::string label =
                c.op + " " + std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
                std::to_string(c.n);
            const bool seed_ok = verify(run_seed(), ref, c.k, "seed " + label);
            const bool blocked_ok = verify(run_blocked(), ref, c.k, "blocked " + label);
            all_ok = all_ok && seed_ok && blocked_ok;

            const double seed_ms = best_ms_per_call([&]() { (void)run_seed(); }, min_ms, samples);
            const double blocked_ms =
                best_ms_per_call([&]() { (void)run_blocked(); }, min_ms, samples);
            const double speedup = seed_ms / blocked_ms;
            const double gflops = 2.0 * static_cast<double>(c.m) * static_cast<double>(c.k) *
                                  static_cast<double>(c.n) / (blocked_ms * 1e6);
            if (c.op == "nn" && c.m == 256 && c.k == 256 && c.n == 256) {
                speedup_256 = speedup;
            }

            std::cout << label << "  seed " << seed_ms << " ms, blocked " << blocked_ms
                      << " ms  → " << speedup << "x  (" << gflops << " GFLOP/s, " << c.note
                      << (seed_ok && blocked_ok ? ")" : ")  *** MISMATCH ***") << '\n';

            json_object entry;
            entry.set("op", json_value(c.op));
            entry.set("m", json_value(c.m));
            entry.set("k", json_value(c.k));
            entry.set("n", json_value(c.n));
            entry.set("note", json_value(std::string(c.note)));
            entry.set("seed_ms", json_value(seed_ms));
            entry.set("blocked_ms", json_value(blocked_ms));
            entry.set("speedup", json_value(speedup));
            entry.set("blocked_gflops", json_value(gflops));
            entry.set("verified", json_value(seed_ok && blocked_ok));
            case_json.push_back(json_value(std::move(entry)));
        }

        json_object root;
        root.set("bench", json_value("micro_gemm"));
        root.set("schema_version", json_value(1));
#ifdef REDUCE_NATIVE
        root.set("march_native", json_value(true));
#else
        root.set("march_native", json_value(false));
#endif
        root.set("min_ms_per_sample", json_value(min_ms));
        root.set("samples", json_value(samples));
        root.set("gemm_256_speedup", json_value(speedup_256));
        root.set("cases", json_value(std::move(case_json)));
        json_save_file(out_path, json_value(std::move(root)));
        std::cout << "wrote " << out_path << " (256^3 speedup " << speedup_256 << "x)\n";

        if (!all_ok) {
            std::cerr << "error: kernel output mismatch against reference\n";
            return 1;
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
