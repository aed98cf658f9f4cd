// Tests for the stream/byte-buffer snapshot overloads: snapshot_to_bytes
// must produce the exact bytes save_snapshot(path) puts on disk (RDNN1 and
// RDNN2 alike), snapshot_from_bytes must round-trip losslessly, and
// malformed byte buffers must be rejected with io_error — these wrappers
// are how RDNN snapshots cross the distributed service's sockets, so
// file/wire divergence would silently break byte-identity guarantees. A
// seeded fuzz pass pins the decoder contract: any input yields a typed
// error or a snapshot that re-encodes to exactly the bytes it came from.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz_mutations.h"
#include "nn/layers.h"
#include "nn/norm.h"
#include "nn/serialize.h"
#include "util/error.h"
#include "util/rng.h"

namespace reduce {
namespace {

model_snapshot make_param_snapshot() {
    model_snapshot snap;
    snap.names = {"fc1.weight", "fc1.bias"};
    snap.values.emplace_back(shape_t{2, 3},
                             std::vector<float>{0.5f, -1.25f, 3.0f, 0.0f, -0.0f, 42.5f});
    snap.values.emplace_back(shape_t{2}, std::vector<float>{1e-7f, -3.5f});
    return snap;
}

model_snapshot make_stateful_snapshot() {
    model_snapshot snap = make_param_snapshot();
    // Running statistics — the RDNN2 trigger.
    snap.state.emplace_back(shape_t{3}, std::vector<float>{0.1f, 0.2f, 0.3f});
    snap.state.emplace_back(shape_t{3}, std::vector<float>{1.0f, 1.0f, 0.99f});
    return snap;
}

std::string read_file_bytes(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(file.good());
    return std::string(std::istreambuf_iterator<char>(file),
                       std::istreambuf_iterator<char>());
}

void expect_snapshots_equal(const model_snapshot& a, const model_snapshot& b) {
    EXPECT_EQ(a.names, b.names);
    ASSERT_EQ(a.values.size(), b.values.size());
    for (std::size_t i = 0; i < a.values.size(); ++i) {
        EXPECT_TRUE(a.values[i] == b.values[i]) << "param " << i;
    }
    ASSERT_EQ(a.state.size(), b.state.size());
    for (std::size_t i = 0; i < a.state.size(); ++i) {
        EXPECT_TRUE(a.state[i] == b.state[i]) << "state " << i;
    }
}

TEST(SnapshotBytes, MatchFileBytesForBothFormats) {
    for (const bool stateful : {false, true}) {
        const model_snapshot snap =
            stateful ? make_stateful_snapshot() : make_param_snapshot();
        const std::string path = std::string(::testing::TempDir()) + "/snapshot_" +
                                 (stateful ? "rdnn2" : "rdnn1") + ".bin";
        save_snapshot(path, snap);
        const std::string from_file = read_file_bytes(path);
        const std::string from_buffer = snapshot_to_bytes(snap);
        EXPECT_EQ(from_buffer, from_file) << (stateful ? "RDNN2" : "RDNN1");
        // Magic selects the format: RDNN1 without state, RDNN2 with.
        ASSERT_GE(from_buffer.size(), 5u);
        EXPECT_EQ(from_buffer.substr(0, 5), stateful ? "RDNN2" : "RDNN1");
        std::remove(path.c_str());
    }
}

TEST(SnapshotBytes, RoundTripLosslessly) {
    for (const bool stateful : {false, true}) {
        const model_snapshot snap =
            stateful ? make_stateful_snapshot() : make_param_snapshot();
        const model_snapshot back = snapshot_from_bytes(snapshot_to_bytes(snap));
        expect_snapshots_equal(snap, back);
    }
}

TEST(SnapshotBytes, ByteLoadMatchesFileLoad) {
    const model_snapshot snap = make_stateful_snapshot();
    const std::string path = std::string(::testing::TempDir()) + "/snapshot_cross.bin";
    save_snapshot(path, snap);
    expect_snapshots_equal(load_snapshot(path), snapshot_from_bytes(read_file_bytes(path)));
    std::remove(path.c_str());
}

TEST(SnapshotBytes, RejectsGarbageAndTruncation) {
    EXPECT_THROW((void)snapshot_from_bytes(""), io_error);
    EXPECT_THROW((void)snapshot_from_bytes("not a snapshot at all"), io_error);

    const std::string good = snapshot_to_bytes(make_stateful_snapshot());
    // Truncation anywhere — inside the header, a name, or tensor data —
    // must surface as io_error, never as a silent partial snapshot.
    for (const std::size_t keep :
         {std::size_t{4}, std::size_t{8}, std::size_t{16}, good.size() / 2,
          good.size() - 1}) {
        ASSERT_LT(keep, good.size());
        EXPECT_THROW((void)snapshot_from_bytes(good.substr(0, keep)), io_error)
            << "kept " << keep << " of " << good.size() << " bytes";
    }
}

/// An RDNN1 stream holding one parameter "w" whose header claims `extents`,
/// followed by `payload_floats` zero floats (native byte order, as
/// save_snapshot writes).
std::string one_tensor_stream(const std::vector<std::uint64_t>& extents,
                              std::size_t payload_floats) {
    std::string bytes = "RDNN1\n";
    const auto put = [&bytes](const auto value) {
        bytes.append(reinterpret_cast<const char*>(&value), sizeof value);
    };
    put(std::uint64_t{1});
    put(std::uint32_t{1});
    bytes += 'w';
    put(static_cast<std::uint32_t>(extents.size()));
    for (const std::uint64_t e : extents) { put(e); }
    bytes.append(payload_floats * sizeof(float), '\0');
    return bytes;
}

TEST(SnapshotBytes, RejectsOverflowingAndOversizedShapes) {
    // Sanity: the hand-built stream is well formed at an honest shape.
    EXPECT_EQ(snapshot_from_bytes(one_tensor_stream({2, 3}, 6)).values.at(0).numel(), 6u);
    // [2^32, 2^32] wraps size_t to numel() == 0 unless the product is checked.
    const std::uint64_t big = std::uint64_t{1} << 32;
    EXPECT_THROW((void)snapshot_from_bytes(one_tensor_stream({big, big}, 0)), io_error);
    EXPECT_THROW((void)snapshot_from_bytes(one_tensor_stream({big, big, 0}, 0)), io_error);
    // No overflow, but 4 GiB of claimed payload against 24 real bytes: must
    // be refused before the allocation, not after it.
    EXPECT_THROW((void)snapshot_from_bytes(one_tensor_stream({1u << 20, 1u << 10}, 6)),
                 io_error);
}

TEST(SnapshotBytes, RejectsTrailingBytes) {
    // A byte buffer is one whole payload: a valid snapshot with anything
    // after it is a corrupt wire payload, not a snapshot.
    for (const bool stateful : {false, true}) {
        const std::string good =
            snapshot_to_bytes(stateful ? make_stateful_snapshot() : make_param_snapshot());
        EXPECT_THROW((void)snapshot_from_bytes(good + "x"), io_error) << stateful;
        EXPECT_THROW((void)snapshot_from_bytes(good + good), io_error) << stateful;
    }
}

TEST(SnapshotBytes, RejectsCountsTheRemainingBytesCannotHold) {
    // A 14-byte header claiming 2^20 parameters (the sanity bound itself)
    // must be refused from the bytes left — at least 8 per parameter and 4
    // per state buffer — before anything is reserved for the entries.
    const auto header = [](const char* magic, std::initializer_list<std::uint64_t> counts) {
        std::string bytes(magic, 6);
        for (const std::uint64_t c : counts) {
            bytes.append(reinterpret_cast<const char*>(&c), sizeof c);
        }
        return bytes;
    };
    const std::uint64_t bound = std::uint64_t{1} << 20;
    for (const char* magic : {"RDNN1\n", "RDNN2\n"}) {
        try {
            (void)snapshot_from_bytes(header(magic, {bound}));
            ADD_FAILURE() << magic << " header loaded";
        } catch (const io_error& e) {
            EXPECT_NE(std::string(e.what()).find("parameter count 1048576 but only 0 bytes"),
                      std::string::npos)
                << e.what();
        }
    }
    // Zero parameters, then 2^20 state buffers against 8 bytes of payload.
    try {
        (void)snapshot_from_bytes(header("RDNN2\n", {0, bound, 0}));
        ADD_FAILURE() << "state header loaded";
    } catch (const io_error& e) {
        EXPECT_NE(std::string(e.what()).find("state buffer count 1048576 but only 8 bytes"),
                  std::string::npos)
            << e.what();
    }
    // Exactly enough bytes for the claimed minimum still reaches the
    // per-entry decoder, which rejects the truncated entries.
    std::string two = header("RDNN1\n", {2});
    two.append(16, '\0');
    EXPECT_THROW((void)snapshot_from_bytes(two), io_error);
}

TEST(SnapshotBytes, RejectsStateFreeRdnn2) {
    // save_snapshot writes RDNN1 for state-free snapshots, so an RDNN2
    // stream with zero buffers has no canonical writer: accepting it would
    // decode to a snapshot that re-encodes to different bytes.
    std::string bytes = snapshot_to_bytes(make_param_snapshot());
    bytes[4] = '2';
    bytes.append(sizeof(std::uint64_t), '\0');
    EXPECT_THROW((void)snapshot_from_bytes(bytes), io_error);
}

/// The only acceptable outcomes for any input: a typed reduce::error, or a
/// snapshot that re-encodes to exactly the bytes it was decoded from (any
/// other exception escapes and fails the test). Returns whether it was
/// accepted.
bool typed_error_or_exact(const std::string& bytes, const std::string& what) {
    try {
        const model_snapshot snap = snapshot_from_bytes(bytes);
        EXPECT_EQ(snapshot_to_bytes(snap), bytes) << what;
        return true;
    } catch (const error&) {
        return false;
    }
}

TEST(SnapshotFuzz, DecoderYieldsTypedErrorsOrExactRoundTrips) {
    // Valid seeds: parameter-only (RDNN1) and batch-norm (RDNN2) models,
    // plus the hand-built snapshots above.
    rng gen(20261017);
    std::vector<std::string> seeds = {snapshot_to_bytes(make_param_snapshot()),
                                      snapshot_to_bytes(make_stateful_snapshot())};
    {
        sequential mlp;
        mlp.emplace<linear>(6, 5, gen);
        mlp.emplace<relu_layer>();
        mlp.emplace<linear>(5, 3, gen);
        seeds.push_back(snapshot_to_bytes(snapshot_model(mlp)));
        sequential bn;
        bn.emplace<linear>(4, 6, gen);
        bn.emplace<batch_norm1d>(6);
        bn.emplace<relu_layer>();
        bn.emplace<linear>(6, 2, gen);
        seeds.push_back(snapshot_to_bytes(snapshot_model(bn)));
    }
    for (const std::string& seed : seeds) {
        ASSERT_TRUE(typed_error_or_exact(seed, "seed"));
    }

    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        std::string bytes = seeds[gen.uniform_index(seeds.size())];
        fuzz::mutate(gen, bytes, seeds, [&](std::string& b) {
            // Overwrite 8 bytes at a random offset — a count, a name
            // length + rank, or an extent — with a random, mostly huge,
            // value.
            const std::uint64_t v = gen.next_u64() >> gen.uniform_index(64);
            const std::size_t at = gen.uniform_index(b.size());
            b.replace(at, sizeof v, reinterpret_cast<const char*>(&v), sizeof v);
        });
        ++(typed_error_or_exact(bytes, "trial " + std::to_string(trial)) ? accepted
                                                                          : rejected);
    }
    // The mutations must exercise both outcomes, or the test proves little.
    EXPECT_GT(rejected, 1000u);
    EXPECT_GT(accepted, 10u);
}

TEST(SnapshotBytes, EmptySnapshotRoundTrips) {
    const model_snapshot empty;
    const model_snapshot back = snapshot_from_bytes(snapshot_to_bytes(empty));
    EXPECT_EQ(back.size(), 0u);
    EXPECT_TRUE(back.state.empty());
}

}  // namespace
}  // namespace reduce
