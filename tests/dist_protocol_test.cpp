// Tests for the distributed-service wire layer (dist/protocol.h): frame
// encoding/decoding under arbitrary byte fragmentation, protocol-violation
// detection, message builders, the chip_outcome / epoch_allocation JSON
// round-trips the fleet path rides on, and fuzzing of the fault-map codec
// that every fleet lease carries.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dist/chaos.h"
#include "dist/protocol.h"
#include "fault/serialization.h"
#include "fuzz_mutations.h"
#include "util/base64.h"
#include "util/error.h"
#include "util/rng.h"

namespace reduce::dist {
namespace {

json_value parse_one(const std::string& frame) {
    frame_decoder decoder;
    decoder.feed(frame.data(), frame.size());
    std::optional<json_value> message = decoder.next();
    EXPECT_TRUE(message.has_value());
    return *message;
}

TEST(Framing, RoundTripsOneMessage) {
    const json_value original = make_hello("abc123", "worker-0");
    const json_value decoded = parse_one(encode_frame(original));
    EXPECT_EQ(decoded.dump(), original.dump());
    EXPECT_EQ(message_type(decoded), "hello");
}

TEST(Framing, DecodesFramesSplitAtEveryByteBoundary) {
    const std::string frame = encode_frame(make_heartbeat(42));
    for (std::size_t split = 0; split <= frame.size(); ++split) {
        frame_decoder decoder;
        decoder.feed(frame.data(), split);
        if (split < frame.size()) {
            EXPECT_FALSE(decoder.next().has_value()) << "split at " << split;
            decoder.feed(frame.data() + split, frame.size() - split);
        }
        const std::optional<json_value> message = decoder.next();
        ASSERT_TRUE(message.has_value()) << "split at " << split;
        EXPECT_EQ(message_type(*message), "heartbeat");
        EXPECT_EQ(decoder.buffered(), 0u);
    }
}

TEST(Framing, DecodesMultipleFramesFromOneFeed) {
    std::string wire = encode_frame(make_request_work());
    wire += encode_frame(make_heartbeat(7));
    wire += encode_frame(make_shutdown("done"));
    frame_decoder decoder;
    decoder.feed(wire.data(), wire.size());
    EXPECT_EQ(message_type(*decoder.next()), "request_work");
    EXPECT_EQ(message_type(*decoder.next()), "heartbeat");
    EXPECT_EQ(message_type(*decoder.next()), "shutdown");
    EXPECT_FALSE(decoder.next().has_value());
}

TEST(Framing, RejectsZeroLengthFrames) {
    frame_decoder decoder;
    const char zeros[4] = {0, 0, 0, 0};
    decoder.feed(zeros, sizeof zeros);
    EXPECT_THROW((void)decoder.next(), io_error);
}

TEST(Framing, RejectsOversizedLengthPrefixBeforeBuffering) {
    // A garbage length prefix (e.g. the peer is not speaking this protocol
    // at all) must be rejected from the 4-byte header alone, not after
    // waiting for gigabytes that will never come.
    frame_decoder decoder;
    const char huge[4] = {'\x7f', '\x7f', '\x7f', '\x7f'};
    decoder.feed(huge, sizeof huge);
    EXPECT_THROW((void)decoder.next(), io_error);
}

TEST(Framing, RejectsUnparseablePayload) {
    frame_decoder decoder;
    const char frame[] = {0, 0, 0, 4, 'j', 'u', 'n', 'k'};
    decoder.feed(frame, sizeof frame);
    EXPECT_THROW((void)decoder.next(), io_error);
}

TEST(Framing, RejectsNonObjectPayload) {
    frame_decoder decoder;
    const std::string payload = "[1,2,3]";
    std::string frame = {0, 0, 0, static_cast<char>(payload.size())};
    frame += payload;
    decoder.feed(frame.data(), frame.size());
    EXPECT_THROW((void)decoder.next(), io_error);
}

TEST(Framing, RejectsDeeplyNestedPayloadsWithoutCrashing) {
    // 2 MB of '[' fits a frame easily (max_frame_payload is 256 MiB); an
    // unbounded recursive parse would overflow the stack instead of
    // throwing. A well-formed but too-deep object is refused the same way,
    // and the decoder stays usable for the frame after them.
    std::string deep_object;
    for (int i = 0; i < 10000; ++i) { deep_object += "{\"a\":"; }
    deep_object += "1" + std::string(10000, '}');
    for (const std::string& payload : {std::string(2u << 20, '['), deep_object}) {
        std::string frame;
        for (const int shift : {24, 16, 8, 0}) {
            frame.push_back(static_cast<char>((payload.size() >> shift) & 0xff));
        }
        frame += payload;
        frame_decoder decoder;
        decoder.feed(frame.data(), frame.size());
        EXPECT_THROW((void)decoder.next(), io_error) << payload.size() << " bytes";
        const std::string next = encode_frame(make_heartbeat(3));
        decoder.feed(next.data(), next.size());
        EXPECT_EQ(message_type(*decoder.next()), "heartbeat");
    }
}

TEST(Framing, MessageTypeRequiresTypeMember) {
    frame_decoder decoder;
    const std::string payload = "{\"kind\":\"x\"}";
    std::string frame = {0, 0, 0, static_cast<char>(payload.size())};
    frame += payload;
    decoder.feed(frame.data(), frame.size());
    const std::optional<json_value> message = decoder.next();
    ASSERT_TRUE(message.has_value());  // well-formed object...
    EXPECT_THROW((void)message_type(*message), io_error);  // ...but not a message
}

// --- Seeded randomized streams (the chaos scheduler's RNG drives the ---
// --- fragmentation, so every failure reproduces from one seed)       ---

TEST(Framing, DecodesSeededRandomFragmentationWithDuplicates) {
    // A long wire image of many frames — some duplicated, as the chaos
    // proxy's duplicate fault produces — fed to the decoder in random-sized
    // chunks at arbitrary byte boundaries. Every frame must come out intact,
    // in order, exactly as many times as it went in.
    chaos_config cfg;
    cfg.seed = 20230805;
    chaos_schedule schedule(cfg, 0);
    rng& random = schedule.random();

    std::vector<std::string> expected;
    std::string wire;
    for (int i = 0; i < 200; ++i) {
        json_value message;
        switch (random.uniform_index(3)) {
            case 0: message = make_heartbeat(random.next_u64()); break;
            case 1: message = make_sweep_work(random.next_u64(), {1, 2, 3}); break;
            default: message = make_hello("fp", "rand-" + std::to_string(i)); break;
        }
        const std::string frame = encode_frame(message);
        const int copies = random.bernoulli(0.2) ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
            wire += frame;
            expected.push_back(message.dump());
        }
    }

    frame_decoder decoder;
    std::vector<std::string> got;
    std::size_t at = 0;
    while (at < wire.size()) {
        const std::size_t chunk = 1 + static_cast<std::size_t>(random.uniform_index(
                                          std::min<std::uint64_t>(4096, wire.size() - at)));
        decoder.feed(wire.data() + at, chunk);
        at += chunk;
        while (std::optional<json_value> message = decoder.next()) {
            got.push_back(message->dump());
        }
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Framing, GarbledPayloadNeverDecodesToTheOriginal) {
    // One flipped payload byte must surface — either as an io_error (the
    // JSON broke) or as a message with different bytes (a digit flipped to
    // another digit). Silently yielding the original would mean the decoder
    // dropped or masked corruption.
    chaos_config cfg;
    cfg.seed = 99;
    chaos_schedule schedule(cfg, 1);
    const json_value original = make_hello("fingerprint-abc", "garble-target");
    for (int trial = 0; trial < 100; ++trial) {
        std::string frame = encode_frame(original);
        schedule.garble(frame);
        frame_decoder decoder;
        decoder.feed(frame.data(), frame.size());
        try {
            const std::optional<json_value> message = decoder.next();
            ASSERT_TRUE(message.has_value());  // length prefix was untouched
            EXPECT_NE(message->dump(), original.dump()) << "trial " << trial;
        } catch (const io_error&) {
            // Rejected outright — the common case, and always acceptable.
        }
    }
}

TEST(Framing, TruncatedFrameNeverYieldsAMessage) {
    // A frame cut anywhere (the chaos truncate fault: prefix, then the
    // connection dies) must leave the decoder waiting, never emit a partial
    // or fabricated message.
    chaos_config cfg;
    cfg.seed = 7;
    chaos_schedule schedule(cfg, 2);
    const std::string frame = encode_frame(make_shutdown("gone"));
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t keep = schedule.truncate_point(frame.size());
        ASSERT_LT(keep, frame.size());
        frame_decoder decoder;
        decoder.feed(frame.data(), keep);
        EXPECT_FALSE(decoder.next().has_value()) << "kept " << keep;
        EXPECT_EQ(decoder.buffered(), keep);
    }
}

TEST(Messages, SweepWorkCarriesLeaseAsDecimalString) {
    // Lease ids are u64; beyond 2^53 they are not exactly representable as
    // JSON doubles, so they travel as decimal strings.
    const std::uint64_t big = 0xfedcba9876543210ull;
    const json_value work = parse_one(encode_frame(make_sweep_work(big, {3, 1, 4})));
    EXPECT_EQ(work.as_object().at("lease").as_string(), std::to_string(big));
    const json_array& cells = work.as_object().at("cells").as_array();
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0].as_int(), 3);
    EXPECT_EQ(cells[2].as_int(), 4);
}

TEST(Messages, ChipOutcomeRoundTripsExactly) {
    chip_outcome outcome;
    outcome.chip_id = 17;
    outcome.nominal_fault_rate = 0.1234567890123456789;  // full double precision
    outcome.effective_fault_rate = 1.0 / 3.0;
    outcome.masked_weight_fraction = 0.017;
    outcome.epochs_allocated = 2.5;
    outcome.epochs_run = 2.0;
    outcome.accuracy_before = 0.4987654321;
    outcome.final_accuracy = 0.91;
    outcome.meets_constraint = true;
    outcome.selection_failed = false;
    const chip_outcome back = chip_outcome_from_json(chip_outcome_to_json(outcome));
    EXPECT_EQ(back.chip_id, outcome.chip_id);
    EXPECT_EQ(back.nominal_fault_rate, outcome.nominal_fault_rate);
    EXPECT_EQ(back.effective_fault_rate, outcome.effective_fault_rate);
    EXPECT_EQ(back.masked_weight_fraction, outcome.masked_weight_fraction);
    EXPECT_EQ(back.epochs_allocated, outcome.epochs_allocated);
    EXPECT_EQ(back.epochs_run, outcome.epochs_run);
    EXPECT_EQ(back.accuracy_before, outcome.accuracy_before);
    EXPECT_EQ(back.final_accuracy, outcome.final_accuracy);
    EXPECT_EQ(back.meets_constraint, outcome.meets_constraint);
    EXPECT_EQ(back.selection_failed, outcome.selection_failed);
}

TEST(Messages, AllocationRoundTripsExactly) {
    epoch_allocation alloc;
    alloc.epochs = 3.75;
    alloc.selection_failed = true;
    alloc.train_to_target = true;
    const epoch_allocation back = allocation_from_json(allocation_to_json(alloc));
    EXPECT_EQ(back.epochs, alloc.epochs);
    EXPECT_EQ(back.selection_failed, alloc.selection_failed);
    EXPECT_EQ(back.train_to_target, alloc.train_to_target);
}

TEST(Messages, ChipResultSurvivesTheWireWithBinarySnapshot) {
    chip_outcome outcome;
    outcome.chip_id = 3;
    outcome.final_accuracy = 0.875;
    std::string snapshot_bytes;
    for (int i = 0; i < 64; ++i) { snapshot_bytes.push_back(static_cast<char>(i * 7)); }
    const json_value result =
        parse_one(encode_frame(make_chip_result(99, outcome, snapshot_bytes)));
    EXPECT_EQ(message_type(result), "result");
    const json_object& body = result.as_object();
    EXPECT_EQ(body.at("lease").as_string(), "99");
    EXPECT_EQ(chip_outcome_from_json(body.at("outcome")).chip_id, 3u);
    EXPECT_EQ(base64_decode(body.at("snapshot").as_string()), snapshot_bytes);
}

TEST(Messages, ChipWorkWithMalformedFaultMapIsATypedError) {
    // Chip work arrives over the wire: a fault map naming a PE outside its
    // grid must surface as io_error when the worker decodes the chip, not
    // as a bounds check deep inside fault_grid. The map is 4x4 with one
    // bypassed PE at index 23.
    const std::string work =
        "{\"type\": \"work\", \"lease\": \"5\", \"kind\": \"fleet_chip\", "
        "\"chip\": {\"id\": 2, \"seed\": \"9\", \"nominal_fault_rate\": 0.1, "
        "\"fault_map\": \"" +
        base64_encode(std::string("RFM1\x04\x04\x01\x00\x00\x00\x17", 11)) + "\"}}";
    const json_value message = parse_one(encode_frame(json_parse(work)));
    EXPECT_EQ(message_type(message), "work");
    EXPECT_THROW((void)chip_from_json(message.as_object().at("chip")), io_error);
}

TEST(Messages, ChipWorkCarriesTheFaultMapAsBase64CodecBytes) {
    const chip c = make_fleet(array_config{}, fleet_config{.num_chips = 1})[0];
    const json_value work =
        parse_one(encode_frame(make_chip_work(7, c, epoch_allocation{}, 0.9, 0.1)));
    const json_object& body = work.as_object().at("chip").as_object();
    EXPECT_EQ(base64_decode(body.at("fault_map").as_string()), fault_grid_to_bytes(c.faults));
    const chip back = chip_from_json(work.as_object().at("chip"));
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_TRUE(back.faults == c.faults);
}

// --- Fault-map decoder fuzzing: valid encodings of seeded fleet maps,   ---
// --- mutated, truncated, spliced and oversized by the chaos RNG         ---

/// The only acceptable outcomes for any input: a typed io_error, or a grid
/// that re-encodes to exactly the bytes it was decoded from (any other
/// exception escapes and fails the test). Returns whether it was accepted.
bool typed_error_or_exact(const std::string& bytes, const std::string& what) {
    try {
        const fault_grid grid = fault_grid_from_bytes(bytes);
        EXPECT_EQ(fault_grid_to_bytes(grid), bytes) << what;
        return true;
    } catch (const io_error&) {
        return false;
    }
}

TEST(FaultMapFuzz, DecoderYieldsTypedErrorsOrExactRoundTrips) {
    chaos_config cfg;
    cfg.seed = 20261017;
    chaos_schedule schedule(cfg, 3);
    rng& random = schedule.random();

    // Valid seeds for the mutations: seeded fleets at several rates and
    // geometries, up to the 256x256 array in use.
    std::vector<std::string> seeds;
    std::vector<json_object> docs;  // each chip's document, as the worker receives it
    for (const auto& [rows, cols] : std::vector<std::pair<std::size_t, std::size_t>>{
             {1, 1}, {3, 5}, {16, 16}, {64, 64}, {256, 256}}) {
        array_config array;
        array.rows = rows;
        array.cols = cols;
        fleet_config fc;
        fc.num_chips = 3;
        fc.rate_lo = 0.01;
        fc.rate_hi = 0.4;
        fc.seed = rows * 1000 + cols;
        fc.fault_model.kind_mix = rows % 2 == 0 ? fault_kind_mix::random_stuck
                                                : fault_kind_mix::all_bypassed;
        for (const chip& c : make_fleet(array, fc)) {
            seeds.push_back(fault_grid_to_bytes(c.faults));
            docs.push_back(chip_to_json(c).as_object());
        }
    }

    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        const std::size_t pick = random.uniform_index(seeds.size());
        std::string bytes = seeds[pick];
        fuzz::mutate(random, bytes, seeds, [&](std::string& b) {
            // Rewrite the extents with random, mostly huge, varints.
            std::string head = "RFM1";
            for (int i = 0; i < 2; ++i) {
                std::uint64_t v = random.next_u64() >> random.uniform_index(64);
                do {
                    const auto low = static_cast<char>(v & 0x7f);
                    v >>= 7;
                    head.push_back(v != 0 ? static_cast<char>(low | 0x80) : low);
                } while (v != 0);
            }
            b = head + b.substr(std::min<std::size_t>(b.size(), 6));
        });
        const std::string what = "trial " + std::to_string(trial);
        ++(typed_error_or_exact(bytes, what) ? accepted : rejected);

        // The same bytes through the wire path: a chip document as the
        // worker receives it.
        json_object root = docs[pick];
        root.set("fault_map", json_value(base64_encode(bytes)));
        try {
            const chip back = chip_from_json(json_value(std::move(root)));
            EXPECT_EQ(fault_grid_to_bytes(back.faults), bytes) << what;
        } catch (const io_error&) {
        }
    }
    // The mutations must exercise both outcomes, or the test proves little.
    EXPECT_GT(rejected, 1000u);
    EXPECT_GT(accepted, 10u);
}

TEST(Sockets, LoopbackFrameDelivery) {
    tcp_listener listener("127.0.0.1", 0);
    ASSERT_GT(listener.port(), 0);
    tcp_socket client = tcp_socket::connect_to("127.0.0.1", listener.port());
    std::optional<tcp_socket> server;
    for (int i = 0; i < 500 && !server.has_value(); ++i) {
        server = listener.accept_one();
        if (!server.has_value()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    ASSERT_TRUE(server.has_value());

    client.send_all(encode_frame(make_hello("fp", "sock-test")));
    frame_decoder decoder;
    char buf[4096];
    std::optional<json_value> message;
    while (!message.has_value()) {
        const tcp_socket::recv_result r = server->recv_some(buf, sizeof buf);
        ASSERT_FALSE(r.closed);
        if (r.would_block) { continue; }
        decoder.feed(buf, r.bytes);
        message = decoder.next();
    }
    EXPECT_EQ(message_type(*message), "hello");
    EXPECT_EQ(message->as_object().at("name").as_string(), "sock-test");

    // Closing the client surfaces as a clean `closed` on the server side.
    client.close();
    for (;;) {
        const tcp_socket::recv_result r = server->recv_some(buf, sizeof buf);
        if (r.would_block) { continue; }
        EXPECT_TRUE(r.closed);
        break;
    }
}

}  // namespace
}  // namespace reduce::dist
