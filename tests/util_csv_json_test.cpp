// Tests for the CSV table writer and the JSON document model used to
// persist fault maps and resilience tables.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/resilience.h"
#include "dist/protocol.h"
#include "fault/chip.h"
#include "fault/models.h"
#include "fuzz_mutations.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"

namespace reduce {
namespace {

TEST(CsvTable, HeaderAndRows) {
    csv_table t({"a", "b"});
    t.add_row({std::string("x"), 1.5});
    t.add_row({std::string("y"), 2.0});
    std::ostringstream oss;
    t.set_precision(2);
    t.write(oss);
    EXPECT_EQ(oss.str(), "a,b\nx,1.50\ny,2.00\n");
}

TEST(CsvTable, IntegerCells) {
    csv_table t({"n"});
    t.add_row({static_cast<long long>(42)});
    std::ostringstream oss;
    t.write(oss);
    EXPECT_EQ(oss.str(), "n\n42\n");
}

TEST(CsvTable, EscapesSpecialCharacters) {
    csv_table t({"text"});
    t.add_row({std::string("hello, \"world\"")});
    std::ostringstream oss;
    t.write(oss);
    EXPECT_EQ(oss.str(), "text\n\"hello, \"\"world\"\"\"\n");
}

TEST(CsvTable, RejectsWrongArity) {
    csv_table t({"a", "b"});
    EXPECT_THROW(t.add_row({std::string("only one")}), error);
}

TEST(CsvTable, RejectsEmptyColumns) {
    EXPECT_THROW(csv_table({}), error);
}

TEST(CsvTable, PrettyAlignsColumns) {
    csv_table t({"name", "v"});
    t.add_row({std::string("long-name"), 1.0});
    std::ostringstream oss;
    t.write_pretty(oss);
    EXPECT_NE(oss.str().find("long-name"), std::string::npos);
}

TEST(CsvTable, SaveAndReadBack) {
    csv_table t({"k", "v"});
    t.add_row({std::string("a"), 3.25});
    const std::string path = testing::TempDir() + "reduce_csv_test.csv";
    t.save(path);
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "k,v");
    std::remove(path.c_str());
}

TEST(Json, ScalarRoundTrips) {
    EXPECT_EQ(json_parse("42").as_int(), 42);
    EXPECT_DOUBLE_EQ(json_parse("-2.5e1").as_number(), -25.0);
    EXPECT_TRUE(json_parse("true").as_bool());
    EXPECT_FALSE(json_parse("false").as_bool());
    EXPECT_TRUE(json_parse("null").is_null());
    EXPECT_EQ(json_parse("\"hi\\n\"").as_string(), "hi\n");
}

TEST(Json, ArrayRoundTrip) {
    const json_value v = json_parse("[1, 2, 3]");
    ASSERT_TRUE(v.is_array());
    ASSERT_EQ(v.as_array().size(), 3u);
    EXPECT_EQ(v.as_array()[2].as_int(), 3);
}

TEST(Json, ObjectPreservesInsertionOrder) {
    json_object obj;
    obj.set("zeta", json_value(1));
    obj.set("alpha", json_value(2));
    obj.set("mid", json_value(3));
    const json_value v(std::move(obj));
    const std::string out = v.dump();
    EXPECT_LT(out.find("zeta"), out.find("alpha"));
    EXPECT_LT(out.find("alpha"), out.find("mid"));
}

TEST(Json, ObjectOverwriteKeepsPosition) {
    json_object obj;
    obj.set("a", json_value(1));
    obj.set("b", json_value(2));
    obj.set("a", json_value(99));
    EXPECT_EQ(obj.size(), 2u);
    EXPECT_EQ(obj.at("a").as_int(), 99);
}

TEST(Json, OverwritingACopyLeavesTheOriginal) {
    json_object original;
    original.set("a", json_value(1));
    json_object copy = original;
    copy.set("a", json_value(2));
    EXPECT_EQ(original.at("a").as_int(), 1);
    EXPECT_EQ(copy.at("a").as_int(), 2);
}

TEST(Json, NestedDocumentRoundTrip) {
    const std::string doc =
        R"({"rows": 4, "faults": [{"r": 0, "c": 1, "kind": "bypassed"}], "ok": true})";
    const json_value v = json_parse(doc);
    const json_value reparsed = json_parse(v.dump());
    EXPECT_EQ(reparsed.as_object().at("rows").as_int(), 4);
    EXPECT_EQ(reparsed.as_object().at("faults").as_array()[0].as_object().at("kind").as_string(),
              "bypassed");
    EXPECT_TRUE(reparsed.as_object().at("ok").as_bool());
}

TEST(Json, PrettyPrintParses) {
    json_object obj;
    obj.set("x", json_value(json_array{json_value(1), json_value(2)}));
    const json_value v(std::move(obj));
    const json_value back = json_parse(v.dump(2));
    EXPECT_EQ(back.as_object().at("x").as_array()[1].as_int(), 2);
}

TEST(Json, StringEscapes) {
    json_value v(std::string("a\"b\\c\td"));
    EXPECT_EQ(json_parse(v.dump()).as_string(), "a\"b\\c\td");
}

TEST(Json, UnicodeEscapeAscii) {
    EXPECT_EQ(json_parse("\"\\u0041\"").as_string(), "A");
}

TEST(Json, MalformedInputsThrow) {
    EXPECT_THROW(json_parse(""), error);
    EXPECT_THROW(json_parse("{"), error);
    EXPECT_THROW(json_parse("[1,]"), error);
    EXPECT_THROW(json_parse("{\"a\" 1}"), error);
    EXPECT_THROW(json_parse("tru"), error);
    EXPECT_THROW(json_parse("1 2"), error);
    EXPECT_THROW(json_parse("\"unterminated"), error);
}

TEST(Json, NestingDepthIsBounded) {
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW(json_parse(nested(json_max_depth)));
    EXPECT_THROW(json_parse(nested(json_max_depth + 1)), io_error);
    // Objects and arrays share one depth budget.
    std::string mixed;
    for (std::size_t i = 0; i <= json_max_depth; ++i) {
        mixed += i % 2 == 0 ? "[" : "{\"k\":";
    }
    EXPECT_THROW(json_parse(mixed), io_error);
    // Far past the bound (and unterminated): a typed error, not a stack
    // overflow.
    EXPECT_THROW(json_parse(std::string(2u << 20, '[')), io_error);
}

TEST(Json, TypeMismatchThrows) {
    const json_value v = json_parse("3");
    EXPECT_THROW(v.as_string(), error);
    EXPECT_THROW(v.as_array(), error);
    EXPECT_THROW(v.as_object(), error);
    EXPECT_THROW(v.as_bool(), error);
}

TEST(Json, AsIntRejectsFractionalAndOutOfRange) {
    EXPECT_THROW(json_parse("2.5").as_int(), io_error);
    EXPECT_THROW(json_parse("1e999").as_int(), io_error);
    EXPECT_THROW(json_parse("9223372036854775808").as_int(), io_error);
    EXPECT_EQ(json_parse("-9007199254740992").as_int(), -9007199254740992LL);
}

TEST(Json, MissingKeyThrows) {
    const json_value v = json_parse("{\"a\": 1}");
    EXPECT_THROW(v.as_object().at("b"), error);
}

TEST(Json, FileRoundTrip) {
    json_object obj;
    obj.set("answer", json_value(42));
    const std::string path = testing::TempDir() + "reduce_json_test.json";
    json_save_file(path, json_value(std::move(obj)));
    const json_value back = json_load_file(path);
    EXPECT_EQ(back.as_object().at("answer").as_int(), 42);
    std::remove(path.c_str());
    EXPECT_THROW(json_load_file(path), error);
}

TEST(Json, LargeNumbersSurvive) {
    const double x = 123456789.123456;
    json_value v(x);
    EXPECT_NEAR(json_parse(v.dump()).as_number(), x, 1e-6);
}

TEST(Json, EqualityIsDeepAndStructural) {
    const json_value a = json_parse(R"({"x": [1, 2, {"y": "z"}], "n": null, "b": true})");
    const json_value b = json_parse(R"({"x": [1, 2, {"y": "z"}], "n": null, "b": true})");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, json_parse(a.dump()));  // round-trip preserves equality
}

TEST(Json, EqualityDetectsDeepDifferences) {
    const json_value base = json_parse(R"({"x": [1, 2], "s": "hi"})");
    EXPECT_NE(base, json_parse(R"({"x": [1, 3], "s": "hi"})"));   // number deep in array
    EXPECT_NE(base, json_parse(R"({"x": [1, 2], "s": "ho"})"));   // string
    EXPECT_NE(base, json_parse(R"({"x": [1, 2, 3], "s": "hi"})"));  // arity
    EXPECT_NE(base, json_parse(R"({"x": [1, 2]})"));              // missing key
    EXPECT_NE(json_value(1.0), json_value(true));                 // type mismatch
    EXPECT_NE(json_value(nullptr), json_value(0.0));
}

TEST(Json, EqualityIsInsertionOrderSensitive) {
    // Matches the serializer: equal documents dump identically, so objects
    // with reordered members must compare unequal.
    json_object ab;
    ab.set("a", json_value(1.0));
    ab.set("b", json_value(2.0));
    json_object ba;
    ba.set("b", json_value(2.0));
    ba.set("a", json_value(1.0));
    EXPECT_NE(json_value(ab), json_value(ba));
    EXPECT_NE(json_value(ab).dump(), json_value(ba).dump());
}

TEST(Json, OverflowIsRejectedAndDenormalsRoundTrip) {
    // An overflowing literal parses to inf, which dump() would write as the
    // non-JSON token "inf": reject it at parse time instead.
    EXPECT_THROW(json_parse("1e999"), io_error);
    EXPECT_THROW(json_parse("-1e999"), io_error);
    EXPECT_THROW(json_parse(R"({"a":1e400})"), io_error);
    // Denormals are finite (strtod may still flag ERANGE) and must survive.
    for (const char* text : {"4.9e-324", "1e-310", "-2.2e-308"}) {
        const json_value v = json_parse(text);
        EXPECT_NE(v.as_number(), 0.0) << text;
        EXPECT_EQ(json_parse(v.dump()).dump(), v.dump()) << text;
    }
}

TEST(JsonFuzz, ParserYieldsTypedErrorsOrDumpFixedPoints) {
    // Seeds: a chip work lease (with its binary fault map), a sweep result
    // and the Step-1 table it carries.
    array_config array;
    array.rows = 8;
    array.cols = 8;
    random_fault_config faults;
    faults.fault_rate = 0.2;
    const chip c{3, 99, 0.2, generate_random_faults(array, faults, 99)};
    epoch_allocation alloc;
    alloc.epochs = 1.25;
    resilience_run run_a{0.1, 0, 11, 0.0931, {{0.0, 0.62}, {0.5, 0.8875}, {1.0, 0.91}}};
    resilience_run run_b{0.3, 1, 12, 0.2874, {{0.0, 0.31}, {0.5, 0.7}, {1.0, 0.8333}}};
    const json_value table =
        resilience_table({run_a, run_b}, 1.0, "fingerprint-v1", 2).to_json();
    const std::vector<std::string> seeds = {
        dist::make_chip_work(7, c, alloc, 0.91, 0.1875).dump(),
        dist::make_sweep_result(8, table).dump(), table.dump()};
    // Extreme numbers for the oversize mutation: overflowing, largest
    // finite, denormal, negative zero, integers past 2^64.
    const std::vector<std::string> extremes = {
        "1e999", "-1e999",   "1e400", "1.7976931348623157e308", "4.9e-324",
        "1e-310", "-0", "0.1", "18446744073709551616", "123456789012345678901234567890"};

    rng random(20261018);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        std::string text = seeds[random.uniform_index(seeds.size())];
        fuzz::mutate(random, text, seeds, [&](std::string& t) {
            // Swap one number for an extreme one.
            const auto in = [](std::string_view set, char ch) {
                return set.find(ch) != std::string_view::npos;
            };
            std::vector<std::size_t> numbers;
            for (std::size_t i = 1; i < t.size(); ++i) {
                if (in(":[,", t[i - 1]) && in("-0123456789", t[i])) { numbers.push_back(i); }
            }
            const std::size_t at = numbers[random.uniform_index(numbers.size())];
            t.replace(at, t.find_first_of(",]}", at) - at,
                      extremes[random.uniform_index(extremes.size())]);
        });
        json_value value;
        try {
            value = json_parse(text);
        } catch (const io_error&) {
            ++rejected;
            continue;
        }
        const std::string once = value.dump();
        try {
            EXPECT_EQ(json_parse(once).dump(), once) << "trial " << trial;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "trial " << trial << ": the dump does not parse: " << e.what()
                          << "\n" << once;
        }
        ++accepted;
    }
    // The mutations must exercise both outcomes, or the test proves little.
    EXPECT_GT(rejected, 500u);
    EXPECT_GT(accepted, 300u);
}

}  // namespace
}  // namespace reduce
