// Tests for the command-line parser used by every bench/example binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/error.h"

namespace reduce {
namespace {

cli_args parse(std::initializer_list<const char*> tokens) {
    std::vector<const char*> argv = {"prog"};
    argv.insert(argv.end(), tokens.begin(), tokens.end());
    return cli_args(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ProgramName) {
    const cli_args args = parse({});
    EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, KeyValueSpaceForm) {
    const cli_args args = parse({"--rate", "0.25"});
    EXPECT_TRUE(args.has("rate"));
    EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.25);
}

TEST(Cli, KeyValueEqualsForm) {
    const cli_args args = parse({"--rate=0.5"});
    EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.5);
}

TEST(Cli, BareFlag) {
    const cli_args args = parse({"--verbose"});
    EXPECT_TRUE(args.get_flag("verbose"));
    EXPECT_FALSE(args.get_flag("quiet"));
}

TEST(Cli, BareStringOptionFallsBackToDefault) {
    // `--out` with no value means "the default path", not an empty one.
    const cli_args args = parse({"--out", "--name=", "--mode"});
    EXPECT_EQ(args.get("out", "BENCH_gemm.json"), "BENCH_gemm.json");
    EXPECT_EQ(args.get("mode", "sweep"), "sweep");
    EXPECT_TRUE(args.has("out"));
    EXPECT_EQ(args.get("name", "worker"), "");  // an explicit empty value stays empty
    EXPECT_TRUE(args.get_flag("out"));
    EXPECT_EQ(parse({"--out", "--out", "x.json"}).get("out", "d"), "x.json");
    EXPECT_EQ(parse({"--out", "x.json", "--out"}).get("out", "d"), "d");
}

TEST(Cli, FlagWithExplicitValue) {
    EXPECT_TRUE(parse({"--x=true"}).get_flag("x"));
    EXPECT_TRUE(parse({"--x=1"}).get_flag("x"));
    EXPECT_TRUE(parse({"--x=yes"}).get_flag("x"));
    EXPECT_FALSE(parse({"--x=0"}).get_flag("x"));
    EXPECT_FALSE(parse({"--x=false"}).get_flag("x"));
}

TEST(Cli, FlagFollowedByFlag) {
    // `--a --b`: a must not swallow b as its value.
    const cli_args args = parse({"--a", "--b"});
    EXPECT_TRUE(args.get_flag("a"));
    EXPECT_TRUE(args.get_flag("b"));
}

TEST(Cli, IntegerOption) {
    const cli_args args = parse({"--chips", "100"});
    EXPECT_EQ(args.get_int("chips", 0), 100);
    EXPECT_EQ(args.get_int("missing", -5), -5);
}

TEST(Cli, BareDoubleDashIsInvalidArgument) {
    EXPECT_THROW(parse({"--"}), invalid_argument_error);
}

TEST(Cli, IntegerRejectsGarbage) {
    const cli_args args = parse({"--chips", "10x", "--empty="});
    EXPECT_THROW(args.get_int("chips", 0), invalid_argument_error);
    EXPECT_THROW(args.get_int("empty", 0), invalid_argument_error);
}

TEST(Cli, IntegerRejectsOutOfRange) {
    // strtoll saturates to LLONG_MAX/LLONG_MIN; a saturated value must not
    // pass as a chip count.
    const cli_args args =
        parse({"--chips", "99999999999999999999", "--offset", "-99999999999999999999",
               "--max", "9223372036854775807"});
    EXPECT_THROW(args.get_int("chips", 0), invalid_argument_error);
    EXPECT_THROW(args.get_int("offset", 0), invalid_argument_error);
    EXPECT_EQ(args.get_int("max", 0), INT64_MAX);
}

TEST(Cli, DoubleRejectsGarbage) {
    const cli_args args = parse({"--rate", "abc"});
    EXPECT_THROW(args.get_double("rate", 0.0), invalid_argument_error);
}

TEST(Cli, DoubleRejectsNonFinite) {
    for (const char* text : {"nan", "inf", "-inf", "1e999", "-1e999"}) {
        const cli_args args = parse({"--rate", text});
        EXPECT_THROW(args.get_double("rate", 0.0), invalid_argument_error) << text;
    }
}

TEST(Cli, DefaultsWhenAbsent) {
    const cli_args args = parse({});
    EXPECT_EQ(args.get("name", "fallback"), "fallback");
    EXPECT_DOUBLE_EQ(args.get_double("rate", 1.5), 1.5);
}

TEST(Cli, Positional) {
    const cli_args args = parse({"input.json", "--k", "v", "more"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "input.json");
    EXPECT_EQ(args.positional()[1], "more");
}

TEST(Cli, DoubleList) {
    const cli_args args = parse({"--rates", "0.0,0.1,0.2"});
    const std::vector<double> rates = args.get_double_list("rates", {});
    ASSERT_EQ(rates.size(), 3u);
    EXPECT_DOUBLE_EQ(rates[1], 0.1);
}

TEST(Cli, DoubleListFallback) {
    const cli_args args = parse({});
    const std::vector<double> rates = args.get_double_list("rates", {1.0, 2.0});
    ASSERT_EQ(rates.size(), 2u);
}

TEST(Cli, DoubleListRejectsBadElement) {
    for (const char* text : {"0.1,zz", "0.1,,0.2", "0.1,nan", "1e999,0.1"}) {
        const cli_args args = parse({"--rates", text});
        EXPECT_THROW(args.get_double_list("rates", {}), invalid_argument_error) << text;
    }
    EXPECT_THROW(parse({"--rates="}).get_double_list("rates", {}), invalid_argument_error);
}

TEST(Cli, StringList) {
    const cli_args args = parse({"--policy", "reduce,fixed,oracle"});
    const std::vector<std::string> names = args.get_string_list("policy", {});
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "reduce");
    EXPECT_EQ(names[2], "oracle");
}

TEST(Cli, StringListFallback) {
    const cli_args args = parse({});
    const std::vector<std::string> names = args.get_string_list("policy", {"reduce"});
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "reduce");
}

TEST(Cli, StringListRejectsEmptyElement) {
    const cli_args args = parse({"--policy", "reduce,,fixed"});
    EXPECT_THROW(args.get_string_list("policy", {}), invalid_argument_error);
    EXPECT_THROW(parse({"--policy="}).get_string_list("policy", {}), invalid_argument_error);
}

TEST(Cli, NegativeNumberAsValue) {
    // A negative value is not an option token (it starts with '-', not '--').
    const cli_args args = parse({"--offset", "-3"});
    EXPECT_EQ(args.get_int("offset", 0), -3);
}

TEST(Cli, LastOccurrenceWins) {
    const cli_args args = parse({"--k", "1", "--k", "2"});
    EXPECT_EQ(args.get_int("k", 0), 2);
}

TEST(Cli, UnreadOptionsAreRejectedByName) {
    // A removed option (here the old Step-1 shard split) must fail loudly,
    // not run the whole job as if it were absent.
    const cli_args args = parse({"--shard", "1/4", "--threads", "2", "--verbose"});
    EXPECT_EQ(args.get_int("threads", 1), 2);
    EXPECT_TRUE(args.get_flag("verbose"));
    try {
        args.reject_unread_options();
        FAIL() << "--shard was never read but passed";
    } catch (const invalid_argument_error& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("--shard"), std::string::npos) << message;
        EXPECT_EQ(message.find("--threads"), std::string::npos) << message;
    }
}

TEST(Cli, EveryReadOptionPassesTheUnreadCheck) {
    // has(), a fallback-taking lookup of an absent name, and every typed
    // accessor count as reads.
    const cli_args args =
        parse({"--threads", "2", "--rates", "0.1,0.2", "--policy", "a,b", "--save"});
    EXPECT_TRUE(args.has("save"));
    (void)args.get_int("threads", 1);
    (void)args.get_double_list("rates", {});
    (void)args.get_string_list("policy", {});
    (void)args.get("missing", "");
    EXPECT_NO_THROW(args.reject_unread_options());
}

}  // namespace
}  // namespace reduce
