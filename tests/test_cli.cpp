/**
 * @file
 * Unit tests for the shared bbb::cli command line: the Args cursor every
 * driver parses argv with, and the value parsers behind it.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/cli.hh"
#include "power/power_scheduler.hh"
#include "sim/config.hh"

using namespace bbb;

namespace
{

/** Build a mutable argv from string literals (argv[0] is the binary). */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : _strings(std::move(args))
    {
        _strings.insert(_strings.begin(), "test-binary");
        for (std::string &s : _strings)
            _ptrs.push_back(s.data());
    }

    int argc() const { return static_cast<int>(_ptrs.size()); }
    char **argv() { return _ptrs.data(); }

  private:
    std::vector<std::string> _strings;
    std::vector<char *> _ptrs;
};

/** What a driver-style loop over --json/--jobs/--fast read. */
struct Parsed
{
    std::string json;
    unsigned jobs = 0;
    bool fast = false;
    std::vector<std::string> positionals;
};

/** Parse @p words the way every driver does: one Args pass. */
Parsed
parse(std::vector<std::string> words)
{
    Argv a(std::move(words));
    Parsed p;
    cli::Args args(a.argc(), a.argv(), "usage: test-binary");
    while (args.next()) {
        if (args.is("--json"))
            p.json = args.value();
        else if (args.is("--jobs"))
            p.jobs = args.jobsValue();
        else if (args.is("--fast"))
            p.fast = true;
        else if (args.positional())
            p.positionals.push_back(args.value());
        else
            args.unknown();
    }
    return p;
}

/** The value of the last flag in @p words, read as a name of E. */
template <class E>
E
readEnum(std::vector<std::string> words)
{
    Argv a(std::move(words));
    cli::Args args(a.argc(), a.argv(), "usage: test-binary");
    E e{};
    while (args.next())
        e = args.enumValue<E>();
    return e;
}

} // namespace

TEST(CliArgs, LastOccurrenceWins)
{
    Parsed p = parse({"--json", "first.json", "--jobs", "2", "--json",
                      "second.json", "--jobs", "4"});
    EXPECT_EQ(p.json, "second.json");
    EXPECT_EQ(p.jobs, 4u);
}

TEST(CliArgs, ReadsFlagsAndValuesInOrder)
{
    Parsed p = parse({"--fast", "--json", "out.json", "--jobs", "0"});
    EXPECT_TRUE(p.fast);
    EXPECT_EQ(p.json, "out.json");
    EXPECT_EQ(p.jobs, 0u);
    // A flag's value is consumed even when it looks like a flag.
    EXPECT_EQ(parse({"--json", "--fast"}).json, "--fast");
    EXPECT_FALSE(parse({"--json", "--fast"}).fast);
}

TEST(CliArgs, PositionalIsHandedBackToTheDriver)
{
    Parsed p = parse({"fig7", "--fast", "table7"});
    EXPECT_EQ(p.positionals, (std::vector<std::string>{"fig7", "table7"}));
    EXPECT_TRUE(p.fast);
}

// Strict argument handling is no longer a mode behind --strict-args: every
// driver's Args cursor is strict, so a trailing flag is always fatal.
TEST(CliDeath, StrictArgsMakesTrailingFlagFatal)
{
    EXPECT_EXIT(parse({"--json", "out.json", "--json"}),
                ::testing::ExitedWithCode(2),
                "error: --json \\(argument 3\\): requires a value");
}

TEST(CliDeath, StrictArgsAppliesToAnyStringFlag)
{
    EXPECT_EXIT(parse({"--fast", "--jobs"}), ::testing::ExitedWithCode(2),
                "error: --jobs \\(argument 2\\): requires a value");
}

TEST(CliArgsDeath, UnknownFlagExitsNamingItAndItsPosition)
{
    EXPECT_EXIT(parse({"--fast", "--fsat"}), ::testing::ExitedWithCode(2),
                "error: --fsat \\(argument 2\\): unknown flag\nusage: "
                "test-binary");
}

TEST(CliArgsDeath, MalformedJobsExits)
{
    for (const char *bad : {"abc", "-1", "3x", "1000000000"}) {
        EXPECT_EXIT(parse({"--jobs", bad}), ::testing::ExitedWithCode(2),
                    "error: --jobs \\(argument 1\\) expects an unsigned "
                    "integer")
            << bad;
    }
}

TEST(Cli, NumericArgsAcceptWellFormedValuesInRange)
{
    EXPECT_EQ(cli::unsignedArg("--ops", "0"), 0u);
    EXPECT_EQ(cli::unsignedArg("--ops", "18446744073709551615"),
              UINT64_MAX);
    EXPECT_EQ(cli::unsignedArg("--entries", "1", 1, UINT32_MAX), 1u);
    EXPECT_DOUBLE_EQ(cli::positiveReal("--threshold", "0.25", 1.0), 0.25);
    EXPECT_DOUBLE_EQ(cli::positiveReal("--threshold", "1", 1.0), 1.0);
}

TEST(CliDeath, UnsignedArgRejectsMalformedValues)
{
    for (const char *bad :
         {"abc", "5x", "", "-1", "+5", " 5", "18446744073709551616"}) {
        EXPECT_EXIT(cli::unsignedArg("--ops", bad),
                    ::testing::ExitedWithCode(2),
                    "error: --ops expects an unsigned integer")
            << bad;
    }
}

TEST(CliDeath, UnsignedArgEnforcesItsRange)
{
    EXPECT_EXIT(cli::unsignedArg("--entries", "0", 1, UINT32_MAX),
                ::testing::ExitedWithCode(2),
                "error: --entries expects an unsigned integer in "
                "\\[1, 4294967295\\], got '0'");
    EXPECT_EXIT(cli::unsignedArg("--entries", "4294967296", 1, UINT32_MAX),
                ::testing::ExitedWithCode(2), "error: --entries expects");
    EXPECT_EXIT(cli::unsignedArg("--rounds", "0", 1),
                ::testing::ExitedWithCode(2),
                "error: --rounds expects an unsigned integer of at least 1");
}

TEST(CliDeath, BoundedPositiveRealRejectsOutsideZeroToOne)
{
    for (const char *bad : {"0", "1.5", "-0.5", "abc", "0.5x", "nan", ""}) {
        EXPECT_EXIT(cli::positiveReal("--threshold", bad, 1.0),
                    ::testing::ExitedWithCode(2),
                    "error: --threshold expects a real in \\(0, 1\\]")
            << bad;
    }
}

TEST(CliOnOff, ParsesSpellings)
{
    EXPECT_TRUE(cli::onOff("--por", "on"));
    EXPECT_FALSE(cli::onOff("--por", "off"));
    EXPECT_TRUE(cli::onOff("--por", "1"));
    EXPECT_FALSE(cli::onOff("--por", "0"));
    EXPECT_TRUE(cli::onOff("--por", "true"));
    EXPECT_FALSE(cli::onOff("--por", "false"));
}

TEST(CliOnOffDeath, RejectsMalformed)
{
    for (const char *bad : {"maybe", "", "ON"}) {
        EXPECT_EXIT(cli::onOff("--por", bad), ::testing::ExitedWithCode(2),
                    "error: --por expects on\\|off")
            << bad;
    }
}

TEST(CliEnumValue, ReadsOneNameOrAList)
{
    EXPECT_EQ(readEnum<DrainPolicy>({"--policy", "lrw"}), DrainPolicy::Lrw);
    EXPECT_EQ(readEnum<MediaKind>({"--media", "ftl"}), MediaKind::Ftl);

    Argv a({"--modes", "eadr,,pmem-strict"});
    cli::Args args(a.argc(), a.argv(), "usage: test-binary");
    ASSERT_TRUE(args.next());
    EXPECT_EQ(args.enumListValue<PersistMode>(),
              (std::vector<PersistMode>{PersistMode::Eadr,
                                        PersistMode::PmemStrict}));
}

TEST(CliEnumValueDeath, BadNameExitsNamingItsArgument)
{
    EXPECT_EXIT(
        readEnum<DrainPolicy>({"--policy", "lrw", "--policy", "bogus"}),
        ::testing::ExitedWithCode(2),
        "error: --policy \\(argument 3\\): unknown drain policy "
        "'bogus'\nusage: test-binary");
    EXPECT_EXIT(
        {
            Argv a({"--policies", "none,bogus"});
            cli::Args args(a.argc(), a.argv(), "usage: test-binary");
            args.next();
            args.enumListValue<DegradePolicy>();
        },
        ::testing::ExitedWithCode(2),
        "error: --policies \\(argument 1\\): unknown degrade policy "
        "'bogus'");
}
