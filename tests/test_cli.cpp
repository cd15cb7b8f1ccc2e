/**
 * @file
 * Unit tests for the shared bbb::cli argument helpers, in particular
 * the `--strict-args` hard-error mode the campaign drivers pass.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "api/cli.hh"

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

} // namespace

TEST(Cli, StringOptLastOccurrenceWins)
{
    Argv a({"--json", "first.json", "--json", "second.json"});
    EXPECT_EQ(cli::stringOpt(a.argc(), a.argv(), "--json"), "second.json");
}

TEST(Cli, TrailingFlagWarnsAndKeepsPreviousValue)
{
    Argv a({"--json", "kept.json", "--json"});
    EXPECT_EQ(cli::stringOpt(a.argc(), a.argv(), "--json"), "kept.json");
}

TEST(Cli, StrictArgsFlagDetected)
{
    Argv with({"--strict-args"});
    Argv without({"--fast"});
    EXPECT_TRUE(cli::strictArgs(with.argc(), with.argv()));
    EXPECT_FALSE(cli::strictArgs(without.argc(), without.argv()));
}

TEST(Cli, StrictArgsAcceptsWellFormedFlags)
{
    Argv a({"--strict-args", "--json", "out.json", "--jobs", "4"});
    EXPECT_EQ(cli::stringOpt(a.argc(), a.argv(), "--json"), "out.json");
    EXPECT_EQ(cli::jobsArg(a.argc(), a.argv()), 4u);
}

TEST(CliDeath, StrictArgsMakesTrailingFlagFatal)
{
    Argv a({"--strict-args", "--json"});
    EXPECT_EXIT(cli::stringOpt(a.argc(), a.argv(), "--json"),
                ::testing::ExitedWithCode(2), "--json requires a value");
}

TEST(CliDeath, StrictArgsAppliesToAnyStringFlag)
{
    Argv a({"--strict-args", "--workloads"});
    EXPECT_EXIT(cli::stringOpt(a.argc(), a.argv(), "--workloads"),
                ::testing::ExitedWithCode(2),
                "--workloads requires a value");
}

TEST(Cli, MalformedJobsWarnsAndUsesAllThreads)
{
    for (const char *bad : {"abc", "-1", "3x"}) {
        Argv a({"--jobs", bad});
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(cli::jobsArg(a.argc(), a.argv()), 0u) << bad;
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("warning: --jobs expects an unsigned integer"),
                  std::string::npos)
            << err;
    }
}

TEST(Cli, JobsFallsBackToEnvironment)
{
    Argv a({"--fast"});
    setenv("BBB_JOBS", "3", 1);
    EXPECT_EQ(cli::jobsArg(a.argc(), a.argv()), 3u);
    setenv("BBB_JOBS", "3x", 1);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(cli::jobsArg(a.argc(), a.argv()), 0u);
    std::string err = ::testing::internal::GetCapturedStderr();
    unsetenv("BBB_JOBS");
    EXPECT_NE(err.find("warning: BBB_JOBS expects an unsigned integer"),
              std::string::npos)
        << err;
    EXPECT_EQ(cli::jobsArg(a.argc(), a.argv()), 0u);
}

TEST(CliDeath, StrictArgsRejectsMalformedJobs)
{
    for (const char *bad : {"abc", "-1", "3x"}) {
        Argv a({"--strict-args", "--jobs", bad});
        EXPECT_EXIT(cli::jobsArg(a.argc(), a.argv()),
                    ::testing::ExitedWithCode(2),
                    "error: --jobs expects an unsigned integer")
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
    Argv on({"--por", "on"});
    Argv off({"--por", "off"});
    Argv one({"--por", "1"});
    Argv zero({"--por", "0"});
    EXPECT_TRUE(cli::onOffArg(on.argc(), on.argv(), "--por", false));
    EXPECT_FALSE(cli::onOffArg(off.argc(), off.argv(), "--por", true));
    EXPECT_TRUE(cli::onOffArg(one.argc(), one.argv(), "--por", false));
    EXPECT_FALSE(cli::onOffArg(zero.argc(), zero.argv(), "--por", true));
}

TEST(CliOnOff, DefaultWhenAbsentOrMalformed)
{
    Argv absent({"--fast"});
    EXPECT_TRUE(cli::onOffArg(absent.argc(), absent.argv(), "--por",
                              true));
    Argv bad({"--por", "maybe"});
    EXPECT_TRUE(cli::onOffArg(bad.argc(), bad.argv(), "--por", true));
}

TEST(CliOnOffDeath, StrictArgsRejectsMalformed)
{
    Argv a({"--strict-args", "--por", "maybe"});
    EXPECT_EXIT(cli::onOffArg(a.argc(), a.argv(), "--por", true),
                ::testing::ExitedWithCode(2), "--por expects on\\|off");
}
