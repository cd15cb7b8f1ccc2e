/**
 * @file
 * Unit and fuzz tests for the power-trace parser
 * (src/power/power_trace.hh): preset construction, the inline `seg:`
 * and multi-line text forms, and — the robustness contract — rejection
 * of malformed traces with positioned diagnostics instead of crashes or
 * silently-accepted garbage.
 */

#include <gtest/gtest.h>

#include <string>

#include "power/power_trace.hh"
#include "sim/rng.hh"

using namespace bbb;

namespace
{

std::string
rejects(const std::string &token)
{
    PowerTrace t;
    std::string err;
    EXPECT_FALSE(PowerTrace::tryParse(token, &t, &err))
        << "token '" << token << "' unexpectedly parsed";
    EXPECT_FALSE(err.empty()) << "token '" << token << "'";
    return err;
}

} // namespace

TEST(PowerTrace, PresetsAllParse)
{
    for (const std::string &name : powerTracePresetNames()) {
        PowerTrace t;
        std::string err;
        ASSERT_TRUE(PowerTrace::tryParse(name, &t, &err))
            << name << ": " << err;
        EXPECT_FALSE(t.empty()) << name;
        EXPECT_EQ(t.token(), name);
        EXPECT_GT(t.endTick(), 0u) << name;
    }
}

TEST(PowerTrace, PresetParametersShapeTheTrace)
{
    PowerTrace one = PowerTrace::parse("square:cycles=1");
    PowerTrace three = PowerTrace::parse("square:cycles=3");
    EXPECT_EQ(one.segments().size(), 2u);
    EXPECT_EQ(three.segments().size(), 6u);
    EXPECT_EQ(three.endTick(), 3 * one.endTick());

    PowerTrace steady = PowerTrace::parse("steady:us=100");
    ASSERT_EQ(steady.segments().size(), 1u);
    EXPECT_EQ(steady.endTick(), nsToTicks(100000));
    EXPECT_DOUBLE_EQ(steady.segments()[0].level, 1.0);
}

TEST(PowerTrace, SeededOutagesPresetIsDeterministic)
{
    PowerTrace a = PowerTrace::parse("outages:seed=7:cycles=4");
    PowerTrace b = PowerTrace::parse("outages:seed=7:cycles=4");
    PowerTrace c = PowerTrace::parse("outages:seed=8:cycles=4");
    ASSERT_EQ(a.segments().size(), b.segments().size());
    for (std::size_t i = 0; i < a.segments().size(); ++i) {
        EXPECT_EQ(a.segments()[i].begin, b.segments()[i].begin);
        EXPECT_EQ(a.segments()[i].end, b.segments()[i].end);
        EXPECT_EQ(a.segments()[i].level, b.segments()[i].level);
    }
    EXPECT_NE(c.endTick(), a.endTick());
}

TEST(PowerTrace, InlineSegmentsAndGaps)
{
    PowerTrace t = PowerTrace::parse("seg:0-60000@1;70000-80000@0.3;");
    ASSERT_EQ(t.segments().size(), 2u);
    EXPECT_DOUBLE_EQ(t.levelAt(nsToTicks(100)), 1.0);
    EXPECT_DOUBLE_EQ(t.levelAt(nsToTicks(65000)), 0.0); // gap
    EXPECT_DOUBLE_EQ(t.levelAt(nsToTicks(75000)), 0.3);
    EXPECT_DOUBLE_EQ(t.levelAt(nsToTicks(90000)), 0.0); // past the end
}

TEST(PowerTrace, RejectsEmptyAndCommaTokens)
{
    EXPECT_NE(rejects("").find("empty trace token"), std::string::npos);
    // The token must survive comma-separated `--traces` lists.
    EXPECT_NE(rejects("seg:0-10@1,20-30@0").find("','"),
              std::string::npos);
    EXPECT_NE(rejects("seg:").find("empty trace"), std::string::npos);
}

TEST(PowerTrace, RejectsZeroLengthSegments)
{
    std::string err = rejects("seg:0-0@1");
    EXPECT_NE(err.find("segment 1"), std::string::npos) << err;
    EXPECT_NE(err.find("zero-length"), std::string::npos) << err;
}

TEST(PowerTrace, RejectsNonMonotoneTicks)
{
    std::string err = rejects("seg:0-50000@1;40000-60000@0.5");
    EXPECT_NE(err.find("segment 2"), std::string::npos) << err;
    EXPECT_NE(err.find("non-monotone"), std::string::npos) << err;
}

TEST(PowerTrace, RejectsOutOfRangeLevels)
{
    std::string err = rejects("seg:0-1000@1.5");
    EXPECT_NE(err.find("outside [0, 1]"), std::string::npos) << err;
    err = rejects("seg:0-1000@-0.25");
    EXPECT_NE(err.find("outside [0, 1]"), std::string::npos) << err;
}

TEST(PowerTrace, RejectsUnknownPresetsAndParameters)
{
    EXPECT_NE(rejects("sinusoid").find("unknown power-trace preset"),
              std::string::npos);
    EXPECT_NE(rejects("square:cycels=3").find("unknown trace parameter"),
              std::string::npos);
    EXPECT_NE(rejects("square:cycles=abc").find("malformed trace "
                                                "parameter"),
              std::string::npos);
    EXPECT_NE(rejects("seg:12@1").find("want BEGIN_NS-END_NS@LEVEL"),
              std::string::npos);
}

TEST(PowerTrace, IntegerParametersParseStrictly)
{
    // cycles and seed take plain decimal digits that fit: every token
    // here is rejected before a segment is built.
    for (const char *token :
         {"brownout:cycles=-1", "square:cycles=2.5", "square:cycles=1e3",
          "brownout:cycles=4294967296", "outages:seed=-3",
          "outages:seed=18446744073709551616", "outages:cycles=+2"}) {
        std::string err = rejects(token);
        std::string pair = std::string(token).substr(
            std::string(token).find(':') + 1);
        EXPECT_EQ(err.find("malformed trace parameter '" + pair + "'"), 0u)
            << err;
        EXPECT_NE(err.find("(want an unsigned integer up to "),
                  std::string::npos)
            << err;
    }
    EXPECT_EQ(PowerTrace::parse("outages:seed=18446744073709551615:cycles=2")
                  .token(),
              "outages:seed=18446744073709551615:cycles=2");
}

TEST(PowerTrace, FuzzedTokensNeverCrashAndErrorsAreFilled)
{
    // Random garbage from the token alphabet: every outcome must be a
    // clean accept or a diagnosed reject — no crashes, no empty errors.
    const std::string alphabet = "seg:0123456789-@;.=abcxyz_ ";
    Rng rng(0xf022ull);
    unsigned accepted = 0;
    for (unsigned i = 0; i < 2000; ++i) {
        std::string token;
        unsigned len = 1 + static_cast<unsigned>(rng.below(24));
        for (unsigned c = 0; c < len; ++c)
            token += alphabet[static_cast<std::size_t>(
                rng.below(alphabet.size()))];
        PowerTrace t;
        std::string err;
        if (PowerTrace::tryParse(token, &t, &err)) {
            ++accepted;
            EXPECT_FALSE(t.empty());
        } else {
            EXPECT_FALSE(err.empty()) << "token '" << token << "'";
        }
    }
    // The alphabet is token-shaped garbage; almost everything rejects.
    EXPECT_LT(accepted, 200u);
}
