/**
 * @file
 * Unit tests for the litmus DSL: parsing, validation errors, and the
 * per-mode lowering contract.
 */

#include <gtest/gtest.h>

#include "litmus/corpus.hh"
#include "litmus/litmus.hh"

using namespace bbb::litmus;
using bbb::PersistMode;

// gtest also defines a class named Test.
using LitTest = bbb::litmus::Test;

namespace
{

LitTest
parseOk(const std::string &text)
{
    LitTest t;
    std::string err;
    EXPECT_TRUE(parseTest(text, &t, &err)) << err;
    return t;
}

std::string
parseErr(const std::string &text)
{
    LitTest t;
    std::string err;
    EXPECT_FALSE(parseTest(text, &t, &err));
    return err;
}

} // namespace

TEST(LitmusDsl, ParsesTheClassicSbShape)
{
    LitTest t = parseOk("test sb\n"
                     "smoke\n"
                     "t0: st x 1; ld y r0\n"
                     "t1: st y 1; ld x r1\n"
                     "sometimes final r0=0 r1=0\n"
                     "sometimes [pmem-strict] crash x=1 y=1\n");
    EXPECT_EQ(t.name, "sb");
    EXPECT_TRUE(t.smoke);
    EXPECT_FALSE(t.battery);
    ASSERT_EQ(t.threads.size(), 2u);
    ASSERT_EQ(t.threads[0].size(), 2u);
    EXPECT_EQ(t.threads[0][0].kind, SrcKind::Store);
    EXPECT_EQ(t.threads[0][0].val, 1u);
    EXPECT_EQ(t.threads[0][1].kind, SrcKind::Load);
    ASSERT_EQ(t.vars.size(), 2u);
    EXPECT_EQ(t.vars[0], "x");
    EXPECT_EQ(t.vars[1], "y");
    ASSERT_EQ(t.regs.size(), 2u);
    // Default mode set: the strict trio plus the strict-on-PMEM
    // lowering; plain pmem only by explicit `modes`.
    EXPECT_EQ(t.modes.size(), 4u);
    EXPECT_TRUE(t.runsIn(PersistMode::BbbMemSide));
    EXPECT_TRUE(t.runsIn(PersistMode::PmemStrict));
    EXPECT_FALSE(t.runsIn(PersistMode::AdrPmem));
    ASSERT_EQ(t.witnesses.size(), 2u);
    EXPECT_FALSE(t.witnesses[0].on_crash);
    EXPECT_TRUE(t.witnesses[1].on_crash);
    ASSERT_EQ(t.witnesses[1].modes.size(), 1u);
    EXPECT_EQ(t.witnesses[1].modes[0], PersistMode::PmemStrict);
}

TEST(LitmusDsl, CommentsAndBlankLinesIgnored)
{
    LitTest t = parseOk("test c\n"
                     "# a comment\n"
                     "\n"
                     "t0: st x 1  # trailing comment\n");
    ASSERT_EQ(t.threads.size(), 1u);
    EXPECT_EQ(t.threads[0].size(), 1u);
}

TEST(LitmusDsl, RejectsMalformedInput)
{
    EXPECT_NE(parseErr("t0: st x 1\n").find("test NAME"),
              std::string::npos);
    EXPECT_NE(parseErr("test t\nt0: frob x\n").find("unknown op"),
              std::string::npos);
    EXPECT_EQ(parseErr("test t\nmodes warp\nt0: st x 1\n"),
              "line 2: unknown persistency mode 'warp'");
    // Too many ops on one thread.
    std::string big = "test t\nt0: st x 1";
    for (int i = 0; i < 8; ++i)
        big += "; st x 1";
    big += "\n";
    EXPECT_FALSE(parseErr(big).empty());
}

TEST(LitmusDsl, ValuesAreUnsignedDecimal)
{
    // A sign, a hex or octal prefix, or a value past 2^64-1 is not a
    // store or witness value (strtoull would read 2^64-1, 16 and 8).
    for (std::string v : {"-1", "0x10", "18446744073709551616", "+1"}) {
        EXPECT_EQ(parseErr("test t\nt0: st x " + v + "\n"),
                  "line 2: bad store value '" + v + "'");
        EXPECT_EQ(parseErr("test t\nt0: st x 1\nsometimes crash x=" + v +
                           "\n"),
                  "line 3: bad witness value in 'x=" + v + "'");
    }
    LitTest t = parseOk("test t\nt0: st x 18446744073709551615; st y 010\n"
                        "sometimes crash x=18446744073709551615 y=010\n");
    EXPECT_EQ(t.threads[0][0].val, UINT64_MAX);
    EXPECT_EQ(t.threads[0][1].val, 10u);
    EXPECT_EQ(t.witnesses[0].vars[1].second, 10u);
}

TEST(LitmusDsl, ModesArePersistModeNames)
{
    // Every litmus mode token is a persistModeName() token.
    LitTest t = parseOk("test t\n"
                        "modes bbb-mem-side bbb-proc-side eadr adr-pmem "
                        "pmem-strict\n"
                        "t0: st x 1\n"
                        "sometimes [adr-pmem pmem-strict] crash x=0\n");
    EXPECT_EQ(t.modes,
              (std::vector<PersistMode>{
                  PersistMode::BbbMemSide, PersistMode::BbbProcSide,
                  PersistMode::Eadr, PersistMode::AdrPmem,
                  PersistMode::PmemStrict}));
    EXPECT_EQ(t.witnesses[0].modes,
              (std::vector<PersistMode>{PersistMode::AdrPmem,
                                        PersistMode::PmemStrict}));

    // adr-unsafe promises no persistency for the model to check.
    EXPECT_EQ(parseErr("test t\nmodes eadr adr-unsafe\nt0: st x 1\n"),
              "line 2: adr-unsafe is not a litmus mode (it promises no "
              "persistency to check)");
    EXPECT_EQ(parseErr("test t\nt0: st x 1\n"
                       "sometimes [adr-unsafe] crash x=0\n"),
              "line 3: adr-unsafe is not a litmus mode (it promises no "
              "persistency to check)");

    // The retired short tokens are unknown names now, in a `modes` line
    // and in a witness tag alike.
    for (const char *old : {"bbb", "procside", "pmem", "pmem_strict"}) {
        std::string tok = old;
        EXPECT_EQ(parseErr("test t\n# comment\nmodes " + tok +
                           "\nt0: st x 1\n"),
                  "line 3: unknown persistency mode '" + tok + "'");
        EXPECT_EQ(parseErr("test t\nt0: st x 1\nsometimes [" + tok +
                           "] crash x=0\n"),
                  "line 3: unknown persistency mode '" + tok + "'");
    }
}

TEST(LitmusDsl, BatteryValidation)
{
    // Double store to one variable breaks the prefix-cut oracle.
    EXPECT_NE(parseErr("test t\nbattery\nmodes bbb-mem-side\n"
                       "t0: st x 1; st x 2\n")
                  .find("once"),
              std::string::npos);
    // Non-bbPB modes have no ordered crash drain to sweep.
    EXPECT_NE(parseErr("test t\nbattery\nmodes eadr\nt0: st x 1\n")
                  .find("bbb-mem-side/bbb-proc-side"),
              std::string::npos);
    LitTest t = parseOk("test t\nbattery\n"
                        "modes bbb-mem-side bbb-proc-side\n"
                        "t0: st x 1; st y 2\n");
    EXPECT_TRUE(t.battery);
}

TEST(LitmusDsl, LoweringPerMode)
{
    LitTest t = parseOk("test t\nmodes bbb-mem-side adr-pmem pmem-strict\n"
                        "t0: st x 1; flush x; sfence; mfence; ld x r0\n");

    // Strict machine: persist instructions vanish, mfence survives.
    Program bbb_prog = lower(t, PersistMode::BbbMemSide);
    ASSERT_EQ(bbb_prog.threads[0].size(), 3u);
    EXPECT_EQ(bbb_prog.threads[0][0].kind, MKind::Store);
    EXPECT_EQ(bbb_prog.threads[0][1].kind, MKind::Fence);
    EXPECT_EQ(bbb_prog.threads[0][2].kind, MKind::Load);

    // Px86 machine: the program's own flush/fence are kept as written.
    Program pmem_prog = lower(t, PersistMode::AdrPmem);
    ASSERT_EQ(pmem_prog.threads[0].size(), 5u);
    EXPECT_EQ(pmem_prog.threads[0][1].kind, MKind::Flush);
    EXPECT_EQ(pmem_prog.threads[0][2].kind, MKind::Fence);

    // Strict-on-PMEM: every store expands to st;flush;sfence, and the
    // programmer's own persist ops are still kept.
    Program strict_prog = lower(t, PersistMode::PmemStrict);
    ASSERT_EQ(strict_prog.threads[0].size(), 7u);
    EXPECT_EQ(strict_prog.threads[0][0].kind, MKind::Store);
    EXPECT_EQ(strict_prog.threads[0][1].kind, MKind::Flush);
    EXPECT_EQ(strict_prog.threads[0][1].var, strict_prog.threads[0][0].var);
    EXPECT_EQ(strict_prog.threads[0][2].kind, MKind::Fence);
}

TEST(LitmusDsl, FlushOptLowersLikeFlush)
{
    LitTest t = parseOk("test t\nmodes adr-pmem\nt0: st x 1; flushopt x\n");
    Program p = lower(t, PersistMode::AdrPmem);
    ASSERT_EQ(p.threads[0].size(), 2u);
    EXPECT_EQ(p.threads[0][1].kind, MKind::Flush);
}

TEST(LitmusDsl, CorpusParsesAndIsBigEnough)
{
    const std::vector<LitTest> &all = corpus();
    EXPECT_GE(all.size(), 25u);
    // The smoke subset must cover each seeded-mutation detector: a
    // same-variable multi-store test (drain order), a battery test
    // (crash-drain order), and an adr-pmem/pmem-strict test (flush
    // drop).
    std::vector<LitTest> smoke = smokeCorpus();
    EXPECT_GE(smoke.size(), 5u);
    bool multi_store = false, battery = false, px86 = false;
    for (const LitTest &t : smoke) {
        if (t.battery)
            battery = true;
        if (t.runsIn(PersistMode::AdrPmem) ||
            t.runsIn(PersistMode::PmemStrict))
            px86 = true;
        std::vector<unsigned> stores(t.vars.size(), 0);
        for (const auto &th : t.threads) {
            for (const SrcOp &op : th) {
                if (op.kind == SrcKind::Store &&
                    ++stores[unsigned(op.var)] > 1)
                    multi_store = true;
            }
        }
    }
    EXPECT_TRUE(multi_store);
    EXPECT_TRUE(battery);
    EXPECT_TRUE(px86);
    EXPECT_NE(findTest("sb"), nullptr);
    EXPECT_EQ(findTest("no-such-test"), nullptr);
}
