/**
 * @file
 * Unit tests for the declarative TSO/persistency model and the schedule
 * enumerator: golden interleaving counts, partial-order-reduction
 * soundness, determinism, and the durability-bound semantics.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "litmus/enumerate.hh"
#include "litmus/litmus.hh"
#include "litmus/model.hh"

using namespace bbb::litmus;
using bbb::PersistMode;
using bbb::persistModeName;

// gtest also defines a class named Test.
using LitTest = bbb::litmus::Test;

namespace
{

LitTest
parse(const std::string &text)
{
    LitTest t;
    std::string err;
    EXPECT_TRUE(parseTest(text, &t, &err)) << err;
    return t;
}

/** Enumerate and collect the final-register outcomes at leaves. */
std::set<std::string>
leafRegOutcomes(const Program &prog, unsigned nregs, bool por)
{
    std::set<std::string> out;
    EnumOptions opts;
    opts.por = por;
    EnumStats stats;
    bool done = enumerate(
        prog, opts, &stats,
        [&](const ModelState &m, const std::vector<Step> &, bool leaf) {
            if (!leaf)
                return true;
            std::string key;
            for (unsigned r = 0; r < nregs; ++r) {
                key += m.reg_done[r] ? std::to_string(m.regs[r]) : "-";
                key += ",";
            }
            out.insert(key);
            return true;
        });
    EXPECT_TRUE(done);
    EXPECT_FALSE(stats.aborted);
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Golden enumeration counts (hand-counted interleaving trees).
// ---------------------------------------------------------------------

TEST(LitmusEnum, GoldenCountsLoadsOnly2x2)
{
    // Two threads of two loads: no drains, per-thread order fixed.
    // Leaves = C(4,2) = 6; tree nodes = 1+2+4+6+6 = 19.
    LitTest t = parse("test t\nt0: ld x r0; ld x r1\n"
                   "t1: ld y r2; ld y r3\n");
    Program p = lower(t, PersistMode::BbbMemSide);
    EnumOptions opts;
    opts.por = false;
    EnumStats stats;
    EXPECT_TRUE(enumerate(p, opts, &stats,
                          [](const ModelState &, const std::vector<Step> &,
                             bool) { return true; }));
    EXPECT_EQ(stats.leaves, 6u);
    EXPECT_EQ(stats.nodes, 19u);
    EXPECT_EQ(stats.pruned, 0u);
}

TEST(LitmusEnum, GoldenCountsLoadsOnly2x3)
{
    // Leaves = C(5,2) = 10.
    LitTest t = parse("test t\nt0: ld x r0; ld x r1\n"
                   "t1: ld y r2; ld y r3; ld y r4\n");
    Program p = lower(t, PersistMode::BbbMemSide);
    EnumOptions opts;
    opts.por = false;
    EnumStats stats;
    EXPECT_TRUE(enumerate(p, opts, &stats,
                          [](const ModelState &, const std::vector<Step> &,
                             bool) { return true; }));
    EXPECT_EQ(stats.leaves, 10u);
}

TEST(LitmusEnum, GoldenCountsStoreDrainVsLoad)
{
    // t0: st (issue + forced drain), t1: one load. The drain is only
    // enabled after the issue, so the step sequences are fixed per
    // thread: leaves = C(3,1) = 3, nodes = 1+2+3+3 = 9.
    LitTest t = parse("test t\nt0: st x 1\nt1: ld x r0\n");
    Program p = lower(t, PersistMode::BbbMemSide);
    EnumOptions opts;
    opts.por = false;
    EnumStats stats;
    EXPECT_TRUE(enumerate(p, opts, &stats,
                          [](const ModelState &, const std::vector<Step> &,
                             bool) { return true; }));
    EXPECT_EQ(stats.leaves, 3u);
    EXPECT_EQ(stats.nodes, 9u);
}

TEST(LitmusEnum, PorCollapsesIndependentPrograms)
{
    // Fully independent threads (disjoint variables, loads only): the
    // sleep sets must collapse the whole tree to a single leaf.
    LitTest t = parse("test t\nt0: ld x r0\nt1: ld y r1\n");
    Program p = lower(t, PersistMode::BbbMemSide);
    EnumOptions opts;
    opts.por = true;
    EnumStats stats;
    EXPECT_TRUE(enumerate(p, opts, &stats,
                          [](const ModelState &, const std::vector<Step> &,
                             bool) { return true; }));
    EXPECT_EQ(stats.leaves, 1u);
    EXPECT_GT(stats.pruned, 0u);
}

TEST(LitmusEnum, PorPreservesTheOutcomeSet)
{
    // Sleep-set soundness on a conflict-heavy shape: the set of leaf
    // register outcomes must be identical with and without POR.
    LitTest t = parse("test t\nt0: st x 1; ld y r0\n"
                   "t1: st y 1; ld x r1\n");
    for (PersistMode m : {PersistMode::BbbMemSide, PersistMode::PmemStrict}) {
        Program p = lower(t, m);
        EXPECT_EQ(leafRegOutcomes(p, 2, true),
                  leafRegOutcomes(p, 2, false))
            << "mode " << persistModeName(m);
    }
}

TEST(LitmusEnum, DeterministicAcrossRuns)
{
    LitTest t = parse("test t\nt0: st x 1; ld y r0\n"
                   "t1: st y 1; ld x r1\n");
    Program p = lower(t, PersistMode::BbbMemSide);
    auto collect = [&]() {
        std::vector<std::string> seq;
        EnumOptions opts;
        EnumStats stats;
        enumerate(p, opts, &stats,
                  [&](const ModelState &, const std::vector<Step> &s,
                      bool leaf) {
                      seq.push_back(scheduleString(s) +
                                    (leaf ? " leaf" : ""));
                      return true;
                  });
        return seq;
    };
    std::vector<std::string> a = collect();
    std::vector<std::string> b = collect();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(LitmusEnum, MaxNodesAborts)
{
    LitTest t = parse("test t\nt0: st x 1; st x 2\nt1: st x 3; st x 4\n");
    Program p = lower(t, PersistMode::BbbMemSide);
    EnumOptions opts;
    opts.max_nodes = 3;
    EnumStats stats;
    EXPECT_FALSE(enumerate(p, opts, &stats,
                           [](const ModelState &,
                              const std::vector<Step> &,
                              bool) { return true; }));
    EXPECT_TRUE(stats.aborted);
    EXPECT_EQ(stats.nodes, 4u); // the abort fires on node max+1
}

// ---------------------------------------------------------------------
// Model semantics: TSO outcome sets.
// ---------------------------------------------------------------------

TEST(LitmusModel, SbAllowsAllFourOutcomes)
{
    LitTest t = parse("test t\nt0: st x 1; ld y r0\n"
                   "t1: st y 1; ld x r1\n");
    std::set<std::string> got =
        leafRegOutcomes(lower(t, PersistMode::BbbMemSide), 2, false);
    std::set<std::string> want = {"0,0,", "0,1,", "1,0,", "1,1,"};
    EXPECT_EQ(got, want);
}

TEST(LitmusModel, MfenceForbidsTheSbRelaxation)
{
    LitTest t = parse("test t\nt0: st x 1; mfence; ld y r0\n"
                   "t1: st y 1; mfence; ld x r1\n");
    std::set<std::string> got =
        leafRegOutcomes(lower(t, PersistMode::BbbMemSide), 2, false);
    EXPECT_EQ(got.count("0,0,"), 0u);
    EXPECT_EQ(got.count("1,1,"), 1u);
    EXPECT_EQ(got.count("0,1,"), 1u);
    EXPECT_EQ(got.count("1,0,"), 1u);
}

TEST(LitmusModel, MpForbidsStaleDataAfterFlag)
{
    LitTest t = parse("test t\nt0: st x 1; st y 1\n"
                   "t1: ld y r0; ld x r1\n");
    std::set<std::string> got =
        leafRegOutcomes(lower(t, PersistMode::BbbMemSide), 2, false);
    // r0=1 (flag seen) with r1=0 (stale data) violates TSO: drains are
    // FIFO, so x retires before y.
    EXPECT_EQ(got.count("1,0,"), 0u);
    EXPECT_EQ(got.count("1,1,"), 1u);
    EXPECT_EQ(got.count("0,0,"), 1u);
}

TEST(LitmusModel, CoherenceReadsNeverGoBackwards)
{
    LitTest t = parse("test t\nt0: st x 1; st x 2\n"
                   "t1: ld x r0; ld x r1\n");
    std::set<std::string> got =
        leafRegOutcomes(lower(t, PersistMode::BbbMemSide), 2, false);
    EXPECT_EQ(got.count("2,1,"), 0u);
    EXPECT_EQ(got.count("1,0,"), 0u);
    EXPECT_EQ(got.count("2,0,"), 0u);
    EXPECT_EQ(got.count("1,2,"), 1u);
    EXPECT_EQ(got.count("2,2,"), 1u);
}

TEST(LitmusModel, ForwardingReadsOwnBufferedStore)
{
    LitTest t = parse("test t\nt0: st x 1; ld x r0\n");
    Program p = lower(t, PersistMode::BbbMemSide);
    ModelState m = ModelState::initial(1);
    ASSERT_TRUE(m.enabled(p, Step{0, false}));
    m.apply(p, Step{0, false}); // st -> buffer
    ASSERT_TRUE(m.enabled(p, Step{0, false}));
    m.apply(p, Step{0, false}); // ld forwards
    EXPECT_TRUE(m.reg_done[0]);
    EXPECT_EQ(m.regs[0], 1u);
    EXPECT_EQ(m.mem[0], 0u); // still volatile
}

// ---------------------------------------------------------------------
// Model semantics: durability bounds (Px86) and strict images.
// ---------------------------------------------------------------------

TEST(LitmusModel, DurminAdvancesOnFlushFencePairs)
{
    LitTest t = parse("test t\nmodes adr-pmem\nt0: st x 1; flush x; sfence\n");
    Program p = lower(t, PersistMode::AdrPmem);
    ModelState m = ModelState::initial(1);

    m.apply(p, Step{0, false}); // st into the buffer
    EXPECT_TRUE(m.imageValueAllowed(PersistMode::AdrPmem, 0, 0));
    EXPECT_FALSE(m.imageValueAllowed(PersistMode::AdrPmem, 0, 1));

    // The flush is gated on the buffer not holding x.
    EXPECT_FALSE(m.enabled(p, Step{0, false}));
    m.apply(p, Step{0, true}); // drain
    EXPECT_TRUE(m.imageValueAllowed(PersistMode::AdrPmem, 0, 0));
    EXPECT_TRUE(m.imageValueAllowed(PersistMode::AdrPmem, 0, 1));

    m.apply(p, Step{0, false}); // flush: captured, not yet confirmed
    EXPECT_TRUE(m.imageValueAllowed(PersistMode::AdrPmem, 0, 0));

    m.apply(p, Step{0, false}); // sfence: x=1 is now durable
    EXPECT_FALSE(m.imageValueAllowed(PersistMode::AdrPmem, 0, 0));
    EXPECT_TRUE(m.imageValueAllowed(PersistMode::AdrPmem, 0, 1));
}

TEST(LitmusModel, StrictImageIsExactlyMemory)
{
    LitTest t = parse("test t\nt0: st x 1; st x 2\n");
    Program p = lower(t, PersistMode::BbbMemSide);
    ModelState m = ModelState::initial(1);
    m.apply(p, Step{0, false});
    m.apply(p, Step{0, false});
    m.apply(p, Step{0, true}); // retire x=1
    EXPECT_TRUE(m.imageValueAllowed(PersistMode::BbbMemSide, 0, 1));
    EXPECT_FALSE(m.imageValueAllowed(PersistMode::BbbMemSide, 0, 0));
    EXPECT_FALSE(m.imageValueAllowed(PersistMode::BbbMemSide, 0, 2));
    m.apply(p, Step{0, true}); // retire x=2
    EXPECT_TRUE(m.imageValueAllowed(PersistMode::BbbMemSide, 0, 2));
    EXPECT_FALSE(m.imageValueAllowed(PersistMode::BbbMemSide, 0, 1));
}

TEST(LitmusModel, FenceRequiresAnEmptyBuffer)
{
    LitTest t = parse("test t\nt0: st x 1; mfence\n");
    Program p = lower(t, PersistMode::BbbMemSide);
    ModelState m = ModelState::initial(1);
    m.apply(p, Step{0, false});
    EXPECT_FALSE(m.enabled(p, Step{0, false})); // fence blocked
    m.apply(p, Step{0, true});
    EXPECT_TRUE(m.enabled(p, Step{0, false}));
}

// ---------------------------------------------------------------------
// Schedule string round-trip.
// ---------------------------------------------------------------------

TEST(LitmusSchedule, StringRoundTrip)
{
    std::vector<Step> steps = {{0, false}, {0, true}, {1, false},
                               {3, true}};
    std::string text = scheduleString(steps);
    EXPECT_EQ(text, "0 0d 1 3d");
    std::vector<Step> back;
    std::string err;
    ASSERT_TRUE(parseSchedule(text, &back, &err)) << err;
    EXPECT_EQ(back, steps);
    EXPECT_EQ(scheduleString({}), "(empty)");
    EXPECT_FALSE(parseSchedule("9", &back, &err));
    EXPECT_FALSE(parseSchedule("0x", &back, &err));
}
