/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

using namespace bbb;

TEST(StatCounter, IncrementAndAdd)
{
    StatCounter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    EXPECT_EQ(c.value(), 1u);
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.set(7);
    EXPECT_EQ(c.value(), 7u);
}

TEST(StatAverage, MeanSumCount)
{
    StatAverage a;
    EXPECT_EQ(a.count(), 0u);
    a.sample(10);
    a.sample(20);
    a.sample(30);
    EXPECT_DOUBLE_EQ(a.sum(), 60.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(StatHistogram, BucketsAndOverflow)
{
    StatHistogram h(4, 10); // [0,10) [10,20) [20,30) [30,40) + overflow
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(35);
    h.sample(1000);
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u); // overflow
    EXPECT_EQ(h.maxSample(), 1000u);
    EXPECT_EQ(h.sum(), 0u + 9 + 10 + 35 + 1000);
}

TEST(StatHistogram, Reset)
{
    // A histogram is reset (and reshaped) by assigning a fresh one in
    // place, as MediaStats::reshapeWear does; a registered pointer to
    // it stays valid.
    StatHistogram h(4, 1);
    StatRegistry reg;
    reg.group("g").addHistogram("h", &h);
    h.sample(2);
    h = StatHistogram(8, 2);
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.bucketCount(1), 0u);
    EXPECT_EQ(h.maxSample(), 0u);
    EXPECT_EQ(h.buckets(), 9u);
    h.sample(3);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(reg.snapshot().count("g.h.samples"), 1u);
}

TEST(StatGroup, CounterValueLookup)
{
    // lookup() reads a group's counters by name; averages and
    // histograms are not counters.
    StatRegistry reg;
    StatCounter c;
    StatAverage a;
    StatHistogram h;
    c += 5;
    a.sample(3.0);
    h.sample(1);
    StatGroup &g = reg.group("g");
    g.addCounter("x", &c);
    g.addAverage("avg", &a);
    g.addHistogram("hist", &h);
    EXPECT_EQ(reg.lookup("g", "x"), 5u);
    EXPECT_EQ(reg.lookup("g", "missing"), 0u);
    EXPECT_EQ(reg.lookup("g", "avg"), 0u);
    EXPECT_EQ(reg.lookup("g", "hist"), 0u);
}

TEST(StatRegistry, DuplicateGroupNameIsFatal)
{
    StatRegistry reg;
    reg.group("one");
    EXPECT_EXIT(reg.group("one"), ::testing::ExitedWithCode(2),
                "registered twice");
}

TEST(StatRegistry, FindReturnsRegisteredGroup)
{
    StatRegistry reg;
    StatGroup &a = reg.group("one");
    EXPECT_EQ(reg.find("one"), &a);
    EXPECT_EQ(reg.find("two"), nullptr);
}

TEST(StatRegistry, LookupAcrossGroups)
{
    StatRegistry reg;
    StatCounter c;
    c += 9;
    reg.group("alpha").addCounter("n", &c);
    EXPECT_EQ(reg.lookup("alpha", "n"), 9u);
    EXPECT_EQ(reg.lookup("alpha", "m"), 0u);
    EXPECT_EQ(reg.lookup("beta", "n"), 0u);
    // The snapshot names every stat `group.stat`, whatever the order
    // the groups were registered in.
    StatCounter d;
    reg.group("aaa").addCounter("m", &d);
    MetricSnapshot m = reg.snapshot();
    EXPECT_EQ(m.count("alpha.n"), 9u);
    ASSERT_NE(m.find("aaa.m"), nullptr);
    EXPECT_EQ(m.size(), 2u);
}

TEST(StatRegistry, SnapshotExpandsEveryStatKind)
{
    StatRegistry reg;
    StatCounter c;
    c += 5;
    StatAverage a;
    a.sample(2.0);
    a.sample(4.0);
    StatHistogram h(4, 10);
    h.sample(9);   // bucket 0 upper edge
    h.sample(10);  // bucket 1 lower edge
    h.sample(39);  // last regular bucket's top value
    h.sample(40);  // first overflow value
    h.sample(999); // deep overflow
    StatGroup &g = reg.group("comp");
    g.addCounter("events", &c);
    g.addAverage("latency", &a);
    g.addHistogram("residency", &h);

    MetricSnapshot m = reg.snapshot(/*histogram_buckets=*/true);
    EXPECT_EQ(m.count("comp.events"), 5u);
    EXPECT_DOUBLE_EQ(m.real("comp.latency.sum"), 6.0);
    EXPECT_EQ(m.count("comp.latency.count"), 2u);
    EXPECT_EQ(m.count("comp.residency.samples"), 5u);
    EXPECT_EQ(m.count("comp.residency.sum"), 9u + 10 + 39 + 40 + 999);
    EXPECT_DOUBLE_EQ(m.real("comp.residency.max"), 999.0);
    // Boundary samples land on the correct side of each bucket edge,
    // and both overflow samples share the one overflow bucket.
    EXPECT_EQ(m.count("comp.residency.bucket0"), 1u);
    EXPECT_EQ(m.count("comp.residency.bucket1"), 1u);
    EXPECT_EQ(m.count("comp.residency.bucket2"), 0u);
    EXPECT_EQ(m.count("comp.residency.bucket3"), 1u);
    EXPECT_EQ(m.count("comp.residency.bucket4"), 2u);
    // Without buckets the per-bucket keys must not appear.
    MetricSnapshot flat = reg.snapshot();
    EXPECT_EQ(flat.find("comp.residency.bucket0"), nullptr);
    EXPECT_EQ(flat.count("comp.residency.samples"), 5u);
}

TEST(StatRegistry, SnapshotBucketKeysZeroPadded)
{
    // 12 regular buckets + overflow = 13 keys -> two digits, so the
    // sorted key order equals the bucket order.
    StatRegistry reg;
    StatHistogram h(12, 1);
    reg.group("g").addHistogram("h", &h);
    MetricSnapshot m = reg.snapshot(true);
    EXPECT_NE(m.find("g.h.bucket00"), nullptr);
    EXPECT_NE(m.find("g.h.bucket12"), nullptr);
    EXPECT_EQ(m.find("g.h.bucket0"), nullptr);
}

TEST(MetricSnapshot, FindCountRealAccessors)
{
    MetricSnapshot m;
    m.setCount("a.count", 7);
    m.setReal("a.real", 1.25);
    m.setReal("a.level", 3.0);
    ASSERT_NE(m.find("a.count"), nullptr);
    EXPECT_EQ(m.find("a.count")->kind, MetricKind::Count);
    EXPECT_EQ(m.count("a.count"), 7u);
    EXPECT_DOUBLE_EQ(m.real("a.count"), 7.0);
    EXPECT_DOUBLE_EQ(m.real("a.real"), 1.25);
    EXPECT_DOUBLE_EQ(m.real("a.level"), 3.0);
    EXPECT_EQ(m.count("a.real"), 0u);  // not a Count
    EXPECT_EQ(m.find("missing"), nullptr);
    EXPECT_EQ(m.size(), 3u);
}

TEST(MetricSnapshot, MergeWithPrefix)
{
    MetricSnapshot inner;
    inner.setCount("x", 1);
    inner.setReal("y", 2.0);
    MetricSnapshot outer;
    outer.setCount("kept", 9);
    outer.merge(inner, "sub");
    EXPECT_EQ(outer.count("kept"), 9u);
    EXPECT_EQ(outer.count("sub.x"), 1u);
    EXPECT_DOUBLE_EQ(outer.real("sub.y"), 2.0);
    // Empty prefix copies names unchanged.
    MetricSnapshot flat;
    flat.merge(inner);
    EXPECT_EQ(flat.count("x"), 1u);
}

TEST(MetricSnapshot, LeafShadowingRejected)
{
    MetricSnapshot m;
    m.setCount("a.b", 1);
    EXPECT_DEATH(m.setCount("a.b.c", 1), "");
    MetricSnapshot n;
    n.setCount("a.b.c", 1);
    EXPECT_DEATH(n.setCount("a.b", 1), "");
}

TEST(MetricSnapshot, JsonGoldenBytes)
{
    MetricSnapshot m;
    m.setCount("sys.ticks", 42);
    m.setReal("sys.energy_j", 1.5);
    m.setReal("occupancy", 3.0);
    const char *expected = "{\n"
                           "  \"occupancy\": 3,\n"
                           "  \"sys\": {\n"
                           "    \"energy_j\": 1.5,\n"
                           "    \"ticks\": 42\n"
                           "  }\n"
                           "}";
    EXPECT_EQ(m.toJson(), expected);
    // Determinism: a second emission is byte-identical.
    EXPECT_EQ(m.toJson(), m.toJson());
}

TEST(MetricSnapshot, EmptyJsonIsEmptyObject)
{
    MetricSnapshot m;
    EXPECT_EQ(m.toJson(), "{}");
}
