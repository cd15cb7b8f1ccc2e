/**
 * @file
 * Unit tests for the name vocabularies (sim/names.hh): every enum a
 * driver reads by name round-trips through its one name switch, and
 * fault plans carry their media kind through the same vocabulary.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "power/power_scheduler.hh"
#include "sim/config.hh"

using namespace bbb;

namespace
{

template <class E>
class NameVocabTest : public ::testing::Test
{};

using Vocabularies =
    ::testing::Types<PersistMode, DrainPolicy, MediaKind, DegradePolicy>;
TYPED_TEST_SUITE(NameVocabTest, Vocabularies);

} // namespace

TYPED_TEST(NameVocabTest, EveryValueRoundTripsThroughItsName)
{
    using E = TypeParam;
    ASSERT_FALSE(nameValues<E>().empty());
    for (E e : nameValues<E>()) {
        const std::string name = kNames<E>.name(e);
        EXPECT_EQ(nameError<E>(name), "") << name;
        EXPECT_EQ(parseName<E>(name), e) << name;
    }
}

TYPED_TEST(NameVocabTest, NoTokenNamesTwoValues)
{
    using E = TypeParam;
    std::set<std::string> seen;
    for (E e : nameValues<E>())
        EXPECT_TRUE(seen.insert(kNames<E>.name(e)).second)
            << kNames<E>.name(e);
}

TEST(NameVocab, ValuesAreEveryEnumeratorInDeclarationOrder)
{
    EXPECT_EQ(nameValues<PersistMode>(),
              (std::vector<PersistMode>{
                  PersistMode::AdrPmem, PersistMode::AdrUnsafe,
                  PersistMode::Eadr, PersistMode::BbbMemSide,
                  PersistMode::BbbProcSide, PersistMode::PmemStrict}));
    EXPECT_EQ(nameValues<DrainPolicy>(),
              (std::vector<DrainPolicy>{DrainPolicy::Fcfs, DrainPolicy::Lrw,
                                        DrainPolicy::Random}));
    EXPECT_EQ(nameValues<MediaKind>(),
              (std::vector<MediaKind>{MediaKind::Direct, MediaKind::Ftl}));
    EXPECT_EQ(nameValues<DegradePolicy>(),
              (std::vector<DegradePolicy>{
                  DegradePolicy::None, DegradePolicy::DrainOldest,
                  DegradePolicy::Throttle, DegradePolicy::RefuseDirty}));
}

TEST(NameVocab, UnknownTokenReasonNamesWhatItIsNot)
{
    EXPECT_EQ(nameError<PersistMode>("x"), "unknown persistency mode 'x'");
    EXPECT_EQ(nameError<DrainPolicy>("x"), "unknown drain policy 'x'");
    EXPECT_EQ(nameError<MediaKind>("x"), "unknown media kind 'x'");
    EXPECT_EQ(nameError<DegradePolicy>("x"), "unknown degrade policy 'x'");
    // Names are exact: no case folding, no trimming.
    EXPECT_NE(nameError<DrainPolicy>("FCFS"), "");
    EXPECT_NE(nameError<MediaKind>(" ftl"), "");
}

TEST(NameVocabDeath, ParseListsEveryName)
{
    EXPECT_EXIT(parseName<DegradePolicy>("x"), ::testing::ExitedWithCode(2),
                "unknown degrade policy 'x' \\(want "
                "none\\|drain-oldest\\|throttle\\|refuse-dirty\\)");
    EXPECT_EXIT(parseName<MediaKind>("x"), ::testing::ExitedWithCode(2),
                "unknown media kind 'x' \\(want direct\\|ftl\\)");
}

TEST(FaultPlanMedia, RidesInThePlanTokenThroughTheVocabulary)
{
    FaultPlan ftl = FaultPlan::parse("media=ftl");
    EXPECT_EQ(ftl.media, MediaKind::Ftl);
    EXPECT_EQ(ftl.toString(), "media=ftl");
    EXPECT_FALSE(FaultPlan::parse("flaky-media").media);

    FaultPlan flaky = FaultPlan::parse("flaky-media");
    flaky.media = MediaKind::Direct;
    EXPECT_EQ(flaky.toString(), "media_p=0.02,media=direct");
    EXPECT_EQ(FaultPlan::parse(flaky.toString()), flaky);
}

TEST(FaultPlanError, ChecksATokenWithoutExiting)
{
    for (const NamedFaultPlan &np : faultPlanPresets())
        EXPECT_EQ(faultPlanError(np.name), "") << np.name;
    EXPECT_EQ(faultPlanError("battery_j=5e-06,media=ftl"), "");
    EXPECT_EQ(faultPlanError("bogus"), "unknown fault-plan preset 'bogus'");
    EXPECT_EQ(faultPlanError("media=bogus"), "unknown media kind 'bogus'");
    EXPECT_EQ(faultPlanError("media_p=x"),
              "non-numeric fault-plan value 'media_p=x'");
    EXPECT_EQ(faultPlanError("media_p=1"), "media_p must be in [0, 1): 1");
    EXPECT_EQ(faultPlanError("battery_j=1,=2"),
              "malformed fault-plan pair '=2' in 'battery_j=1,=2' (want "
              "key=value)");
    EXPECT_EQ(faultPlanError("trace=x"),
              "unknown fault-plan key 'trace' in 'trace=x'");
}

TEST(FaultPlanDeath, ParseFailsWithTheCheckersReason)
{
    EXPECT_EXIT(FaultPlan::parse("media=bogus"), ::testing::ExitedWithCode(2),
                "error: unknown media kind 'bogus'");
}
