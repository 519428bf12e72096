// Params: typed lookup, required keys, arrays, scoping, unused tracking.
#include <gtest/gtest.h>

#include "core/params.h"

namespace sst {
namespace {

TEST(Params, TypedFindWithDefaults) {
  Params p;
  p.set("width", "4");
  p.set("rate", "2.5");
  p.set("label", "hello");
  p.set("enable", "true");
  EXPECT_EQ(p.find<std::uint32_t>("width", 1), 4u);
  EXPECT_EQ(p.find<std::uint32_t>("missing", 7), 7u);
  EXPECT_DOUBLE_EQ(p.find<double>("rate", 0.0), 2.5);
  EXPECT_EQ(p.find<std::string>("label", ""), "hello");
  EXPECT_TRUE(p.find<bool>("enable", false));
}

TEST(Params, BoolSpellings) {
  Params p;
  for (const char* t : {"true", "TRUE", "1", "yes", "on"}) {
    p.set("b", t);
    EXPECT_TRUE(p.find<bool>("b", false)) << t;
  }
  for (const char* f : {"false", "False", "0", "no", "off"}) {
    p.set("b", f);
    EXPECT_FALSE(p.find<bool>("b", true)) << f;
  }
  p.set("b", "maybe");
  EXPECT_THROW((void)p.find<bool>("b", true), ConfigError);
}

TEST(Params, UnitQuantitiesInNumericFields) {
  Params p;
  p.set("size", "64KiB");
  p.set("freq", "2GHz");
  EXPECT_EQ(p.find<std::uint64_t>("size", 0), 65536u);
  EXPECT_DOUBLE_EQ(p.find<double>("freq", 0.0), 2e9);
  EXPECT_EQ(p.find<UnitAlgebra>("size", UnitAlgebra("0B")).to_bytes(),
            65536u);
}

TEST(Params, RequiredThrowsWhenMissing) {
  Params p;
  p.set("present", "1");
  EXPECT_EQ(p.required<std::uint32_t>("present"), 1u);
  EXPECT_THROW((void)p.required<std::uint32_t>("absent"), ConfigError);
}

TEST(Params, BadIntegerThrows) {
  Params p;
  p.set("n", "twelve");
  EXPECT_THROW((void)p.find<std::uint32_t>("n", 0), ConfigError);
  p.set("n", "-5");
  EXPECT_THROW((void)p.find<std::uint32_t>("n", 0), ConfigError);
  EXPECT_EQ(p.find<std::int32_t>("n", 0), -5);
}

TEST(Params, NonFiniteDoubleRejected) {
  Params p;
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-Infinity", "1e999",
                           "-1e999", "nanGHz", "infB"}) {
    p.set("x", text);
    EXPECT_THROW((void)p.find<double>("x", 1.0), ConfigError) << text;
  }
  p.set("x", "1e308");
  EXPECT_DOUBLE_EQ(p.find<double>("x", 1.0), 1e308);
  p.set("x", "-0.5");
  EXPECT_DOUBLE_EQ(p.find<double>("x", 1.0), -0.5);
}

TEST(Params, Arrays) {
  Params p;
  p.set("dims", "4, 8,16");
  const auto v = p.find_array<std::uint32_t>("dims");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 4u);
  EXPECT_EQ(v[1], 8u);
  EXPECT_EQ(v[2], 16u);
  EXPECT_TRUE(p.find_array<std::uint32_t>("missing").empty());
}

TEST(Params, PeriodAndTime) {
  Params p;
  p.set("clock", "2GHz");
  p.set("lat", "10ns");
  EXPECT_EQ(p.find_period("clock", "1GHz"), 500u);
  EXPECT_EQ(p.find_period("missing", "1GHz"), 1000u);
  EXPECT_EQ(p.find_time("lat", "1ns"), 10 * kNanosecond);
  p.set("bad", "64B");
  EXPECT_THROW((void)p.find_time("bad", "1ns"), ConfigError);
}

TEST(Params, MergeOverwrites) {
  Params a;
  a.set("x", "1");
  a.set("y", "2");
  Params b;
  b.set("y", "20");
  b.set("z", "30");
  a.merge(b);
  EXPECT_EQ(a.find<std::uint32_t>("x", 0), 1u);
  EXPECT_EQ(a.find<std::uint32_t>("y", 0), 20u);
  EXPECT_EQ(a.find<std::uint32_t>("z", 0), 30u);
}

TEST(Params, InitializerListAndKeys) {
  Params p{{"a", "1"}, {"b", "2"}};
  std::vector<std::string> keys;
  for (const auto& [key, value] : p) keys.push_back(key);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
  EXPECT_EQ(p.raw("a").value(), "1");
  EXPECT_FALSE(p.raw("c").has_value());
}

}  // namespace
}  // namespace sst
