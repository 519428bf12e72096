// Factory registration and string-typed construction.
#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/sst.h"
#include "../test_components.h"

namespace sst {
namespace {

TEST(Factory, RegisterAndCreate) {
  Factory f;
  f.register_component<testing::Echo>(
      "test.Echo", {{"label", "a declared key", "x"}});
  EXPECT_TRUE(f.known("test.Echo"));
  EXPECT_FALSE(f.known("test.Nope"));
  ASSERT_EQ(f.param_docs("test.Echo").size(), 1u);
  EXPECT_EQ(f.param_docs("test.Echo")[0].name, "label");

  Simulation sim;
  Params p;
  Component* c = f.create(sim, "test.Echo", "e0", p);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->name(), "e0");
  EXPECT_EQ(sim.find_component("e0"), c);
}

TEST(Factory, CustomBuilderRunsOnCreate) {
  Factory f;
  int built = 0;
  f.register_component(
      "test.Echo", {},
      [&built](Simulation& sim, const std::string& name,
               Params& p) -> Component* {
        ++built;
        return sim.add_component<testing::Echo>(name, p);
      });
  Simulation sim;
  Params p;
  ASSERT_NE(f.create(sim, "test.Echo", "e0", p), nullptr);
  EXPECT_EQ(built, 1);
}

TEST(Factory, UnknownTypeThrowsWithKnownList) {
  Factory f;
  f.register_component<testing::Echo>("lib.A", {});
  Simulation sim;
  Params p;
  try {
    f.create(sim, "lib.B", "x", p);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("lib.A"), std::string::npos);
  }
  EXPECT_THROW((void)f.param_docs("lib.B"), ConfigError);
}

TEST(Factory, DuplicateRegistrationThrows) {
  Factory f;
  f.register_component<testing::Echo>("dup.X", {});
  EXPECT_THROW(f.register_component<testing::Echo>("dup.X", {}),
               ConfigError);
}

TEST(Factory, RegisteredTypesSorted) {
  Factory f;
  f.register_component<testing::Echo>("b.Y", {});
  f.register_component<testing::Echo>("a.X", {});
  const auto types = f.registered_types();
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0], "a.X");
  EXPECT_EQ(types[1], "b.Y");
}

TEST(Factory, GlobalInstanceIsSingleton) {
  EXPECT_EQ(&Factory::instance(), &Factory::instance());
}

}  // namespace
}  // namespace sst
