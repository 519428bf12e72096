// Sweep-spec parsing: axis expansion, sampling, objectives, and the
// error paths a user-facing spec format must reject loudly.
#include <gtest/gtest.h>

#include "dse/point_gen.h"
#include "dse/sweep_spec.h"
#include "mem/mem_lib.h"

namespace sst::dse {
namespace {

constexpr const char* kMinimal = R"({
  "name": "demo",
  "model": "model.json",
  "axes": [
    {"path": "/components/l1/params/size",
     "values": ["16KiB", "32KiB"]},
    {"path": "/network/link_latency",
     "range": {"from": 10, "to": 40, "steps": 4}, "suffix": "ns"}
  ],
  "objectives": [
    {"component": "cpu", "statistic": "instructions", "goal": "max"},
    {"component": "mc", "statistic": "bytes", "goal": "min",
     "weight": 2.0}
  ],
  "run": {"concurrency": 3, "timeout_seconds": 42}
})";

TEST(SweepSpec, ParsesAxesObjectivesAndRunPolicy) {
  const SweepSpec spec = SweepSpec::from_json_text(kMinimal, "/base");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.model_path, "/base/model.json");
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].name, "l1.size");
  EXPECT_EQ(spec.axes[0].values,
            (std::vector<std::string>{"16KiB", "32KiB"}));
  // Linear range, suffix applied: 10, 20, 30, 40 ns.
  EXPECT_EQ(spec.axes[1].values,
            (std::vector<std::string>{"10ns", "20ns", "30ns", "40ns"}));
  EXPECT_EQ(spec.cross_size(), 8u);
  ASSERT_EQ(spec.objectives.size(), 2u);
  EXPECT_EQ(spec.objectives[0].name, "cpu.instructions");
  EXPECT_TRUE(spec.objectives[0].maximize);
  EXPECT_FALSE(spec.objectives[1].maximize);
  EXPECT_DOUBLE_EQ(spec.objectives[1].weight, 2.0);
  EXPECT_EQ(spec.run.concurrency, 3u);
  EXPECT_DOUBLE_EQ(spec.run.timeout_seconds, 42.0);
}

TEST(SweepSpec, LogRangeExpandsGeometrically) {
  const SweepSpec spec = SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/components/c/params/size",
              "range": {"from": 1, "to": 8, "steps": 4, "scale": "log"}}]
  })", "");
  EXPECT_EQ(spec.axes[0].values,
            (std::vector<std::string>{"1", "2", "4", "8"}));
}

TEST(SweepSpec, SingleStepRangeIsJustFrom) {
  const SweepSpec spec = SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/network/x",
              "range": {"from": 5, "to": 9, "steps": 1}}]
  })", "");
  EXPECT_EQ(spec.axes[0].values, (std::vector<std::string>{"5"}));
}

TEST(SweepSpec, HugeAxisValuesFormatWithoutOverflow) {
  // Values past the long long range print in %g instead of going
  // through an out-of-range cast.
  const SweepSpec spec = SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/network/x", "values": [1e30, -1e19, 4096]},
             {"path": "/network/y",
              "range": {"from": 1, "to": 1e30, "steps": 2}}]
  })", "");
  EXPECT_EQ(spec.axes[0].values,
            (std::vector<std::string>{"1e+30", "-1e+19", "4096"}));
  EXPECT_EQ(spec.axes[1].values, (std::vector<std::string>{"1", "1e+30"}));
}

TEST(SweepSpec, RoundTripsThroughJson) {
  const SweepSpec spec = SweepSpec::from_json_text(kMinimal, "/base");
  // to_json stores expanded values, so a re-parse reproduces the spec
  // even though the original used a range.
  const SweepSpec again =
      SweepSpec::from_json(spec.to_json(), "/elsewhere");
  EXPECT_EQ(again.name, spec.name);
  ASSERT_EQ(again.axes.size(), spec.axes.size());
  for (std::size_t i = 0; i < spec.axes.size(); ++i) {
    EXPECT_EQ(again.axes[i].path, spec.axes[i].path);
    EXPECT_EQ(again.axes[i].values, spec.axes[i].values);
  }
  EXPECT_EQ(again.objectives.size(), spec.objectives.size());
  EXPECT_EQ(again.run.concurrency, spec.run.concurrency);
}

TEST(SweepSpecErrors, MissingModel) {
  EXPECT_THROW(SweepSpec::from_json_text(
                   R"({"axes": [{"path": "/network/x", "values": [1]}]})",
                   ""),
               SweepError);
}

TEST(SweepSpecErrors, MissingOrEmptyAxes) {
  EXPECT_THROW(SweepSpec::from_json_text(R"({"model": "m.json"})", ""),
               SweepError);
  EXPECT_THROW(
      SweepSpec::from_json_text(R"({"model": "m.json", "axes": []})", ""),
      SweepError);
}

TEST(SweepSpecErrors, BadAxisPath) {
  try {
    (void)SweepSpec::from_json_text(R"({
      "model": "m.json",
      "axes": [{"path": "components/l1/params/size", "values": [1]}]
    })", "");
    FAIL() << "expected SweepError";
  } catch (const SweepError& e) {
    EXPECT_NE(std::string(e.what()).find("must start with '/'"),
              std::string::npos);
  }
}

TEST(SweepSpecErrors, UndeclaredParamAxisFailsAtLoad) {
  // validate_axes runs before any point: an axis over a key the
  // component's type does not declare fails there, naming it.
  mem::register_library();
  const sdl::JsonValue model = sdl::JsonValue::parse(R"({
    "components": [{"name": "l1", "type": "mem.Cache",
                    "params": {"size": "32KiB"}}]})");
  const SweepSpec ok = SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/components/l1/params/size", "values": ["64KiB"]}]
  })", "");
  EXPECT_NO_THROW(validate_axes(ok, model));
  const SweepSpec bad = SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/components/l1/params/sizee", "values": ["64KiB"]}]
  })", "");
  try {
    validate_axes(bad, model);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "component 'l1' (mem.Cache): unknown param 'sizee' "
                  "(known: size, line_size,"),
              std::string::npos)
        << e.what();
  }
}

TEST(SweepSpecErrors, LoadCheckUsesThePolicyRankCount) {
  // A component pinned to rank 1 is valid only at the policy's 2 ranks,
  // which every point runs at.
  mem::register_library();
  const sdl::JsonValue model = sdl::JsonValue::parse(R"({
    "components": [{"name": "l1", "type": "mem.Cache", "rank": 1,
                    "params": {"size": "32KiB"}}]})");
  const SweepSpec two = SweepSpec::from_json_text(R"({
    "model": "m.json", "run": {"ranks": 2},
    "axes": [{"path": "/components/l1/params/size", "values": ["64KiB"]}]
  })", "");
  EXPECT_NO_THROW(validate_axes(two, model));
  const SweepSpec model_ranks = SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/components/l1/params/size", "values": ["64KiB"]}]
  })", "");
  EXPECT_THROW(validate_axes(model_ranks, model), ConfigError);
}

TEST(SweepSpecErrors, DuplicateAxisPath) {
  try {
    (void)SweepSpec::from_json_text(R"({
      "model": "m.json",
      "axes": [
        {"path": "/network/x", "values": [1]},
        {"path": "/network/x", "values": [2]}
      ]
    })", "");
    FAIL() << "expected SweepError";
  } catch (const SweepError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate axis path"),
              std::string::npos);
  }
}

TEST(SweepSpecErrors, EmptyValuesAndEmptyRange) {
  EXPECT_THROW(SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/network/x", "values": []}]
  })", ""), SweepError);
  EXPECT_THROW(SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/network/x",
              "range": {"from": 1, "to": 4, "steps": 0}}]
  })", ""), SweepError);
}

TEST(SweepSpecErrors, ValuesAndRangeAreExclusive) {
  EXPECT_THROW(SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/network/x", "values": [1],
              "range": {"from": 1, "to": 2, "steps": 2}}]
  })", ""), SweepError);
  EXPECT_THROW(SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/network/x"}]
  })", ""), SweepError);
}

TEST(SweepSpecErrors, LogRangeRequiresPositiveEndpoints) {
  EXPECT_THROW(SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/network/x",
              "range": {"from": 0, "to": 8, "steps": 3,
                        "scale": "log"}}]
  })", ""), SweepError);
}

TEST(SweepSpecErrors, BadSamplingAndGoal) {
  EXPECT_THROW(SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/network/x", "values": [1, 2]}],
    "sample": {"mode": "stratified"}
  })", ""), SweepError);
  EXPECT_THROW(SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/network/x", "values": [1, 2]}],
    "sample": {"mode": "random"}
  })", ""), SweepError);  // random without count
  EXPECT_THROW(SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/network/x", "values": [1, 2]}],
    "objectives": [{"component": "c", "statistic": "s",
                    "goal": "maximize"}]
  })", ""), SweepError);
}

TEST(SweepSpecErrors, ConcurrencyMustBePositive) {
  EXPECT_THROW(SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [{"path": "/network/x", "values": [1]}],
    "run": {"concurrency": 0}
  })", ""), SweepError);
}

/// The one-axis spec with `run` as its run section.
SweepSpec with_run(const std::string& run) {
  return SweepSpec::from_json_text(
      R"({"model": "m.json", "axes": [{"path": "/network/x", "values": [1]}],
          "run": )" + run + "}",
      "");
}

TEST(SweepSpecErrors, RunCountsMustBeWholeAndInRange) {
  for (const auto& [run, key] : std::vector<std::pair<std::string, std::string>>{
           {R"({"concurrency": -1})", "run.concurrency"},
           {R"({"concurrency": 1e12})", "run.concurrency"},
           {R"({"concurrency": 2.5})", "run.concurrency"},
           {R"({"retries": -3})", "run.retries"},
           {R"({"retries": 0.5})", "run.retries"},
           {R"({"ranks": -1})", "run.ranks"},
           {R"({"ranks": 4294967296})", "run.ranks"}}) {
    try {
      (void)with_run(run);
      ADD_FAILURE() << "accepted " << run;
    } catch (const SweepError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepSpecErrors, RunSecondsMustBeFiniteAndNonNegative) {
  for (const auto& [run, key] : std::vector<std::pair<std::string, std::string>>{
           {R"({"timeout_seconds": -1})", "run.timeout_seconds"},
           {R"({"timeout_seconds": "1h"})", "run.timeout_seconds"},
           {R"({"backoff_seconds": -5})", "run.backoff_seconds"},
           {R"({"backoff_seconds": "soon"})", "run.backoff_seconds"}}) {
    try {
      (void)with_run(run);
      ADD_FAILURE() << "accepted " << run;
    } catch (const SweepError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepSpec, RunPolicyAcceptsItsBounds) {
  const SweepSpec spec = with_run(
      R"({"concurrency": 4294967295, "retries": 0, "ranks": 0,
          "timeout_seconds": 0, "backoff_seconds": 0})");
  EXPECT_EQ(spec.run.concurrency, 4294967295u);
  EXPECT_EQ(spec.run.retries, 0u);
  EXPECT_EQ(spec.run.ranks, 0u);
  EXPECT_EQ(spec.run.timeout_seconds, 0.0);
  EXPECT_EQ(spec.run.backoff_seconds, 0.0);
}

TEST(SweepSpec, EveryCountReadsAStringOrANumberAlike) {
  // One rule for every count of a spec: range steps, sample counts and
  // the run section's counts all take "5" as they take 5 (Q is the quote
  // or nothing).
  const std::string text = R"({"model": "m.json",
      "axes": [{"path": "/network/x",
                "range": {"from": 1, "to": 9, "steps": Q5Q}}],
      "sample": {"mode": "random", "count": Q3Q, "seed": Q7Q},
      "run": {"concurrency": Q4Q, "retries": Q1Q, "ranks": Q2Q,
              "timeout_seconds": Q30Q}})";
  for (const char* q : {"", "\""}) {
    std::string spec_text = text;
    for (auto at = spec_text.find('Q'); at != std::string::npos;
         at = spec_text.find('Q', at)) {
      spec_text.replace(at, 1, q);
    }
    const SweepSpec spec = SweepSpec::from_json_text(spec_text, "");
    EXPECT_EQ(spec.axes[0].values.size(), 5u) << q;
    EXPECT_EQ(spec.sampling.count, 3u) << q;
    EXPECT_EQ(spec.sampling.seed, 7u) << q;
    EXPECT_EQ(spec.run.concurrency, 4u) << q;
    EXPECT_EQ(spec.run.retries, 1u) << q;
    EXPECT_EQ(spec.run.ranks, 2u) << q;
    EXPECT_EQ(spec.run.timeout_seconds, 30.0) << q;
  }
}

SweepSpec three_by_three() {
  return SweepSpec::from_json_text(R"({
    "model": "m.json",
    "axes": [
      {"path": "/network/x", "values": [1, 2, 3]},
      {"path": "/network/y", "values": [10, 20, 30]}
    ]
  })", "");
}

TEST(PointGen, CrossProductRowMajorLastAxisFastest) {
  const SweepSpec spec = three_by_three();
  const auto points = generate_points(spec);
  ASSERT_EQ(points.size(), 9u);
  EXPECT_EQ(points[0].values, (std::vector<std::string>{"1", "10"}));
  EXPECT_EQ(points[1].values, (std::vector<std::string>{"1", "20"}));
  EXPECT_EQ(points[3].values, (std::vector<std::string>{"2", "10"}));
  EXPECT_EQ(points[8].values, (std::vector<std::string>{"3", "30"}));
  for (std::uint64_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].id, i);
  }
}

TEST(PointGen, RandomSamplingIsSeededAndDistinct) {
  SweepSpec spec = three_by_three();
  spec.sampling.mode = Sampling::Mode::kRandom;
  spec.sampling.count = 4;
  spec.sampling.seed = 7;
  const auto a = generate_points(spec);
  const auto b = generate_points(spec);
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);  // same seed, same subset
    if (i > 0) {
      EXPECT_LT(a[i - 1].id, a[i].id);  // distinct, sorted
    }
  }
  spec.sampling.seed = 8;
  const auto c = generate_points(spec);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != c[i].id) differs = true;
  }
  EXPECT_TRUE(differs);  // different seed, different subset
}

TEST(PointGen, RandomCountAtLeastCrossSizeYieldsEverything) {
  SweepSpec spec = three_by_three();
  spec.sampling.mode = Sampling::Mode::kRandom;
  spec.sampling.count = 100;
  EXPECT_EQ(generate_points(spec).size(), 9u);
}

}  // namespace
}  // namespace sst::dse
