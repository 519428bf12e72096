#include "dse/sweep_spec.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <set>

#include "core/params.h"
#include "sdl/settings.h"

namespace sst::dse {

namespace {

/// setting_count of a spec member, failing with a SweepError.
std::uint64_t spec_count(const std::string& what, const sdl::JsonValue& v,
                         std::uint64_t lo, std::uint64_t hi) {
  try {
    return sdl::setting_count(v, what, lo, hi);
  } catch (const ConfigError& e) {
    throw SweepError(e.what());
  }
}

/// Formats a range sample as a parameter value: integral values a long
/// long holds print without a decimal point so "/config/seed"-style
/// integer overrides and byte counts stay parseable; everything else uses
/// %g.
std::string format_value(double v, const std::string& suffix) {
  char buf[40];
  if (v >= -0x1p63 && v < 0x1p63 && v == std::trunc(v)) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%g", v);
  }
  return std::string(buf) + suffix;
}

std::vector<std::string> expand_range(const sdl::JsonValue& jr,
                                      const std::string& suffix,
                                      const std::string& path) {
  auto fail = [&path](const std::string& msg) -> void {
    throw SweepError("axis '" + path + "': " + msg);
  };
  if (!jr.has("from") || !jr.has("to")) fail("range requires from and to");
  const double from = jr.at("from").as_number();
  const double to = jr.at("to").as_number();
  const std::uint64_t steps =
      jr.has("steps") ? spec_count("axis '" + path + "': range.steps",
                                   jr.at("steps"), 1, kMaxSweepPoints)
                      : 2;
  const std::string scale = jr.get_string("scale", "linear");
  if (scale != "linear" && scale != "log") {
    fail("unknown scale '" + scale + "' (known: linear, log)");
  }
  const bool log = scale == "log";
  if (log && (from <= 0 || to <= 0)) {
    fail("log range requires positive from/to");
  }
  std::vector<std::string> out;
  out.reserve(steps);
  for (std::uint64_t i = 0; i < steps; ++i) {
    const double t =
        steps == 1 ? 0.0
                   : static_cast<double>(i) / static_cast<double>(steps - 1);
    const double v = log ? from * std::pow(to / from, t)
                         : from + (to - from) * t;
    out.push_back(format_value(v, suffix));
  }
  return out;
}

/// Scalar JSON value -> parameter string, with the SDL's integral-number
/// normalization.
std::string value_to_string(const sdl::JsonValue& v, const std::string& path) {
  if (v.is_string()) return v.as_string();
  if (v.is_number()) return format_value(v.as_number(), "");
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  throw SweepError("axis '" + path + "': values must be scalars");
}

/// Last pointer segment, the default column name ("/components/l1/params/
/// size" -> "size" is ambiguous across axes, so prefix the owner:
/// "l1.size"; "/config/seed" -> "seed").
std::string default_axis_name(const std::string& path) {
  std::vector<std::string> seg;
  for (std::size_t start = 1; start <= path.size();) {
    const std::size_t slash = std::min(path.find('/', start), path.size());
    seg.push_back(path.substr(start, slash - start));
    start = slash + 1;
  }
  if (seg.size() >= 4 && seg[0] == "components" && seg[2] == "params") {
    return seg[1] + "." + seg[3];
  }
  if (seg.size() >= 3 && seg[0] == "links") {
    return "link" + seg[1] + "." + seg[2];
  }
  return seg.empty() ? path : seg.back();
}

}  // namespace

SweepSpec SweepSpec::from_json_text(std::string_view text,
                                    const std::string& spec_dir) {
  return from_json(sdl::JsonValue::parse(text), spec_dir);
}

SweepSpec SweepSpec::from_json(const sdl::JsonValue& doc,
                               const std::string& spec_dir) {
  SweepSpec spec;
  spec.name = doc.get_string("name", "sweep");
  if (!doc.has("model")) {
    throw SweepError("sweep spec requires a \"model\" path");
  }
  spec.model_path = doc.at("model").as_string();
  if (!spec.model_path.empty() && spec.model_path[0] != '/' &&
      !spec_dir.empty()) {
    spec.model_path = spec_dir + "/" + spec.model_path;
  }

  if (!doc.has("axes") || doc.at("axes").as_array().empty()) {
    throw SweepError("sweep spec requires a non-empty \"axes\" array");
  }
  std::set<std::string> seen_paths;
  for (const auto& ja : doc.at("axes").as_array()) {
    Axis axis;
    if (!ja.has("path")) throw SweepError("axis missing \"path\"");
    axis.path = ja.at("path").as_string();
    if (axis.path.empty() || axis.path[0] != '/') {
      throw SweepError("axis '" + axis.path +
                       "': path must start with '/' (a ConfigGraph "
                       "override path, e.g. /components/<name>/params/"
                       "<key>)");
    }
    if (!seen_paths.insert(axis.path).second) {
      throw SweepError("duplicate axis path '" + axis.path + "'");
    }
    axis.name = ja.get_string("name", default_axis_name(axis.path));
    const bool has_values = ja.has("values");
    const bool has_range = ja.has("range");
    if (has_values == has_range) {
      throw SweepError("axis '" + axis.path +
                       "': declare exactly one of \"values\" or \"range\"");
    }
    if (has_values) {
      for (const auto& v : ja.at("values").as_array()) {
        axis.values.push_back(value_to_string(v, axis.path));
      }
    } else {
      axis.values = expand_range(ja.at("range"),
                                 ja.get_string("suffix", ""), axis.path);
    }
    if (axis.values.empty()) {
      throw SweepError("axis '" + axis.path + "': empty value list");
    }
    spec.axes.push_back(std::move(axis));
    // Checked per axis, so a second oversized axis fails before it expands.
    if (spec.cross_size() > kMaxSweepPoints) {
      throw SweepError("axes: the cross product has more than " +
                       std::to_string(kMaxSweepPoints) + " points");
    }
  }
  std::set<std::string> axis_names;
  for (const auto& a : spec.axes) {
    if (!axis_names.insert(a.name).second) {
      throw SweepError("duplicate axis name '" + a.name +
                       "' (disambiguate with \"name\")");
    }
  }

  if (doc.has("sample")) {
    const sdl::JsonValue& js = doc.at("sample");
    const std::string mode = js.get_string("mode", "cross");
    if (mode == "cross") {
      spec.sampling.mode = Sampling::Mode::kCross;
    } else if (mode == "random") {
      spec.sampling.mode = Sampling::Mode::kRandom;
      if (!js.has("count")) {
        throw SweepError("random sampling requires \"count\"");
      }
      spec.sampling.count =
          spec_count("sample.count", js.at("count"), 1, kMaxSweepPoints);
      // to_json writes the seed as a string: a double loses u64 seeds.
      if (js.has("seed")) {
        spec.sampling.seed =
            spec_count("sample.seed", js.at("seed"), 0, UINT64_MAX);
      }
    } else {
      throw SweepError("unknown sampling mode '" + mode +
                       "' (known: cross, random)");
    }
  }

  if (doc.has("objectives")) {
    std::set<std::string> obj_names;
    for (const auto& jo : doc.at("objectives").as_array()) {
      Objective obj;
      obj.component = jo.at("component").as_string();
      obj.statistic = jo.at("statistic").as_string();
      obj.field = jo.get_string("field", "count");
      obj.name = jo.get_string("name", obj.component + "." + obj.statistic +
                                           (obj.field == "count"
                                                ? ""
                                                : "." + obj.field));
      const std::string goal = jo.get_string("goal", "min");
      if (goal == "max") {
        obj.maximize = true;
      } else if (goal == "min") {
        obj.maximize = false;
      } else {
        throw SweepError("objective '" + obj.name + "': unknown goal '" +
                         goal + "' (known: min, max)");
      }
      obj.weight = jo.get_number("weight", 1.0);
      if (obj.weight < 0) {
        throw SweepError("objective '" + obj.name +
                         "': weight must be >= 0");
      }
      if (!obj_names.insert(obj.name).second) {
        throw SweepError("duplicate objective name '" + obj.name + "'");
      }
      spec.objectives.push_back(std::move(obj));
    }
  }

  if (doc.has("run")) {
    const sdl::JsonValue& jr = doc.at("run");
    RunPolicy& run = spec.run;
    // Every member goes through setting_text, as the counts above do.
    auto count = [&jr](const char* key, unsigned& field, unsigned lo) {
      if (jr.has(key)) {
        field = static_cast<unsigned>(spec_count(
            std::string("run.") + key, jr.at(key), lo, UINT32_MAX));
      }
    };
    count("concurrency", run.concurrency, 1);
    count("retries", run.retries, 0);
    count("ranks", run.ranks, 0);
    try {
      auto seconds = [&jr](const char* key, double& field) {
        if (jr.has(key)) {
          const std::string what = std::string("run.") + key;
          field = parse_seconds(what, sdl::setting_text(jr.at(key), what));
        }
      };
      seconds("timeout_seconds", run.timeout_seconds);
      seconds("backoff_seconds", run.backoff_seconds);
      run.end_time = jr.get_string("end", "");  // a /config/end_time
      if (!run.end_time.empty()) {
        sdl::check_setting("/config/end_time", run.end_time, "run.end");
      }
    } catch (const ConfigError& e) {
      throw SweepError(e.what());
    }
  }
  return spec;
}

sdl::JsonValue SweepSpec::to_json() const {
  sdl::JsonObject doc;
  doc["name"] = name;
  doc["model"] = model_path;
  sdl::JsonArray axes_json;
  for (const auto& a : axes) {
    sdl::JsonObject ja;
    ja["path"] = a.path;
    ja["name"] = a.name;
    sdl::JsonArray values;
    for (const auto& v : a.values) values.push_back(sdl::JsonValue(v));
    ja["values"] = sdl::JsonValue(std::move(values));
    axes_json.push_back(sdl::JsonValue(std::move(ja)));
  }
  doc["axes"] = sdl::JsonValue(std::move(axes_json));
  sdl::JsonObject js;
  js["mode"] =
      sampling.mode == Sampling::Mode::kRandom ? "random" : "cross";
  if (sampling.mode == Sampling::Mode::kRandom) {
    js["count"] = sdl::JsonValue(sampling.count);
    js["seed"] = std::to_string(sampling.seed);
  }
  doc["sample"] = sdl::JsonValue(std::move(js));
  sdl::JsonArray objs;
  for (const auto& o : objectives) {
    sdl::JsonObject jo;
    jo["name"] = o.name;
    jo["component"] = o.component;
    jo["statistic"] = o.statistic;
    jo["field"] = o.field;
    jo["goal"] = o.maximize ? "max" : "min";
    jo["weight"] = sdl::JsonValue(o.weight);
    objs.push_back(sdl::JsonValue(std::move(jo)));
  }
  doc["objectives"] = sdl::JsonValue(std::move(objs));
  sdl::JsonObject jr;
  jr["concurrency"] = sdl::JsonValue(static_cast<double>(run.concurrency));
  jr["timeout_seconds"] = sdl::JsonValue(run.timeout_seconds);
  jr["retries"] = sdl::JsonValue(static_cast<double>(run.retries));
  jr["backoff_seconds"] = sdl::JsonValue(run.backoff_seconds);
  if (run.ranks > 0) {
    jr["ranks"] = sdl::JsonValue(static_cast<double>(run.ranks));
  }
  if (!run.end_time.empty()) jr["end"] = run.end_time;
  doc["run"] = sdl::JsonValue(std::move(jr));
  return sdl::JsonValue(std::move(doc));
}

std::uint64_t SweepSpec::cross_size() const {
  std::uint64_t total = 1;
  for (const auto& a : axes) {
    const std::uint64_t n = a.values.size();
    total = n != 0 && total > UINT64_MAX / n ? UINT64_MAX : total * n;
  }
  return total;
}

}  // namespace sst::dse
