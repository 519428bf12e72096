#include "core/factory.h"

namespace sst {

Factory& Factory::instance() {
  static Factory factory;
  return factory;
}

void Factory::register_component(const std::string& type,
                                 std::vector<ParamDoc> params,
                                 Builder builder) {
  if (!builder) throw ConfigError("null builder for '" + type + "'");
  auto [it, inserted] =
      types_.emplace(type, Entry{std::move(builder), std::move(params)});
  (void)it;
  if (!inserted) {
    throw ConfigError("component type registered twice: '" + type + "'");
  }
}

bool Factory::known(const std::string& type) const {
  return types_.contains(type);
}

const Factory::Entry& Factory::entry(const std::string& type) const {
  auto it = types_.find(type);
  if (it == types_.end()) {
    std::string msg = "unknown component type '" + type + "'; known types:";
    for (const auto& t : registered_types()) msg += " " + t;
    throw ConfigError(msg);
  }
  return it->second;
}

Component* Factory::create(Simulation& sim, const std::string& type,
                           const std::string& name, Params& params) const {
  return entry(type).builder(sim, name, params);
}

const std::vector<ParamDoc>& Factory::param_docs(
    const std::string& type) const {
  return entry(type).params;
}

std::vector<std::string> Factory::registered_types() const {
  std::vector<std::string> out;
  out.reserve(types_.size());
  for (const auto& [k, v] : types_) {
    (void)v;
    out.push_back(k);
  }
  return out;
}

}  // namespace sst
