// Factory: builds components by registered string name ("mem.Cache",
// "proc.Core", ...), the mechanism behind configuration-file-driven
// simulations (SST's element-library loading, minus dlopen).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/params.h"
#include "core/simulation.h"
#include "core/types.h"

namespace sst {

/// One declared parameter of a registered component type: the key, a
/// one-line description, and the default ("" = required).  The list a
/// type registers with is the only set of keys ConfigGraph::validate
/// accepts for it, from an SDL file, an override, a daemon request or a
/// sweep axis alike; sstsim --list-components prints it.
struct ParamDoc {
  std::string name;
  std::string description;
  std::string default_value;
};

class Factory {
 public:
  using Builder = std::function<Component*(Simulation&, const std::string&,
                                           Params&)>;

  /// Process-wide factory instance (element libraries register into it
  /// from their register_library()).
  static Factory& instance();

  /// Registers a builder and its declared parameters under
  /// "library.Name".  Duplicate registration of the same name is a
  /// programming error.
  void register_component(const std::string& type,
                          std::vector<ParamDoc> params, Builder builder);

  /// The same for a Component subclass built as
  /// sim.add_component<T>(name, params).
  template <typename T>
  void register_component(const std::string& type,
                          std::vector<ParamDoc> params) {
    register_component(
        type, std::move(params),
        [](Simulation& sim, const std::string& name, Params& p)
            -> Component* { return sim.add_component<T>(name, p); });
  }

  /// True when a builder exists for the type.
  [[nodiscard]] bool known(const std::string& type) const;

  /// Creates a component of the registered type inside `sim`.
  Component* create(Simulation& sim, const std::string& type,
                    const std::string& name, Params& params) const;

  /// All registered type names, sorted.
  [[nodiscard]] std::vector<std::string> registered_types() const;

  /// The declared parameters of a registered type.  Throws ConfigError
  /// for an unknown type.
  [[nodiscard]] const std::vector<ParamDoc>& param_docs(
      const std::string& type) const;

 private:
  struct Entry {
    Builder builder;
    std::vector<ParamDoc> params;
  };
  /// The entry of `type`; throws ConfigError listing the known types.
  [[nodiscard]] const Entry& entry(const std::string& type) const;

  std::map<std::string, Entry> types_;
};

}  // namespace sst
