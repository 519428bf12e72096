// Factory parameter-list coverage: every registered component type's
// list names each key once, with a description — ConfigGraph::validate
// checks every input key against it, --list-components prints it, and the
// MigrationPack test derives required params from it.
#include <gtest/gtest.h>

#include <set>

#include "core/factory.h"
#include "mem/mem_lib.h"
#include "net/net_lib.h"
#include "proc/proc_lib.h"
#include "vm/vm_lib.h"

namespace sst {
namespace {

void register_all_libraries() {
  mem::register_library();
  proc::register_library();
  net::register_library();
  vm::register_library();
}

TEST(ParamDocs, EveryRegisteredTypeIsDocumented) {
  register_all_libraries();
  const auto types = Factory::instance().registered_types();
  ASSERT_FALSE(types.empty());
  for (const auto& type : types) {
    const auto& docs = Factory::instance().param_docs(type);
    EXPECT_FALSE(docs.empty()) << type << ": empty param docs";
    std::set<std::string> seen;
    for (const auto& d : docs) {
      EXPECT_FALSE(d.name.empty()) << type << ": unnamed param";
      EXPECT_FALSE(d.description.empty())
          << type << "." << d.name << ": missing description";
      EXPECT_TRUE(seen.insert(d.name).second)
          << type << "." << d.name << ": documented twice";
    }
  }
}

TEST(ParamDocs, VmTypesAreRegistered) {
  register_all_libraries();
  const auto types = Factory::instance().registered_types();
  const std::set<std::string> all(types.begin(), types.end());
  EXPECT_TRUE(all.contains("vm.Tlb"));
  EXPECT_TRUE(all.contains("vm.PageTableWalker"));
}

}  // namespace
}  // namespace sst
