// Component-state serialization contract for checkpoints: every
// registered component type must survive a serialize_state round trip
// byte-for-byte, because a checkpoint packs {flags, trace seq, rng,
// serialize_state} for every component and restore unpacks it onto the
// rebuilt model, so an asymmetric read/write pair would silently corrupt
// the first restore of that type.  Pending events ride along through the
// checkpoint event registry, which is also pinned here.  (The suite keeps
// its historical MigrationPack name; a migration itself moves no bytes.)
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "../test_components.h"
#include "ckpt/serializer.h"
#include "core/factory.h"
#include "core/sst.h"
#include "mem/cache.h"
#include "mem/mem_lib.h"
#include "mem/memory_controller.h"
#include "net/hotspot.h"
#include "net/net_lib.h"
#include "proc/core_model.h"
#include "proc/proc_lib.h"
#include "sdl/config_graph.h"
#include "vm/vm_lib.h"

namespace sst::ckpt {
namespace {

void register_all_libraries() {
  mem::register_library();
  proc::register_library();
  net::register_library();
  vm::register_library();
}

// Values for required (default-less) parameters, keyed by knob name.
// Every registered type must either have all-defaulted params or find
// its required knobs here — a new type with a novel required knob fails
// the AllTypes test loudly until a fixup is added.
Params params_for(const std::string& type) {
  static const std::map<std::string, std::string> fixups = {
      {"size", "4KiB"},
      {"num_ports", "2"},
      {"num_caches", "2"},
      {"ports", "4"},
  };
  Params p;
  for (const auto& d : Factory::instance().param_docs(type)) {
    if (!d.default_value.empty()) continue;
    // Contextually required: proc.Core only reads it under
    // workload=trace, and the default workload is stream.
    if (d.name == "trace_file") continue;
    auto it = fixups.find(d.name);
    if (it == fixups.end()) {
      ADD_FAILURE() << type << ": required param '" << d.name
                    << "' has no test fixup";
      continue;
    }
    p.set(d.name, it->second);
  }
  return p;
}

// Packs the model-owned part of a component's checkpoint state (the rng
// and trace-seq sections the checkpoint engine adds are fixed-width
// engine fields with their own serializer tests).
std::vector<std::byte> pack_state(Component& c) {
  Serializer s(Serializer::Mode::kPack);
  c.serialize_state(s);
  return std::move(s.buffer());
}

TEST(MigrationPack, RoundTripsEveryRegisteredType) {
  register_all_libraries();
  const auto types = Factory::instance().registered_types();
  ASSERT_FALSE(types.empty());
  Simulation sim;
  unsigned n = 0;
  for (const auto& type : types) {
    Params p = params_for(type);
    Component* c = Factory::instance().create(
        sim, type, "m" + std::to_string(n++), p);
    ASSERT_NE(c, nullptr) << type;
    std::vector<std::byte> first = pack_state(*c);
    Serializer unpack{std::vector<std::byte>(first)};
    c->serialize_state(unpack);
    // An underconsumed stream means serialize_state reads fewer fields
    // than it writes; the next section of a real checkpoint would
    // then be misparsed.
    EXPECT_TRUE(unpack.exhausted()) << type << ": pack not fully consumed";

    EXPECT_EQ(pack_state(*c), first) << type << ": state changed across "
                                     << "a pack/unpack round trip";
  }
}

TEST(MigrationPack, RoundTripsMidFlightMemoryPath) {
  // RoundTripsEveryRegisteredType only sees freshly built components,
  // whose in-flight tables are empty.  Stop a GUPS node mid-stream, with
  // several requests outstanding at the core, the cache and the
  // controller, and round-trip those tables (hash maps written in
  // ordered-map layout) too.
  register_all_libraries();
  const char* doc = R"({
    "config": {"seed": 5, "end_time": "3us"},
    "components": [
      {"name": "cpu", "type": "proc.Core",
       "params": {"clock": "2GHz", "issue_width": 4, "max_loads": 16,
                  "workload": "gups", "table": "16MiB", "updates": 100000}},
      {"name": "l1", "type": "mem.Cache",
       "params": {"size": "32KiB", "assoc": 4, "hit_latency": "1ns",
                  "mshrs": 16}},
      {"name": "mc", "type": "mem.MemoryController",
       "params": {"backend": "dram", "preset": "DDR3"}}
    ],
    "links": [
      {"from": "cpu", "from_port": "mem", "to": "l1", "to_port": "cpu",
       "latency": "500ps"},
      {"from": "l1", "from_port": "mem", "to": "mc", "to_port": "cpu",
       "latency": "2ns"}
    ]
  })";
  auto sim = sdl::ConfigGraph::from_json_text(doc).build();
  sim->run();
  auto* core = dynamic_cast<proc::Core*>(sim->find_component("cpu"));
  auto* l1 = dynamic_cast<mem::Cache*>(sim->find_component("l1"));
  auto* mc = dynamic_cast<mem::MemoryController*>(sim->find_component("mc"));
  ASSERT_NE(core, nullptr);
  ASSERT_NE(l1, nullptr);
  ASSERT_NE(mc, nullptr);
  ASSERT_FALSE(core->done());
  EXPECT_GT(core->in_flight(), 1u);
  EXPECT_GT(l1->mshrs_in_use(), 1u);
  EXPECT_GT(mc->in_flight(), 1u);

  for (Component* c : std::initializer_list<Component*>{core, l1, mc}) {
    std::vector<std::byte> first = pack_state(*c);
    Serializer unpack{std::vector<std::byte>(first)};
    c->serialize_state(unpack);
    EXPECT_TRUE(unpack.exhausted()) << c->name() << ": pack not fully "
                                    << "consumed";
    EXPECT_EQ(pack_state(*c), first) << c->name() << ": state changed "
                                     << "across a pack/unpack round trip";
  }
}

TEST(MigrationPack, EventRegistryRoundTripsHotspotToken) {
  register_all_libraries();
  Serializer pack(Serializer::Mode::kPack);
  net::HotspotTokenEvent out(7);
  detail::write_event(pack, out);
  std::vector<std::byte> bytes = std::move(pack.buffer());

  Serializer unpack{std::vector<std::byte>(bytes)};
  EventPtr in = detail::read_event(unpack);
  ASSERT_NE(in, nullptr);
  EXPECT_TRUE(unpack.exhausted());
  auto* token = dynamic_cast<net::HotspotTokenEvent*>(in.get());
  ASSERT_NE(token, nullptr);
  EXPECT_EQ(token->service(), 7u);

  // Re-serializing the reconstructed event reproduces the stream: the
  // engine fields (delivery time, priority, link, sequence) survived too.
  Serializer repack(Serializer::Mode::kPack);
  detail::write_event(repack, *in);
  EXPECT_EQ(repack.buffer(), bytes);
}

TEST(MigrationPack, UnregisteredEventTypeRejected) {
  // A pending event of a non-checkpointable type makes the simulation
  // uncheckpointable; the pack must fail loudly rather than drop events.
  Serializer pack(Serializer::Mode::kPack);
  testing::IntEvent ev(42);
  EXPECT_THROW(detail::write_event(pack, ev), CheckpointError);
}

}  // namespace
}  // namespace sst::ckpt
