#include "mem/mem_lib.h"

#include "core/factory.h"
#include "ckpt/event_registry.h"
#include "ckpt/serializer.h"

namespace sst::mem {

void MemEvent::ckpt_fields(ckpt::Serializer& s) {
  s & cmd_ & addr_ & size_ & req_id_ & bus_src_ & virt_ & asid_;
}

void SnoopEvent::ckpt_fields(ckpt::Serializer& s) {
  s & kind_ & line_ & txn_;
}

void SnoopRespEvent::ckpt_fields(ckpt::Serializer& s) {
  s & txn_ & had_line_ & supplied_data_;
}

void CoherenceEvent::ckpt_fields(ckpt::Serializer& s) {
  s & cmd_ & line_ & size_ & id_ & shared_ & intervention_;
}

namespace {

void register_ckpt_events() {
  auto& r = ckpt::EventRegistry::instance();
  r.register_type("mem.MemEvent", [] {
    return std::make_unique<MemEvent>(MemCmd::kGetS, 0, 0, 0);
  });
  r.register_type("mem.Snoop", [] {
    return std::make_unique<SnoopEvent>(SnoopEvent::Kind::kRead, 0, 0);
  });
  r.register_type("mem.SnoopResp", [] {
    return std::make_unique<SnoopRespEvent>(0, false, false);
  });
  r.register_type("mem.Coherence", [] {
    return std::make_unique<CoherenceEvent>(CoherenceEvent::Cmd::kGetS, 0, 0,
                                            0);
  });
  MemoryController::register_ckpt_events();
}

}  // namespace

void register_library() {
  static const bool once = [] {
    Factory& f = Factory::instance();
    f.register_component<Cache>("mem.Cache", {
        {"size", "total capacity, e.g. \"32KiB\"", ""},
        {"line_size", "cache line size in bytes (power of two)", "64"},
        {"assoc", "set associativity", "8"},
        {"hit_latency", "hit latency (period or frequency)", "2ns"},
        {"mshrs", "outstanding-miss registers", "8"},
        {"prefetch", "prefetch policy: none | nextline", "none"},
        {"prefetch_degree", "lines fetched ahead per miss", "2"},
    });
    f.register_component<Bus>("mem.Bus", {
        {"num_ports", "number of attached cpu-side ports", ""},
        {"bandwidth", "shared bus bandwidth", "25.6GB/s"},
        {"header", "per-transaction header time", "1ns"},
    });
    f.register_component<CoherentCache>("mem.CoherentCache", {
        {"size", "total capacity, e.g. \"64KiB\"", ""},
        {"num_caches", "peer caches on the snoop bus", ""},
        {"line_size", "cache line size in bytes (power of two)", "64"},
        {"assoc", "set associativity", "4"},
        {"hit_latency", "hit latency (period or frequency)", "1ns"},
        {"mshrs", "outstanding-miss registers", "8"},
    });
    f.register_component<SnoopBus>("mem.SnoopBus", {
        {"num_caches", "coherent caches arbitrating for the bus", ""},
        {"occupancy", "bus occupancy per snoop transaction", "6ns"},
    });
    f.register_component<MemoryController>("mem.MemoryController", {
        {"backend", "timing backend: dram | simple", "dram"},
        {"preset", "dram timing preset: DDR2 | DDR3 | GDDR5", "DDR3"},
        {"latency", "simple-backend fixed latency", "60ns"},
        {"bandwidth_gbs", "simple-backend bandwidth in GB/s", "10.667"},
        {"ber", "bit error rate fed to the ECC model", "0"},
        {"ecc", "error correction: secded | none", "secded"},
        {"fatal_uncorrected", "abort on uncorrectable errors", "false"},
    });
    register_ckpt_events();
    return true;
  }();
  (void)once;
}

}  // namespace sst::mem
