#include "vm/vm_lib.h"

#include "ckpt/event_registry.h"
#include "ckpt/serializer.h"
#include "core/factory.h"

namespace sst::vm {

void WalkRequestEvent::ckpt_fields(ckpt::Serializer& s) {
  s & id_ & vaddr_ & asid_;
}

void WalkResponseEvent::ckpt_fields(ckpt::Serializer& s) {
  s & id_ & vbase_ & pbase_ & page_bits_ & levels_;
}

void ShootdownEvent::ckpt_fields(ckpt::Serializer& s) {
  s & seq_ & asid_ & vbase_ & page_bits_ & all_asids_ & full_;
}

void ShootdownAckEvent::ckpt_fields(ckpt::Serializer& s) { s & seq_; }

void ShootdownTimerEvent::ckpt_fields(ckpt::Serializer& s) {
  s & seq_ & attempt_;
}

namespace {

void register_ckpt_events() {
  auto& r = ckpt::EventRegistry::instance();
  r.register_type("vm.WalkReq",
                  [] { return std::make_unique<WalkRequestEvent>(0, 0, 0); });
  r.register_type("vm.WalkResp", [] {
    return std::make_unique<WalkResponseEvent>(0, 0, 0, 0, 0);
  });
  r.register_type("vm.Shootdown", [] {
    return std::make_unique<ShootdownEvent>(0, 0, 0, 0, false, false);
  });
  r.register_type("vm.ShootdownAck",
                  [] { return std::make_unique<ShootdownAckEvent>(0); });
  r.register_type("vm.ShootdownTimer", [] {
    return std::make_unique<ShootdownTimerEvent>(0, 0);
  });
}

}  // namespace

void register_library() {
  static const bool once = [] {
    Factory& f = Factory::instance();
    f.register_component<Tlb>("vm.Tlb", {
        {"levels", "TLB hierarchy depth (1..4)", "2"},
        {"l1_sets", "level-1 sets (power of 2)", "16"},
        {"l1_ways", "level-1 ways", "4"},
        {"l1_latency", "level-1 lookup latency", "300ps"},
        {"l2_sets", "level-2 sets (power of 2)", "128"},
        {"l2_ways", "level-2 ways", "8"},
        {"l2_latency", "level-2 lookup latency", "1ns"},
        {"l3_sets", "level-3 sets (power of 2)", "256"},
        {"l3_ways", "level-3 ways", "8"},
        {"l3_latency", "level-3 lookup latency", "2ns"},
        {"l4_sets", "level-4 sets (power of 2)", "256"},
        {"l4_ways", "level-4 ways", "8"},
        {"l4_latency", "level-4 lookup latency", "2ns"},
        {"page_sizes", "translated page sizes, e.g. \"4KiB,2MiB,1GiB\"",
         "4KiB,2MiB,1GiB"},
        {"enabled", "false = pass addresses through untranslated", "true"},
    });
    f.register_component<PageTableWalker>("vm.PageTableWalker", {
        {"num_tlbs", "TLBs served (ports tlb0../inval0..)", "1"},
        {"walk_depth", "radix-walk levels per cold walk (1..5)", "4"},
        {"step_latency", "walker pipeline latency per PTE step", "500ps"},
        {"walk_cache_entries",
         "MMU walk-cache entries short-circuiting upper levels (0 = off)",
         "16"},
        {"pte_size", "bytes read per page-table entry", "8"},
        {"phys_bits", "modeled physical address width (21..52)", "33"},
        {"seed", "page-table layout seed", "1"},
        {"page_sizes", "page sizes the OS may map, e.g. \"4KiB,2MiB\"",
         "4KiB,2MiB,1GiB"},
        {"huge_pages", "policy: none | static | promote", "none"},
        {"huge_ratio", "static: fraction of 2MiB regions mapped huge",
         "0.25"},
        {"giga_ratio", "static: fraction of 1GiB regions mapped giant", "0"},
        {"promote_threshold",
         "promote: 4KiB walks in a 2MiB region before promotion", "64"},
        {"retry_timeout", "shootdown ACK timeout before re-broadcast", "2us"},
        {"retry_backoff", "shootdown retry backoff multiplier", "2.0"},
        {"retry_max", "shootdown retries before giving up", "8"},
        {"shootdown_period",
         "period of the shootdown storm generator (0 = off)", "0ps"},
        {"shootdown_span",
         "virtual span the storm sweeps 2MiB-wise", "64MiB"},
    });
    register_ckpt_events();
    return true;
  }();
  (void)once;
}

}  // namespace sst::vm
