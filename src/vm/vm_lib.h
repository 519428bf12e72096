// Registration of the vm element library ("vm.Tlb",
// "vm.PageTableWalker") into the process-wide Factory, each with its
// declared parameter list, plus the checkpoint event-registry entries for
// the vm protocol events.
#pragma once

#include "vm/page_table.h"
#include "vm/tlb.h"
#include "vm/vm_event.h"
#include "vm/walker.h"

namespace sst::vm {

/// Idempotent; call before building graphs that use vm.* components.
void register_library();

}  // namespace sst::vm
