// Umbrella header + factory registration for the memory element library.
#pragma once

#include "core/sst.h"
#include "mem/bus.h"
#include "mem/cache.h"
#include "mem/coherence.h"
#include "mem/dram.h"
#include "mem/mem_event.h"
#include "mem/memory_controller.h"

namespace sst::mem {

/// Registers the mem.* component types, each with its declared parameter
/// list, with the process-wide Factory.  Idempotent.
void register_library();

}  // namespace sst::mem
