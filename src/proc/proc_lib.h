// Umbrella header + factory registration for the processor element
// library.
#pragma once

#include "core/sst.h"
#include "proc/core_model.h"
#include "proc/kernels.h"
#include "proc/trace.h"
#include "proc/workload.h"
#include "proc/workload_factory.h"

namespace sst::proc {

/// Registers "proc.Core", with its declared parameter list, with the
/// process-wide Factory.  A core built this way constructs its workload
/// from its own params (see workload_factory.h).  Idempotent.
void register_library();

}  // namespace sst::proc
