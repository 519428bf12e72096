// Builds Workload instances from string parameters, so processor cores can
// be fully configured through the SDL layer.  "workload" selects the
// kernel; the keys each kernel reads, with their defaults, are declared
// once, in proc.Core's registered parameter list (proc_lib.cpp, printed
// by sstsim --list-components).
#pragma once

#include "core/params.h"
#include "proc/workload.h"

namespace sst::proc {

/// Creates a workload from `params` ("workload" selects the kernel).
/// Throws ConfigError on unknown kernels or bad parameters.
[[nodiscard]] WorkloadPtr make_workload(const Params& params);

/// Creates a workload by name with default parameters.
[[nodiscard]] WorkloadPtr make_workload(std::string_view kernel);

}  // namespace sst::proc
