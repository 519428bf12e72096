#include "proc/workload_factory.h"

#include "proc/kernels.h"
#include "proc/trace.h"

namespace sst::proc {

WorkloadPtr make_workload(const Params& params) {
  const std::string kernel = params.find("workload", "stream");
  const unsigned iterations = params.find<std::uint32_t>("iterations", 1);
  if (kernel == "stream") {
    const auto elements = params.find<std::uint64_t>("elements", 1u << 20);
    return std::make_unique<StreamTriad>(elements, iterations);
  }
  if (kernel == "hpccg") {
    const auto nx = params.find<std::uint32_t>("nx", 16);
    const auto ny = params.find<std::uint32_t>("ny", 16);
    const auto nz = params.find<std::uint32_t>("nz", 16);
    return std::make_unique<Hpccg>(nx, ny, nz, iterations);
  }
  if (kernel == "lulesh") {
    const auto n = params.find<std::uint32_t>("n", 12);
    return std::make_unique<Lulesh>(n, iterations);
  }
  if (kernel == "minimd") {
    const auto atoms = params.find<std::uint64_t>("atoms", 4096);
    const auto neighbors = params.find<std::uint32_t>("neighbors", 40);
    const auto seed = params.find<std::uint64_t>("seed", 13);
    return std::make_unique<MiniMd>(atoms, neighbors, iterations, seed);
  }
  if (kernel == "gups") {
    const auto table =
        params.find<UnitAlgebra>("table", UnitAlgebra("16MiB")).to_bytes();
    const auto updates = params.find<std::uint64_t>("updates", 100'000);
    const auto seed = params.find<std::uint64_t>("seed", 7);
    return std::make_unique<Gups>(table, updates, seed);
  }
  if (kernel == "trace") {
    const auto path = params.required<std::string>("trace_file");
    return std::make_unique<TraceWorkload>(path);
  }
  if (kernel == "chase") {
    const auto table =
        params.find<UnitAlgebra>("table", UnitAlgebra("16MiB")).to_bytes();
    const auto hops = params.find<std::uint64_t>("hops", 50'000);
    const auto seed = params.find<std::uint64_t>("seed", 11);
    return std::make_unique<PointerChase>(table, hops, seed);
  }
  throw ConfigError("unknown workload kernel '" + kernel +
                    "' (known: stream, hpccg, lulesh, minimd, gups, chase, "
                    "trace)");
}

WorkloadPtr make_workload(std::string_view kernel) {
  Params p;
  p.set("workload", std::string(kernel));
  return make_workload(p);
}

}  // namespace sst::proc
