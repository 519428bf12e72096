#include "proc/proc_lib.h"

#include "core/factory.h"

namespace sst::proc {

void register_library() {
  static const bool once = [] {
    // The workload keys are read by make_workload, each by the kernels
    // named in its description.
    Factory::instance().register_component(
        "proc.Core",
        {
            {"clock", "core clock (period or frequency)", "2GHz"},
            {"issue_width", "instructions issued per cycle", "2"},
            {"max_loads", "load-queue entries", "8"},
            {"max_stores", "store-queue entries", "8"},
            {"line_split", "memory-access split granularity in bytes", "64"},
            {"virt", "emit virtual addresses for a downstream vm.Tlb",
             "false"},
            {"asid", "address-space id stamped on memory requests", "0"},
            {"workload",
             "kernel: stream | hpccg | lulesh | minimd | gups | chase | trace",
             "stream"},
            {"iterations", "outer iterations (stream/hpccg/lulesh/minimd)",
             "1"},
            {"elements", "stream array elements", "1048576"},
            {"nx", "hpccg grid extent x", "16"},
            {"ny", "hpccg grid extent y", "16"},
            {"nz", "hpccg grid extent z", "16"},
            {"n", "lulesh zones per mesh edge (n^3 zones)", "12"},
            {"atoms", "minimd atom count", "4096"},
            {"neighbors", "minimd neighbors per atom", "40"},
            {"updates", "gups update count", "100000"},
            {"table", "gups/chase table size", "16MiB"},
            {"hops", "chase pointer hops", "50000"},
            {"seed", "workload-private RNG seed (minimd/gups/chase)",
             "13 (minimd), 7 (gups), 11 (chase)"},
            {"trace_file", "address-trace input (trace workload)", ""},
        },
        [](Simulation& sim, const std::string& name, Params& p) -> Component* {
          Core* core = sim.add_component<Core>(name, p);
          core->set_workload(make_workload(p));
          return core;
        });
    return true;
  }();
  (void)once;
}

}  // namespace sst::proc
