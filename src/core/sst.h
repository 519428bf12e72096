// Umbrella header for the SST-repro core library.
//
// Quickstart:
//
//   #include "core/sst.h"
//
//   class Ping final : public sst::Component {
//    public:
//     explicit Ping(sst::Params& p) {
//       link_ = configure_link("port", [this](sst::EventPtr ev) {
//         link_->send(std::move(ev));   // bounce it back
//       });
//       ...
//     }
//    private:
//     sst::Link* link_;
//   };
//
//   sst::Simulation sim;
//   sst::Params p;
//   sim.add_component<Ping>("ping", p);
//   ...
//   sim.connect("ping", "port", "pong", "port", sst::kNanosecond);
//   sim.run();
#pragma once

#include "core/clock.h"
#include "core/component.h"
#include "core/event.h"
#include "core/link.h"
#include "core/params.h"
#include "core/rng.h"
#include "core/simulation.h"
#include "core/statistics.h"
#include "core/time_vortex.h"
#include "core/types.h"
#include "core/unit_algebra.h"
