// Umbrella header + factory registration for the network element library.
#pragma once

#include "core/sst.h"
#include "net/endpoint.h"
#include "net/motifs.h"
#include "net/net_event.h"
#include "net/router.h"
#include "net/topology.h"
#include "net/traffic.h"

namespace sst::net {

/// Registers "net.Router", "net.TrafficGenerator", "net.HotspotPhold" and
/// the motif endpoints ("net.PingPong", "net.HaloExchange",
/// "net.Allreduce", "net.AllToAll", "net.Sweep", "net.AppProfile"), each
/// with its declared parameter list, with the process-wide Factory.
/// Idempotent.
void register_library();

}  // namespace sst::net
