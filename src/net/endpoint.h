// NetEndpoint: base class for network endpoints (compute nodes).
//
// Provides the NIC layer: message segmentation into MTU-sized packets,
// injection-bandwidth throttling (the knob of the bandwidth-degradation
// study), and receive-side reassembly.  Subclasses implement on_message()
// and drive traffic with send_message().
//
// Reassembly tracks per-packet sequence numbers, so duplicated packets
// (fault models, retransmissions) are discarded rather than corrupting
// byte counts.  With `ack` enabled the endpoint runs a reliable-delivery
// protocol: receivers acknowledge completed messages, senders retransmit
// on timeout with exponential backoff, and a message that exhausts its
// retries is recorded in the "delivery_failed" counter (plus the
// on_delivery_failed() hook) instead of crashing the run.
//
// Ports:
//   "net" — to the attached router
//
// Params: the endpoint keys that every endpoint type's list in
// net_lib.cpp includes (sstsim --list-components prints them).
// `retry_max` 0 detects and counts loss but never retransmits.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/component.h"
#include "net/net_event.h"

namespace sst::net {

class NetEndpoint : public Component {
 public:
  [[nodiscard]] NodeId node_id() const { return node_id_; }
  /// Assigned by the TopologyBuilder (in endpoint order).
  void set_node_id(NodeId id) { node_id_ = id; }
  /// Total endpoints in the network; set by the TopologyBuilder.
  void set_num_nodes(std::uint32_t n) { num_nodes_ = n; }
  [[nodiscard]] std::uint32_t num_nodes() const { return num_nodes_; }

  /// Valiant routing: when enabled (by the TopologyBuilder), every
  /// message is bounced through a uniformly random intermediate node,
  /// trading doubled average path length for immunity to adversarial
  /// traffic patterns.
  void set_valiant(bool enabled) { valiant_ = enabled; }
  [[nodiscard]] bool valiant() const { return valiant_; }

  [[nodiscard]] std::uint64_t messages_sent() const {
    return msgs_sent_->count();
  }
  [[nodiscard]] std::uint64_t messages_received() const {
    return msgs_recv_->count();
  }
  [[nodiscard]] std::uint64_t retries() const { return retries_->count(); }
  [[nodiscard]] std::uint64_t delivery_failures() const {
    return delivery_failed_->count();
  }
  [[nodiscard]] bool ack_enabled() const { return ack_; }

  void serialize_state(ckpt::Serializer& s) override;

 protected:
  explicit NetEndpoint(Params& params);

  /// Queues a message for transmission.  Returns the message id.
  /// Packets serialize through the NIC at the injection bandwidth.
  std::uint64_t send_message(NodeId dst, std::uint64_t bytes,
                             std::uint64_t tag);

  /// Called when a complete message has been reassembled.
  /// `msg_start` is the simulated time the sender posted the message.
  virtual void on_message(NodeId src, std::uint64_t bytes, std::uint64_t tag,
                          SimTime msg_start) = 0;

  /// Called when a message exhausts its retries (ack mode).  The loss is
  /// already recorded in "delivery_failed"; override to react.
  virtual void on_delivery_failed(NodeId dst, std::uint64_t bytes,
                                  std::uint64_t tag) {
    (void)dst;
    (void)bytes;
    (void)tag;
  }

  /// Observed message latency statistic (post time -> last byte arrival).
  Accumulator* msg_latency_;

 private:
  void handle_net(EventPtr ev);
  void handle_retry(EventPtr ev);
  /// Segments one message into packets on the NIC (used for both first
  /// transmission and retransmissions).  `randomize_path` forces a random
  /// intermediate hop (Valiant-style), so retransmissions explore a
  /// different route than the one that just failed.
  void transmit_packets(NodeId dst, std::uint64_t bytes, std::uint64_t tag,
                        std::uint64_t msg_id, SimTime msg_start,
                        bool randomize_path = false);
  void arm_retry_timer(std::uint64_t msg_id, std::uint32_t attempt);
  /// `randomize_path` bounces the ACK off a random intermediate —
  /// re-ACKs of retransmitted messages use it so a deterministically
  /// black-holed ACK route cannot starve the sender forever.
  void send_ack(NodeId dst, std::uint64_t msg_id,
                bool randomize_path = false);

  Link* net_link_;
  Link* retry_link_ = nullptr;  // only configured in ack mode
  NodeId node_id_ = kInvalidNode;
  std::uint32_t num_nodes_ = 0;
  bool valiant_ = false;
  bool ack_ = false;
  std::uint32_t retry_max_ = 0;
  SimTime retry_timeout_ = 0;
  double retry_backoff_ = 2.0;
  double inj_bytes_per_ps_;
  std::uint32_t mtu_;
  SimTime inj_busy_ = 0;
  std::uint64_t next_msg_id_ = 1;

  struct Partial {
    std::uint64_t received = 0;
    std::vector<std::uint64_t> seen;  // bitmap over pkt_seq
    /// True if seq was already received (and marks it received).
    bool test_and_set(std::uint32_t seq);

    void ckpt_io(ckpt::Serializer& s);
  };
  std::map<std::pair<NodeId, std::uint64_t>, Partial> reassembly_;
  // Messages already delivered to on_message (ack mode: duplicates of a
  // completed message are re-ACKed, never re-delivered).
  std::set<std::pair<NodeId, std::uint64_t>> completed_;
  struct Outstanding {
    NodeId dst;
    std::uint64_t bytes;
    std::uint64_t tag;
    SimTime msg_start;
    std::uint32_t attempts = 0;

    void ckpt_io(ckpt::Serializer& s);
  };
  std::map<std::uint64_t, Outstanding> outstanding_;

  Counter* msgs_sent_;
  Counter* msgs_recv_;
  Counter* bytes_sent_;
  Counter* packets_sent_;
  Counter* retries_;
  Counter* acks_sent_;
  Counter* delivery_failed_;
  Counter* dup_packets_;
};

}  // namespace sst::net
