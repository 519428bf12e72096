// Communication motifs: MPI-skeleton endpoints that reproduce the
// message-passing signatures of production applications (the layer the
// bandwidth-degradation study runs on).
//
// Execution model is bulk-synchronous: every motif is a little state
// machine driven by step(), which is re-entered whenever its current
// blocking condition (a compute delay or an awaited set of messages)
// resolves.  Motifs are primary components: the simulation ends when all
// of them have finished their iterations.
//
// Params: the list each motif type registers in net_lib.cpp (sstsim
// --list-components prints them).
#pragma once

#include <cstdint>
#include <map>

#include "core/component.h"
#include "net/endpoint.h"

namespace sst::net {

class MotifEndpoint : public NetEndpoint {
 public:
  [[nodiscard]] bool motif_finished() const { return finished_; }
  /// Simulated time this rank finished (valid once motif_finished()).
  [[nodiscard]] SimTime completion_time() const { return completion_time_; }

  void setup() override;

  void serialize_state(ckpt::Serializer& s) override;

 protected:
  explicit MotifEndpoint(Params& params);

  /// The motif state machine.  Called at start and after each blocking
  /// condition resolves; must end by calling exactly one of
  /// compute_for() / await_messages() / motif_done().
  virtual void step() = 0;

  /// Blocks the state machine for `duration`, then re-enters step().
  void compute_for(SimTime duration);

  /// Blocks until `count` messages with tag `tag` have arrived (messages
  /// that arrived early are counted), then re-enters step().
  void await_messages(std::uint64_t tag, std::uint32_t count);

  /// Marks this rank's motif complete.
  void motif_done();

 private:
  void on_message(NodeId src, std::uint64_t bytes, std::uint64_t tag,
                  SimTime msg_start) final;
  void check_await();
  void enter_step();

  /// Hook for subclasses that want per-message visibility.
  virtual void on_motif_message(NodeId src, std::uint64_t bytes,
                                std::uint64_t tag) {
    (void)src;
    (void)bytes;
    (void)tag;
  }

  Link* timer_;
  bool started_ = false;
  bool finished_ = false;
  bool in_step_ = false;
  bool blocked_set_ = false;  // step() installed its next condition
  SimTime completion_time_ = 0;

  bool awaiting_ = false;
  std::uint64_t await_tag_ = 0;
  std::uint32_t await_need_ = 0;
  std::map<std::uint64_t, std::uint32_t> arrived_;

  Accumulator* compute_time_;
};

/// Rank 0 and 1 bounce a message back and forth; other ranks idle.
class PingPongMotif final : public MotifEndpoint {
 public:
  explicit PingPongMotif(Params& params);

 private:
  void step() override;
  void serialize_state(ckpt::Serializer& s) override;

  std::uint32_t iterations_;
  std::uint64_t msg_bytes_;
  std::uint32_t iter_ = 0;
  unsigned phase_ = 0;
};

/// 3-D periodic halo exchange on a px*py*pz process grid (px*py*pz ==
/// num_nodes): per iteration, exchange one message with each of 6 face
/// neighbours, then compute.
class HaloExchangeMotif final : public MotifEndpoint {
 public:
  explicit HaloExchangeMotif(Params& params);

 private:
  void step() override;
  void serialize_state(ckpt::Serializer& s) override;
  [[nodiscard]] NodeId neighbor(int dim, int dir) const;

  std::uint32_t px_, py_, pz_;
  std::uint64_t msg_bytes_;
  SimTime compute_;
  std::uint32_t iterations_;
  std::uint32_t iter_ = 0;
  unsigned phase_ = 0;
};

/// Recursive-doubling allreduce (requires power-of-two node count).
class AllreduceMotif final : public MotifEndpoint {
 public:
  explicit AllreduceMotif(Params& params);

 private:
  void step() override;
  void serialize_state(ckpt::Serializer& s) override;

  std::uint64_t msg_bytes_;
  std::uint32_t iterations_;
  SimTime compute_;
  std::uint32_t log2_nodes_ = 0;
  std::uint32_t iter_ = 0;
  std::uint32_t round_ = 0;
  unsigned phase_ = 0;
};

/// Every rank sends a personalized message to every other rank, then
/// computes.
class AllToAllMotif final : public MotifEndpoint {
 public:
  explicit AllToAllMotif(Params& params);

 private:
  void step() override;
  void serialize_state(ckpt::Serializer& s) override;

  std::uint64_t msg_bytes_;
  std::uint32_t iterations_;
  SimTime compute_;
  std::uint32_t iter_ = 0;
  unsigned phase_ = 0;
};

/// Wavefront sweep (Sweep3D-style): ranks form a px*py pipeline (px*py ==
/// num_nodes); each rank waits for its west and north inputs, computes,
/// then feeds east and south.  Successive sweeps pipeline through the
/// grid, so the motif measures both fill latency and steady-state
/// wavefront throughput.
class SweepMotif final : public MotifEndpoint {
 public:
  explicit SweepMotif(Params& params);

 private:
  void step() override;
  void serialize_state(ckpt::Serializer& s) override;

  std::uint32_t px_, py_;
  std::uint64_t msg_bytes_;
  SimTime compute_;
  std::uint32_t sweeps_;
  std::uint32_t sweep_ = 0;
  unsigned phase_ = 0;
};

/// Composite application profile: per timestep, compute, then a 3-D halo
/// exchange (skipped when halo_bytes is 0), then collective_count small
/// allreduce-style global phases (skipped when collective_bytes is 0).
/// Parameterized to mimic the communication signature of production codes
/// (CTH, SAGE, xNOBEL, Charon in the bandwidth study).
class AppProfileMotif final : public MotifEndpoint {
 public:
  explicit AppProfileMotif(Params& params);

 private:
  void step() override;
  void serialize_state(ckpt::Serializer& s) override;
  [[nodiscard]] NodeId neighbor(int dim, int dir) const;

  std::uint32_t px_, py_, pz_;
  SimTime compute_;
  std::uint64_t halo_bytes_;
  std::uint64_t collective_bytes_;
  std::uint32_t collective_count_;
  std::uint32_t iterations_;
  std::uint32_t log2_nodes_ = 0;

  std::uint32_t iter_ = 0;
  std::uint32_t collective_i_ = 0;
  std::uint32_t round_ = 0;
  unsigned phase_ = 0;
};

}  // namespace sst::net
