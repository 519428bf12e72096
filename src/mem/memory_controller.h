// Memory controller: terminates the memory hierarchy.  Owns a backend
// (detailed DRAM timing or the abstract fixed-latency model — SST's
// multi-fidelity knob) and converts MemEvents into backend accesses.
//
// Ports:
//   "cpu" — upstream
//
// Params: the "mem.MemoryController" list registered in mem_lib.cpp
// (sstsim --list-components prints it).
//
// Fault model: with ber > 0 every read samples bit-flips per 64-bit word
// (SECDED(72,64) organisation).  With ECC, single-bit flips are corrected
// ("ecc_corrected") and multi-bit flips detected ("ecc_uncorrected");
// without, any flip is silent corruption ("silent_errors").  Sampling
// draws from the component RNG stream, so counts are deterministic.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/component.h"
#include "fault/ecc.h"
#include "mem/dram.h"
#include "mem/mem_event.h"

namespace sst::mem {

class MemoryController final : public Component {
 public:
  explicit MemoryController(Params& params);

  [[nodiscard]] const MemBackend& backend() const { return *backend_; }
  /// Non-null when the backend is the detailed DRAM model.
  [[nodiscard]] const DramBackend* dram() const {
    return dynamic_cast<const DramBackend*>(backend_.get());
  }

  [[nodiscard]] std::uint64_t reads() const { return reads_->count(); }
  [[nodiscard]] std::uint64_t writes() const { return writes_->count(); }
  [[nodiscard]] std::uint64_t bytes_transferred() const {
    return bytes_->count();
  }
  [[nodiscard]] std::uint64_t corrected_errors() const {
    return ecc_corrected_->count();
  }
  [[nodiscard]] std::uint64_t uncorrected_errors() const {
    return ecc_uncorrected_->count();
  }
  [[nodiscard]] std::uint64_t silent_errors() const {
    return silent_errors_->count();
  }
  /// Requests accepted whose backend completion has not been decided.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }

  void finish() override;

  void serialize_state(ckpt::Serializer& s) override;
  /// Registers the private CompletionEvent with the checkpoint event
  /// registry (called from mem::register_library()).
  static void register_ckpt_events();

 private:
  /// Carries the prepared response until the backend completion time.
  class CompletionEvent final : public Event {
   public:
    explicit CompletionEvent(EventPtr resp) : resp_(std::move(resp)) {}
    [[nodiscard]] EventPtr take_response() { return std::move(resp_); }
    [[nodiscard]] bool is_wakeup() const { return resp_ == nullptr; }

    [[nodiscard]] const char* ckpt_type() const override {
      return "mem.Completion";
    }
    void ckpt_fields(ckpt::Serializer& s) override;

   private:
    EventPtr resp_;
  };

  void handle_cpu(EventPtr ev);
  void handle_complete(EventPtr ev);
  /// Samples transient bit-flips for one read of `size` bytes.
  void sample_read_faults(std::uint32_t size);
  /// Advances the backend, dispatches decided completions, re-arms the
  /// wakeup for the backend's next decision point.
  void pump();

  Link* cpu_link_;
  Link* self_link_;
  std::unique_ptr<MemBackend> backend_;

  /// A request awaiting its backend decision.
  struct InFlight {
    EventPtr resp;    // prepared response; null for PutM (no response)
    SimTime arrival;  // for access_latency_ps
  };

  std::unordered_map<std::uint64_t, InFlight> in_flight_;  // key: token
  std::vector<MemCompletion> completions_;  // pump()'s reused buffer
  std::uint64_t next_token_ = 1;
  SimTime wake_armed_for_ = kTimeNever;

  fault::SecdedModel ecc_model_{0.0};
  bool fatal_uncorrected_ = false;

  Counter* reads_;
  Counter* writes_;
  Counter* bytes_;
  Accumulator* access_latency_;
  Counter* row_hits_;
  Counter* row_misses_;
  Counter* ecc_corrected_;
  Counter* ecc_uncorrected_;
  Counter* silent_errors_;
};

}  // namespace sst::mem
