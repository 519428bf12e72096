#include "mem/memory_controller.h"

#include <map>
#include <utility>

#include "ckpt/event_registry.h"
#include "ckpt/serializer.h"

namespace sst::mem {

MemoryController::MemoryController(Params& params) {
  const std::string kind = params.find("backend", "dram");
  if (kind == "dram") {
    const std::string preset = params.find("preset", "DDR3");
    backend_ = std::make_unique<DramBackend>(DramTimingParams::preset(preset));
  } else if (kind == "simple") {
    const SimTime latency = params.find_time("latency", "60ns");
    const double bw = params.find<double>("bandwidth_gbs", 10.667);
    backend_ = std::make_unique<SimpleBackend>(latency, bw);
  } else {
    throw ConfigError("memory controller '" + name() +
                      "': unknown backend '" + kind +
                      "' (known: dram, simple)");
  }

  const double ber = params.find<double>("ber", 0.0);
  const std::string ecc = params.find("ecc", "secded");
  if (ecc != "secded" && ecc != "none") {
    throw ConfigError("memory controller '" + name() + "': unknown ecc '" +
                      ecc + "' (known: secded, none)");
  }
  ecc_model_ = fault::SecdedModel(ber, /*data_bits=*/64,
                                  /*secded=*/ecc == "secded");
  fatal_uncorrected_ = params.find<bool>("fatal_uncorrected", false);

  cpu_link_ = configure_link(
      "cpu", [this](EventPtr ev) { handle_cpu(std::move(ev)); });
  self_link_ = configure_self_link(
      "complete", 0, [this](EventPtr ev) { handle_complete(std::move(ev)); });

  reads_ = stat_counter("reads");
  writes_ = stat_counter("writes");
  bytes_ = stat_counter("bytes");
  access_latency_ = stat_accumulator("access_latency_ps");
  row_hits_ = stat_counter("row_hits");
  row_misses_ = stat_counter("row_misses");
  ecc_corrected_ = stat_counter("ecc_corrected");
  ecc_uncorrected_ = stat_counter("ecc_uncorrected");
  silent_errors_ = stat_counter("silent_errors");
}

void MemoryController::sample_read_faults(std::uint32_t size) {
  // One SECDED word per 8 data bytes (partial words still occupy one).
  const std::uint32_t words = (size + 7) / 8;
  for (std::uint32_t w = 0; w < words; ++w) {
    switch (ecc_model_.sample(rng())) {
      case fault::EccOutcome::kClean:
        break;
      case fault::EccOutcome::kCorrected:
        ecc_corrected_->add();
        break;
      case fault::EccOutcome::kUncorrected:
        ecc_uncorrected_->add();
        if (fatal_uncorrected_) {
          throw SimulationError("memctrl '" + name() +
                                "': uncorrectable ECC error");
        }
        break;
      case fault::EccOutcome::kSilent:
        silent_errors_->add();
        break;
    }
  }
}

void MemoryController::handle_cpu(EventPtr ev) {
  auto req = event_cast<MemEvent>(std::move(ev));
  if (!is_request(req->cmd())) {
    throw SimulationError("memctrl '" + name() + "': response on cpu port");
  }
  const bool is_write =
      req->cmd() == MemCmd::kGetX || req->cmd() == MemCmd::kPutM;
  if (is_write) {
    writes_->add();
  } else {
    reads_->add();
    if (ecc_model_.enabled()) sample_read_faults(req->size());
  }
  bytes_->add(req->size());

  const std::uint64_t token = next_token_++;
  in_flight_.emplace(
      token,
      InFlight{expects_response(req->cmd()) ? req->make_response() : nullptr,
               now()});
  backend_->push(token, req->addr(), is_write, req->size(), now());
  pump();
}

void MemoryController::pump() {
  completions_.clear();
  backend_->advance(now(), completions_);
  for (const MemCompletion& c : completions_) {
    auto it = in_flight_.find(c.token);
    if (it == in_flight_.end()) {
      throw SimulationError("memctrl '" + name() +
                            "': backend completed unknown token");
    }
    if (c.time < now()) {
      throw SimulationError("memctrl '" + name() +
                            "': backend completion in the past");
    }
    access_latency_->add(static_cast<double>(c.time - it->second.arrival));
    EventPtr resp = std::move(it->second.resp);
    in_flight_.erase(it);
    if (resp) {
      // Hold the response until the data is on the bus.
      self_link_->send(std::make_unique<CompletionEvent>(std::move(resp)),
                       c.time - now());
    }
  }
  // Arm a wakeup for the backend's next decision point.
  const SimTime na = backend_->next_action();
  if (na != kTimeNever && na > now() &&
      (wake_armed_for_ == kTimeNever || na < wake_armed_for_ ||
       wake_armed_for_ <= now())) {
    wake_armed_for_ = na;
    self_link_->send(std::make_unique<CompletionEvent>(nullptr),
                     na - now());
  }
}

void MemoryController::handle_complete(EventPtr ev) {
  auto completion = event_cast<CompletionEvent>(std::move(ev));
  if (completion->is_wakeup()) {
    if (wake_armed_for_ == now()) wake_armed_for_ = kTimeNever;
    pump();
    return;
  }
  cpu_link_->send(completion->take_response());
}

void MemoryController::finish() {
  if (const DramBackend* d = dram()) {
    row_hits_->add(d->row_hits());
    row_misses_->add(d->row_misses());
  }
}

void MemoryController::CompletionEvent::ckpt_fields(ckpt::Serializer& s) {
  s & resp_;
}

void MemoryController::register_ckpt_events() {
  ckpt::EventRegistry::instance().register_type("mem.Completion", [] {
    return std::make_unique<CompletionEvent>(nullptr);
  });
}

void MemoryController::serialize_state(ckpt::Serializer& s) {
  // The in-flight table is written as two ordered maps, token -> response
  // and token -> arrival, so the bytes do not depend on hash order.
  std::map<std::uint64_t, EventPtr> awaiting;
  std::map<std::uint64_t, SimTime> arrival;
  for (auto& [token, f] : in_flight_) {
    awaiting.emplace(token, std::move(f.resp));
    arrival.emplace(token, f.arrival);
  }
  in_flight_.clear();
  s & awaiting & arrival & next_token_ & wake_armed_for_;
  for (auto& [token, resp] : awaiting) {
    auto a = arrival.find(token);
    if (a == arrival.end()) break;
    in_flight_.emplace(token, InFlight{std::move(resp), a->second});
  }
  if (in_flight_.size() != awaiting.size() ||
      in_flight_.size() != arrival.size()) {
    throw ckpt::CheckpointError("memctrl '" + name() +
                                "': checkpoint in-flight tables disagree");
  }
  backend_->serialize(s);
}

}  // namespace sst::mem
