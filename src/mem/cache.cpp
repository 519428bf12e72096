#include "mem/cache.h"

#include <bit>
#include <utility>

#include "ckpt/serializer.h"

namespace sst::mem {

Cache::Cache(Params& params) {
  const std::uint64_t size = params.required<UnitAlgebra>("size").to_bytes();
  line_size_ = params.find<std::uint32_t>("line_size", 64);
  assoc_ = params.find<std::uint32_t>("assoc", 8);
  hit_latency_ = params.find_period("hit_latency", "2ns");
  max_mshrs_ = params.find<std::uint32_t>("mshrs", 8);
  const std::string pf = params.find("prefetch", "none");
  if (pf == "none") {
    prefetch_enabled_ = false;
  } else if (pf == "nextline") {
    prefetch_enabled_ = true;
  } else {
    throw ConfigError("cache '" + name() + "': unknown prefetch policy '" +
                      pf + "' (known: none, nextline)");
  }
  prefetch_degree_ = params.find<std::uint32_t>("prefetch_degree", 2);

  if (!std::has_single_bit(line_size_)) {
    throw ConfigError("cache '" + name() + "': line_size must be a power of 2");
  }
  if (assoc_ == 0) throw ConfigError("cache '" + name() + "': assoc must be >= 1");
  if (max_mshrs_ == 0) {
    throw ConfigError("cache '" + name() + "': mshrs must be >= 1");
  }
  const std::uint64_t lines = size / line_size_;
  if (lines == 0 || lines % assoc_ != 0) {
    throw ConfigError("cache '" + name() +
                      "': size must be a multiple of line_size * assoc");
  }
  num_sets_ = static_cast<std::uint32_t>(lines / assoc_);
  if (!std::has_single_bit(num_sets_)) {
    throw ConfigError("cache '" + name() + "': set count must be a power of 2");
  }
  line_shift_ = static_cast<unsigned>(std::countr_zero(line_size_));
  tag_shift_ = line_shift_ + static_cast<unsigned>(std::countr_zero(num_sets_));
  sets_.assign(num_sets_, std::vector<Line>(assoc_));

  cpu_link_ = configure_link(
      "cpu", [this](EventPtr ev) { handle_cpu(std::move(ev)); });
  mem_link_ = configure_link(
      "mem", [this](EventPtr ev) { handle_mem(std::move(ev)); });

  hits_ = stat_counter("hits");
  misses_ = stat_counter("misses");
  writebacks_ = stat_counter("writebacks");
  evictions_ = stat_counter("evictions");
  mshr_merges_ = stat_counter("mshr_merges");
  stalls_ = stat_counter("stalls");
  prefetches_ = stat_counter("prefetches");
  prefetch_hits_ = stat_counter("prefetch_hits");
}

int Cache::lookup(Addr a) const {
  const std::uint32_t set = set_index(a);
  const std::uint64_t tag = tag_of(a);
  for (std::uint32_t way = 0; way < assoc_; ++way) {
    const Line& line = sets_[set][way];
    if (line.valid && line.tag == tag) return static_cast<int>(way);
  }
  return -1;
}

int Cache::choose_victim(std::uint32_t set) const {
  int victim = 0;
  std::uint64_t oldest = ~0ULL;
  for (std::uint32_t way = 0; way < assoc_; ++way) {
    const Line& line = sets_[set][way];
    if (!line.valid) return static_cast<int>(way);
    if (line.lru < oldest) {
      oldest = line.lru;
      victim = static_cast<int>(way);
    }
  }
  return victim;
}

void Cache::touch(std::uint32_t set, int way) {
  sets_[set][static_cast<std::uint32_t>(way)].lru = lru_clock_++;
}

void Cache::respond(const MemEvent& req) {
  cpu_link_->send(req.make_response(), hit_latency_);
}

void Cache::handle_cpu(EventPtr ev) {
  auto req = event_cast<MemEvent>(std::move(ev));
  if (!is_request(req->cmd())) {
    throw SimulationError("cache '" + name() + "': response on cpu port");
  }
  if (line_base(req->addr()) !=
      line_base(req->addr() + (req->size() ? req->size() - 1 : 0))) {
    throw SimulationError("cache '" + name() + "': request crosses line: " +
                          req->describe());
  }
  process_request(std::move(req), /*count_stats=*/true);
}

void Cache::process_request(std::unique_ptr<MemEvent> req,
                            bool count_stats) {
  const Addr line_addr = line_base(req->addr());

  // Writeback from an upstream cache: update in place on hit; pass through
  // on miss (victim bypass — avoids allocating on cold writebacks).
  if (req->cmd() == MemCmd::kPutM) {
    const int way = lookup(req->addr());
    if (way >= 0) {
      const std::uint32_t set = set_index(req->addr());
      sets_[set][static_cast<std::uint32_t>(way)].dirty = true;
      touch(set, way);
      if (count_stats) hits_->add();
    } else {
      mem_link_->send(std::move(req));
    }
    return;
  }

  const int way = lookup(req->addr());
  if (way >= 0) {
    const std::uint32_t set = set_index(req->addr());
    Line& line = sets_[set][static_cast<std::uint32_t>(way)];
    if (line.prefetched) {
      line.prefetched = false;
      prefetch_hits_->add();
    }
    if (req->cmd() == MemCmd::kGetX) {
      line.dirty = true;
    }
    touch(set, way);
    if (count_stats) hits_->add();
    respond(*req);
    return;
  }

  if (count_stats) misses_->add();

  // Merge into an in-flight miss for the same line.  Joining an
  // in-flight prefetch counts as prefetch usefulness (it covered part of
  // the miss latency) and converts the fill into a demand fill.
  if (auto it = mshr_by_line_.find(line_addr); it != mshr_by_line_.end()) {
    Mshr& pending = mshrs_.at(it->second);
    if (pending.prefetch) {
      pending.prefetch = false;
      prefetch_hits_->add();
    }
    pending.waiters.push_back(std::move(req));
    mshr_merges_->add();
    return;
  }

  // MSHR table full: park the request; replay on fill.
  if (mshrs_.size() >= max_mshrs_) {
    stalls_->add();
    stalled_.push_back(std::move(req));
    return;
  }

  const std::uint64_t out_id = next_req_id_++;
  Mshr& mshr = mshrs_[out_id];
  mshr.line_addr = line_addr;
  mshr.waiters.push_back(std::move(req));
  mshr_by_line_[line_addr] = out_id;
  mem_link_->send(
      std::make_unique<MemEvent>(MemCmd::kGetS, line_addr, line_size_, out_id),
      hit_latency_);
  if (prefetch_enabled_) maybe_prefetch(line_addr);
}

void Cache::maybe_prefetch(Addr line_addr) {
  for (std::uint32_t d = 1; d <= prefetch_degree_; ++d) {
    const Addr target = line_addr + static_cast<Addr>(d) * line_size_;
    if (lookup(target) >= 0) continue;               // already resident
    if (mshr_by_line_.contains(target)) continue;    // already in flight
    if (mshrs_.size() >= max_mshrs_) return;         // never stall for a pf
    const std::uint64_t out_id = next_req_id_++;
    Mshr& mshr = mshrs_[out_id];
    mshr.line_addr = target;
    mshr.prefetch = true;
    mshr_by_line_[target] = out_id;
    prefetches_->add();
    mem_link_->send(
        std::make_unique<MemEvent>(MemCmd::kGetS, target, line_size_, out_id),
        hit_latency_);
  }
}

void Cache::install_line(Addr line_addr, bool dirty, bool prefetched) {
  const std::uint32_t set = set_index(line_addr);
  const int way = choose_victim(set);
  Line& line = sets_[set][static_cast<std::uint32_t>(way)];
  if (line.valid) {
    evictions_->add();
    if (line.dirty) {
      writebacks_->add();
      const Addr victim_addr =
          (line.tag << tag_shift_) | (static_cast<Addr>(set) << line_shift_);
      mem_link_->send(std::make_unique<MemEvent>(MemCmd::kPutM, victim_addr,
                                                 line_size_, 0));
    }
  }
  line.valid = true;
  line.dirty = dirty;
  line.prefetched = prefetched;
  line.tag = tag_of(line_addr);
  touch(set, way);
}

void Cache::handle_mem(EventPtr ev) {
  auto resp = event_cast<MemEvent>(std::move(ev));
  if (!is_response(resp->cmd())) {
    throw SimulationError("cache '" + name() + "': request on mem port");
  }
  auto it = mshrs_.find(resp->req_id());
  if (it == mshrs_.end()) {
    throw SimulationError("cache '" + name() + "': fill for unknown MSHR");
  }
  Mshr mshr = std::move(it->second);
  mshrs_.erase(it);
  mshr_by_line_.erase(mshr.line_addr);

  bool dirty = false;
  for (const auto& w : mshr.waiters) {
    if (w->cmd() == MemCmd::kGetX) dirty = true;
  }
  install_line(mshr.line_addr, dirty, mshr.prefetch);
  for (const auto& w : mshr.waiters) respond(*w);

  // Replay stalled requests now that an MSHR freed (each replay may consume
  // the slot again, so stop when the table refills).
  while (!stalled_.empty() && mshrs_.size() < max_mshrs_) {
    auto next = std::move(stalled_.front());
    stalled_.pop_front();
    // Replays were counted (hit/miss) at first sight; don't recount.
    process_request(std::move(next), /*count_stats=*/false);
  }
}

void Cache::Line::ckpt_io(ckpt::Serializer& s) {
  s & tag & valid & dirty & prefetched & lru;
}

void Cache::Mshr::ckpt_io(ckpt::Serializer& s) {
  s & line_addr & prefetch & waiters;
}

void Cache::serialize_state(ckpt::Serializer& s) {
  s & sets_ & lru_clock_ & mshrs_ & mshr_by_line_ & stalled_ & next_req_id_;
}

}  // namespace sst::mem
