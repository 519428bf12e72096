#include "obs/trace.h"

#include <algorithm>
#include <ostream>

#include "ckpt/serializer.h"
#include "obs/json_util.h"

namespace sst::obs {

void TraceRecord::ckpt_io(ckpt::Serializer& s) {
  s & time & kind & id & seq & name & detail;
}

void SyncWindowRecord::ckpt_io(ckpt::Serializer& s) {
  s & start & end & index;
}

void MigrationRecord::ckpt_io(ckpt::Serializer& s) {
  s & start & end & comp & from & to;
}

void Tracer::ckpt_io(ckpt::Serializer& s) {
  s.concat(per_rank_) & windows_ & migrations_;
}

Tracer::Tracer(unsigned num_ranks) : per_rank_(num_ranks) {}

void Tracer::record_delivery(RankId rank, SimTime t, LinkId link,
                             std::uint64_t seq) {
  per_rank_[rank].push_back(
      {t, TraceRecord::Kind::kDelivery, link, seq, {}, {}});
}

void Tracer::record_clock(RankId rank, SimTime t, ComponentId comp,
                          Cycle cycle) {
  per_rank_[rank].push_back({t, TraceRecord::Kind::kClock, comp, cycle,
                             {}, {}});
}

void Tracer::record_marker(RankId rank, SimTime t, ComponentId comp,
                           std::uint64_t seq, std::string name,
                           std::string detail) {
  per_rank_[rank].push_back({t, TraceRecord::Kind::kMarker, comp, seq,
                             std::move(name), std::move(detail)});
}

void Tracer::record_window(SimTime start, SimTime end, std::uint64_t index) {
  windows_.push_back({start, end, index});
}

void Tracer::record_migration(SimTime start, SimTime end, ComponentId comp,
                              RankId from, RankId to) {
  migrations_.push_back({start, end, comp, from, to});
}

std::size_t Tracer::record_count() const {
  std::size_t n = 0;
  for (const auto& buf : per_rank_) n += buf.size();
  return n;
}

namespace {

/// The deterministic total order.  Every record is unique under this key
/// (deliveries: link id + per-link send seq; clocks: component + cycle;
/// markers: component + per-component seq), so the merged order does not
/// depend on how components were spread over ranks.
bool record_less(const TraceRecord& a, const TraceRecord& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.id != b.id) return a.id < b.id;
  return a.seq < b.seq;
}

}  // namespace

void Tracer::write_json(std::ostream& os,
                        const TraceResolver& resolver) const {
  std::vector<TraceRecord> merged;
  merged.reserve(record_count());
  for (const auto& buf : per_rank_)
    merged.insert(merged.end(), buf.begin(), buf.end());
  std::stable_sort(merged.begin(), merged.end(), record_less);

  // Timestamps are integer picoseconds (the engine's native unit) rather
  // than the trace-event default of fractional microseconds: integers keep
  // the output exactly reproducible, and viewers only use ts ordinally.
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  sep();
  os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"model\"}}";
  const std::size_t ncomp = resolver.component_count();
  for (std::size_t c = 0; c < ncomp; ++c) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << c
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << json_escape(resolver.component_name(static_cast<ComponentId>(c)))
       << "\"}}";
  }
  if (include_engine_) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"engine\"}}";
    if (!migrations_.empty()) {
      sep();
      os << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"rebalance\"}}";
    }
  }

  for (const auto& r : merged) {
    sep();
    switch (r.kind) {
      case TraceRecord::Kind::kClock:
        os << "{\"ph\":\"i\",\"pid\":0,\"tid\":" << r.id << ",\"ts\":"
           << r.time << ",\"s\":\"t\",\"cat\":\"clock\",\"name\":\"tick\","
              "\"args\":{\"cycle\":"
           << r.seq << "}}";
        break;
      case TraceRecord::Kind::kDelivery:
        os << "{\"ph\":\"i\",\"pid\":0,\"tid\":"
           << resolver.delivery_target(r.id) << ",\"ts\":" << r.time
           << ",\"s\":\"t\",\"cat\":\"delivery\",\"name\":\""
           << json_escape(resolver.delivery_label(r.id))
           << "\",\"args\":{\"link\":" << r.id << ",\"seq\":" << r.seq
           << "}}";
        break;
      case TraceRecord::Kind::kMarker:
        os << "{\"ph\":\"i\",\"pid\":0,\"tid\":" << r.id << ",\"ts\":"
           << r.time << ",\"s\":\"t\",\"cat\":\"marker\",\"name\":\""
           << json_escape(r.name) << "\",\"args\":{\"seq\":" << r.seq;
        if (!r.detail.empty())
          os << ",\"detail\":\"" << json_escape(r.detail) << "\"";
        os << "}}";
        break;
    }
  }

  if (include_engine_) {
    for (const auto& w : windows_) {
      sep();
      os << "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":" << w.start
         << ",\"dur\":" << (w.end - w.start)
         << ",\"cat\":\"engine\",\"name\":\"sync_window\","
            "\"args\":{\"index\":"
         << w.index << "}}";
    }
    for (const auto& m : migrations_) {
      sep();
      os << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << m.start
         << ",\"dur\":" << (m.end - m.start)
         << ",\"cat\":\"engine\",\"name\":\""
         << json_escape(resolver.component_name(m.comp))
         << "\",\"args\":{\"component\":" << m.comp << ",\"from\":" << m.from
         << ",\"to\":" << m.to << "}}";
    }
  }

  os << "\n]}\n";
}

}  // namespace sst::obs
