#include "obs/metrics.h"

#include <algorithm>
#include <ostream>

#include "ckpt/serializer.h"
#include "obs/json_util.h"

namespace sst::obs {

void MetricsCollector::ModelSample::ckpt_io(ckpt::Serializer& s) {
  s & time & comp & payload;
}

void MetricsCollector::EngineSample::ckpt_io(ckpt::Serializer& s) {
  s & time & rank & payload;
}

void MetricsCollector::ckpt_io(ckpt::Serializer& s) {
  s.concat(per_rank_) & engine_;
}

MetricsCollector::MetricsCollector(unsigned num_ranks)
    : per_rank_(num_ranks) {}

void MetricsCollector::record(RankId rank, SimTime t, ComponentId comp,
                              std::string payload) {
  per_rank_[rank].push_back({t, comp, std::move(payload)});
}

void MetricsCollector::record_engine(RankId rank, SimTime t,
                                     std::string payload) {
  engine_.push_back({t, rank, std::move(payload)});
}

std::size_t MetricsCollector::sample_count() const {
  std::size_t n = 0;
  for (const auto& buf : per_rank_) n += buf.size();
  return n;
}

void MetricsCollector::write_jsonl(std::ostream& os,
                                   const TraceResolver& resolver) const {
  std::vector<ModelSample> merged;
  merged.reserve(sample_count());
  for (const auto& buf : per_rank_)
    merged.insert(merged.end(), buf.begin(), buf.end());
  // (time, component) is unique: each component is sampled at most once
  // per period tick, by exactly one rank's sampling clock.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const ModelSample& a, const ModelSample& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.comp < b.comp;
                   });

  std::vector<EngineSample> eng = engine_;
  std::stable_sort(eng.begin(), eng.end(),
                   [](const EngineSample& a, const EngineSample& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.rank < b.rank;
                   });

  // Interleave so the stream stays time-ordered overall; model lines
  // precede engine lines at equal timestamps.
  std::size_t ei = 0;
  auto flush_engine_until = [&](SimTime t) {
    if (!include_engine_) return;
    while (ei < eng.size() && eng[ei].time < t) {
      os << "{\"t\":" << eng[ei].time << ",\"rank\":" << eng[ei].rank
         << ",\"engine\":" << eng[ei].payload << "}\n";
      ++ei;
    }
  };
  for (const auto& s : merged) {
    flush_engine_until(s.time);
    os << "{\"t\":" << s.time << ",\"component\":\""
       << json_escape(resolver.component_name(s.comp))
       << "\",\"stats\":" << s.payload << "}\n";
  }
  flush_engine_until(kTimeNever);
}

}  // namespace sst::obs
