#include "dse/ledger.h"

#include <sstream>

#include "obs/json_util.h"

namespace sst::dse {

namespace {

std::string record_to_line(const LedgerRecord& r) {
  std::ostringstream os;
  os << "{\"point\":" << r.point << ",\"status\":\""
     << obs::json_escape(r.status) << "\",\"exit\":" << r.exit_code
     << ",\"signal\":" << r.term_signal << ",\"attempts\":" << r.attempts
     << ",\"values\":[";
  for (std::size_t i = 0; i < r.values.size(); ++i) {
    os << (i ? "," : "") << "\"" << obs::json_escape(r.values[i]) << "\"";
  }
  os << "]}";
  return os.str();
}

}  // namespace

Ledger::Ledger(std::string path) : file_(std::move(path), "dse") {}

bool Ledger::load(const std::string& sweep_name, std::uint64_t point_count) {
  const std::vector<sdl::JsonValue> docs = file_.load();
  if (docs.empty()) return false;
  // Header: {"sweep": name, "points": N}
  const sdl::JsonValue& header = docs.front();
  if (!header.has("sweep") || !header.has("points")) {
    throw SweepError("ledger '" + path() + "' has no header line");
  }
  const std::string sweep = file_.text(header, "sweep");
  if (sweep != sweep_name) {
    throw SweepError("ledger '" + path() + "' belongs to sweep '" + sweep +
                     "', not '" + sweep_name + "'");
  }
  const std::uint64_t recorded = file_.count(header, "points", UINT64_MAX);
  if (recorded != point_count) {
    throw SweepError("ledger '" + path() + "' records " +
                     std::to_string(recorded) +
                     " points but the spec generates " +
                     std::to_string(point_count) +
                     " (was the spec edited mid-sweep?)");
  }
  for (std::size_t i = 1; i < docs.size(); ++i) {
    const sdl::JsonValue& doc = docs[i];
    LedgerRecord r;
    r.point = file_.count(doc, "point", UINT64_MAX);
    r.status = file_.text(doc, "status");
    r.exit_code = static_cast<int>(file_.count(doc, "exit", 255, 0));
    r.term_signal = static_cast<int>(file_.count(doc, "signal", 64, 0));
    r.attempts = static_cast<unsigned>(file_.count(doc, "attempts",
                                                   UINT32_MAX, 1));
    r.values = file_.texts(doc, "values");
    records_[r.point] = std::move(r);
  }
  return true;
}

void Ledger::append(const LedgerRecord& record, const std::string& sweep_name,
                    std::uint64_t point_count) {
  records_[record.point] = record;
  file_.append("{\"sweep\":\"" + obs::json_escape(sweep_name) +
                   "\",\"points\":" + std::to_string(point_count) + "}",
               record_to_line(record) + "\n");
}

}  // namespace sst::dse
