#include "daemon/request_ledger.h"

#include <charconv>
#include <sstream>

#include "obs/json_util.h"

namespace sst::daemon {

namespace {

constexpr std::uint64_t kLedgerVersion = 1;

std::string record_to_line(const RequestRecord& r) {
  std::ostringstream os;
  os << "{\"id\":\"" << obs::json_escape(r.id) << "\",\"status\":\""
     << obs::json_escape(r.status) << "\",\"exit\":" << r.exit_code
     << ",\"signal\":" << r.term_signal << ",\"attempts\":" << r.attempts
     << ",\"out\":\"" << obs::json_escape(r.out_dir) << "\",\"hash\":\""
     << std::hex << r.content_hash << std::dec << "\",\"error\":\""
     << obs::json_escape(r.error) << "\"}";
  return os.str();
}

}  // namespace

void RequestLedger::load() {
  const std::vector<sdl::JsonValue> docs = file_.load();
  if (docs.empty()) return;
  const sdl::JsonValue& header = docs.front();
  if (file_.text(header, "daemon", "") != "sstsimd") {
    throw DaemonError("'" + path() + "' is not an sstsimd request ledger");
  }
  const std::uint64_t version = file_.count(header, "version", UINT32_MAX, 0);
  if (version != kLedgerVersion) {
    throw DaemonError("ledger '" + path() + "' has version " +
                      std::to_string(version) + ", this daemon writes version " +
                      std::to_string(kLedgerVersion));
  }
  for (std::size_t i = 1; i < docs.size(); ++i) {
    const sdl::JsonValue& doc = docs[i];
    RequestRecord r;
    r.id = file_.text(doc, "id");
    r.status = file_.text(doc, "status");
    r.exit_code = static_cast<int>(file_.count(doc, "exit", 255, 0));
    r.term_signal = static_cast<int>(file_.count(doc, "signal", 64, 0));
    r.attempts = static_cast<unsigned>(file_.count(doc, "attempts",
                                                   UINT32_MAX, 0));
    r.out_dir = file_.text(doc, "out", "");
    const std::string hash = file_.text(doc, "hash", "0");
    const char* end = hash.data() + hash.size();
    const auto [ptr, ec] =
        std::from_chars(hash.data(), end, r.content_hash, 16);
    if (ec != std::errc() || ptr != end) {
      throw DaemonError("ledger '" + path() +
                        "' field \"hash\" must be a hex number, got '" +
                        hash + "'");
    }
    r.error = file_.text(doc, "error", "");
    records_[r.id] = std::move(r);
  }
}

void RequestLedger::record(const RequestRecord& rec) {
  records_[rec.id] = rec;
  pending_ += record_to_line(rec);
  pending_ += '\n';
}

void RequestLedger::flush() {
  if (pending_.empty()) return;
  file_.append("{\"daemon\":\"sstsimd\",\"version\":" +
                   std::to_string(kLedgerVersion) + "}",
               pending_);
  pending_.clear();
}

std::vector<RequestRecord> RequestLedger::pending() const {
  std::vector<RequestRecord> out;
  for (const auto& [id, r] : records_) {
    (void)id;
    if (!r.final()) out.push_back(r);
  }
  return out;
}

}  // namespace sst::daemon
