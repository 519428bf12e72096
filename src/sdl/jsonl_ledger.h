// Append-only JSONL ledger file, shared by the sweep ledger (dse/ledger.h)
// and the daemon request ledger (daemon/request_ledger.h): a header line,
// then one JSON object per line, appended durably (append_durable).  A
// malformed *final* line is the torn tail of a killed appender: load()
// truncates it (with a note on stderr) and drops it.  A malformed
// interior line is corruption and throws.  Each ledger keeps its own
// record type, header check, error type and commit style.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/atomic_file.h"
#include "core/types.h"
#include "sdl/json.h"
#include "sdl/settings.h"

namespace sst::sdl {

/// `Error` is the owning ledger's exception type, built from a message.
template <class Error>
class JsonlLedger {
 public:
  /// `tag` prefixes the torn-tail note ("dse", "sstsimd").
  JsonlLedger(std::string path, std::string tag)
      : path_(std::move(path)), tag_(std::move(tag)) {}

  /// Every intact line, header first (none when the file is absent).
  std::vector<JsonValue> load() {
    std::vector<JsonValue> docs;
    std::ifstream in(path_);
    std::string line;
    std::string malformed;  // why the last malformed line did not parse
    std::size_t lineno = 0, torn_lineno = 0, torn_size = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty()) continue;
      if (!malformed.empty()) throw Error(malformed);  // not the final line
      try {
        docs.push_back(JsonValue::parse(line));
      } catch (const JsonError& e) {
        malformed = "ledger '" + path_ + "' line " + std::to_string(lineno) +
                    " is malformed: " + e.what();
        torn_lineno = lineno;
        torn_size = line.size();
      }
    }
    if (!malformed.empty()) {
      std::cerr << "[" << tag_ << "] ledger '" << path_
                << "': dropping torn final line " << torn_lineno
                << " (interrupted append)\n";
      const std::string err = truncate_torn_tail(path_, torn_size);
      if (!err.empty()) {
        throw Error("ledger '" + path_ + "': cannot repair torn tail: " + err);
      }
    }
    header_written_ = !docs.empty();
    return docs;
  }

  /// Durably appends `lines` (newline-terminated), preceded by the
  /// `header` line when the file has none yet.
  void append(const std::string& header, const std::string& lines) {
    const std::string err = append_durable(
        path_, header_written_ ? lines : header + "\n" + lines);
    if (!err.empty()) throw Error("ledger '" + path_ + "': " + err);
    header_written_ = true;
  }

  /// Member `key` of a loaded line as a whole number in [0, hi]
  /// (setting_count); when absent, `fallback`, or an error if there is
  /// none.  Any other value throws Error naming the file and the member.
  [[nodiscard]] std::uint64_t count(
      const JsonValue& line, const char* key, std::uint64_t hi,
      std::optional<std::uint64_t> fallback = std::nullopt) const {
    if (!line.has(key)) {
      if (fallback) return *fallback;
      throw Error(field(key) + " is missing");
    }
    try {
      return setting_count(line.at(key), field(key), 0, hi);
    } catch (const ConfigError& e) {
      throw Error(e.what());
    }
  }

  /// Member `key` of a loaded line as a string, as count() reads a
  /// number: absent is `fallback` or an error, any other value an error.
  [[nodiscard]] std::string text(
      const JsonValue& line, const char* key,
      std::optional<std::string> fallback = std::nullopt) const {
    if (!line.has(key)) {
      if (fallback) return *fallback;
      throw Error(field(key) + " is missing");
    }
    if (!line.at(key).is_string()) throw Error(field(key) + " is not a string");
    return line.at(key).as_string();
  }

  /// Member `key` of a loaded line as a list of strings (empty when
  /// absent); any other value throws Error naming the file and member.
  [[nodiscard]] std::vector<std::string> texts(const JsonValue& line,
                                               const char* key) const {
    std::vector<std::string> out;
    if (!line.has(key)) return out;
    const JsonValue& list = line.at(key);
    if (!list.is_array() ||
        !std::ranges::all_of(list.as_array(), &JsonValue::is_string)) {
      throw Error(field(key) + " is not a list of strings");
    }
    for (const JsonValue& v : list.as_array()) out.push_back(v.as_string());
    return out;
  }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  [[nodiscard]] std::string field(const char* key) const {
    return "ledger '" + path_ + "' field \"" + key + "\"";
  }

  std::string path_;
  std::string tag_;
  bool header_written_ = false;
};

}  // namespace sst::sdl
