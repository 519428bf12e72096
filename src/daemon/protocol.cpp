#include "daemon/protocol.h"

#include <algorithm>
#include <climits>
#include <sstream>

#include "core/params.h"
#include "obs/json_util.h"
#include "sdl/settings.h"

namespace sst::daemon {

namespace {

/// Older clients' run fields, each an override; `keep` means the model's.
struct Alias {
  const char* field;
  const char* path;
  const char* keep;
};
constexpr Alias kAliases[] = {{"ranks", "/config/num_ranks", "0"},
                              {"end", "/config/end_time", ""},
                              {"seed", "/config/seed", nullptr}};

void append_common_run_fields(std::ostream& os, const RunRequest& req) {
  os << "\"id\":\"" << obs::json_escape(req.id) << "\",\"model\":\""
     << obs::json_escape(req.model_json) << "\",\"out\":\""
     << obs::json_escape(req.out_dir) << "\",\"overrides\":{";
  bool first = true;
  for (const auto& [path, value] : req.overrides) {
    if (!first) os << ",";
    first = false;
    os << "\"" << obs::json_escape(path) << "\":\""
       << obs::json_escape(value) << "\"";
  }
  os << "},\"timeout\":" << obs::json_number(req.timeout_seconds)
     << ",\"retries\":" << req.retries
     << ",\"backoff\":" << obs::json_number(req.backoff_seconds);
  if (req.test_signal != 0) os << ",\"test_signal\":" << req.test_signal;
}

/// Reads member `key` of a reply as a whole number in [lo, hi], or
/// `fallback` when it is absent; a bad value throws ConfigError naming
/// `kind` and the key.
std::uint64_t reply_count(const sdl::JsonValue& doc, const char* kind,
                          const char* key, std::uint64_t fallback,
                          std::uint64_t lo, std::uint64_t hi) {
  if (!doc.has(key)) return fallback;
  return sdl::setting_count(
      doc.at(key), std::string(kind) + " \"" + key + "\"", lo, hi);
}

}  // namespace

ClientMessage parse_client_message(const std::string& line) {
  sdl::JsonValue doc;
  try {
    doc = sdl::JsonValue::parse(line);
  } catch (const sdl::JsonError& e) {
    throw DaemonError(std::string("malformed request line: ") + e.what());
  }
  if (!doc.is_object() || !doc.has("op") || !doc.at("op").is_string()) {
    throw DaemonError(
        "request line must be an object with a string \"op\" field");
  }
  const std::string op = doc.at("op").as_string();
  ClientMessage msg;
  // A field of the wrong type (JsonError) or a bad value (ConfigError)
  // fails this request, never the daemon.
  try {
    if (op == "run") {
      msg.op = ClientMessage::Op::kRun;
      msg.run = run_request_from_json(doc);
    } else if (op == "status") {
      msg.op = ClientMessage::Op::kStatus;
    } else if (op == "result") {
      msg.op = ClientMessage::Op::kResult;
      if (!doc.has("id")) throw DaemonError("result op requires an \"id\"");
      msg.id = doc.at("id").as_string();
    } else if (op == "drain") {
      msg.op = ClientMessage::Op::kDrain;
    } else {
      throw DaemonError("unknown op '" + op +
                        "' (expected run|status|result|drain)");
    }
  } catch (const ConfigError& e) {
    throw DaemonError(std::string("bad request line: ") + e.what());
  }
  return msg;
}

RunRequest run_request_from_json(const sdl::JsonValue& doc) {
  RunRequest req;
  req.id = doc.get_string("id", "");
  if (!doc.has("model") || !doc.at("model").is_string() ||
      doc.at("model").as_string().empty()) {
    throw DaemonError("run op requires a non-empty \"model\" field "
                      "carrying the SDL JSON text inline");
  }
  req.model_json = doc.at("model").as_string();
  req.out_dir = doc.get_string("out", "");
  if (req.out_dir.empty()) {
    throw DaemonError("run op requires an \"out\" directory for "
                      "request.json and stats.json");
  }
  if (doc.has("overrides")) {
    for (const auto& [path, value] : doc.at("overrides").as_object()) {
      req.overrides.emplace_back(path, value.as_string());
    }
  }
  // Checked as a sweep spec's "run" section checks them, through the same
  // setting_text.
  if (doc.has("retries")) {
    req.retries = static_cast<unsigned>(sdl::setting_count(
        doc.at("retries"), "run op \"retries\"", 0, UINT32_MAX));
  }
  if (doc.has("test_signal")) {
    req.test_signal = static_cast<int>(sdl::setting_count(
        doc.at("test_signal"), "run op \"test_signal\"", 0, 64));
  }
  auto seconds = [&doc](const char* key, double& field) {
    if (doc.has(key)) {
      const std::string what = std::string("run op \"") + key + "\"";
      field = parse_seconds(what, sdl::setting_text(doc.at(key), what));
    }
  };
  seconds("timeout", req.timeout_seconds);
  seconds("backoff", req.backoff_seconds);
  for (const Alias& a : kAliases) {
    if (!doc.has(a.field)) continue;
    const std::string what = std::string("run op \"") + a.field + "\"";
    const std::string text = sdl::setting_text(doc.at(a.field), what);
    if (a.keep != nullptr && text == a.keep) continue;
    sdl::check_setting(a.path, text, what);
    req.set_override(a.path, text);
  }
  if (req.timeout_seconds > 0) {
    req.set_override("/config/watchdog_seconds",
                     obs::json_number(req.timeout_seconds));
  }
  return req;
}

void RunRequest::set_override(const std::string& path,
                              const std::string& value) {
  const auto it = std::ranges::find(overrides, path,
                                    &decltype(overrides)::value_type::first);
  if (it != overrides.end()) {
    it->second = value;
  } else {
    overrides.emplace_back(path, value);
  }
}

std::string run_request_to_line(const RunRequest& req) {
  std::ostringstream os;
  os << "{\"op\":\"run\",";
  append_common_run_fields(os, req);
  os << "}";
  return os.str();
}

std::string worker_job_to_line(const RunRequest& req,
                               std::uint64_t content_hash) {
  std::ostringstream os;
  os << "{\"op\":\"run\",\"hash\":\"" << std::hex << content_hash
     << std::dec << "\",";
  append_common_run_fields(os, req);
  os << "}";
  return os.str();
}

std::string worker_reply_to_line(const WorkerReply& reply) {
  std::ostringstream os;
  os << "{\"id\":\"" << obs::json_escape(reply.id) << "\",\"status\":\""
     << obs::json_escape(reply.status) << "\",\"exit\":" << reply.exit_code
     << ",\"error\":\"" << obs::json_escape(reply.error)
     << "\",\"events\":" << reply.events
     << ",\"wall\":" << obs::json_number(reply.wall_seconds)
     << ",\"cache_hit\":" << (reply.cache_hit ? "true" : "false") << "}";
  return os.str();
}

WorkerReply parse_worker_reply(const std::string& line) {
  sdl::JsonValue doc;
  try {
    doc = sdl::JsonValue::parse(line);
  } catch (const sdl::JsonError& e) {
    throw DaemonError(std::string("malformed worker reply: ") + e.what());
  }
  WorkerReply reply;
  // The counts are cast to integers, so each is range-checked first, as a
  // ledger field is.  A bad field fails the reply, never the daemon.
  auto count = [&doc](const char* key, std::uint64_t fallback,
                      std::uint64_t hi) {
    return reply_count(doc, "worker reply", key, fallback, 0, hi);
  };
  try {
    reply.id = doc.get_string("id", "");
    reply.status = doc.get_string("status", "failed");
    reply.exit_code = static_cast<int>(count("exit", 1, 255));
    reply.error = doc.get_string("error", "");
    reply.events = count("events", 0, UINT64_MAX);
    reply.wall_seconds = doc.get_number("wall", 0.0);
    reply.cache_hit = doc.get_bool("cache_hit", false);
  } catch (const ConfigError& e) {
    throw DaemonError(std::string("bad worker reply: ") + e.what());
  }
  return reply;
}

DaemonReply parse_daemon_reply(const sdl::JsonValue& doc) {
  DaemonReply reply;
  auto count = [&doc](const char* key, std::uint64_t fallback,
                      std::uint64_t lo, std::uint64_t hi) {
    return reply_count(doc, "daemon reply", key, fallback, lo, hi);
  };
  try {
    reply.type = doc.get_string("type", "");
    reply.id = doc.get_string("id", "");
    reply.reason = doc.get_string("reason", "");
    reply.status = doc.get_string("status", reply.status);
    reply.exit_code =
        static_cast<int>(count("exit", reply.exit_code, 0, 255));
    reply.term_signal =
        static_cast<int>(count("signal", reply.term_signal, 0, 64));
    reply.attempts = static_cast<unsigned>(
        count("attempts", reply.attempts, 0, UINT32_MAX));
    reply.stats = doc.get_string("stats", "");
    reply.error = doc.get_string("error", "");
    reply.queue_capacity = static_cast<std::size_t>(
        count("queue_capacity", reply.queue_capacity, 1, SIZE_MAX));
  } catch (const ConfigError& e) {
    throw DaemonError(std::string("bad daemon reply: ") + e.what());
  }
  return reply;
}

}  // namespace sst::daemon
