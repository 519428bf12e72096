#include "core/params.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace sst {

const std::string* Params::lookup(std::string_view key) const {
  auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::optional<std::string> Params::raw(std::string_view key) const {
  const std::string* v = lookup(key);
  if (v == nullptr) return std::nullopt;
  return *v;
}

SimTime Params::find_period(std::string_view key,
                            std::string_view default_value) const {
  const std::string* v = lookup(key);
  const std::string text = v ? *v : std::string(default_value);
  try {
    return UnitAlgebra(text).to_period();
  } catch (const ConfigError& e) {
    throw ConfigError("parameter '" + std::string(key) + "': " + e.what());
  }
}

SimTime Params::find_time(std::string_view key,
                          std::string_view default_value) const {
  const std::string* v = lookup(key);
  const std::string text = v ? *v : std::string(default_value);
  try {
    return UnitAlgebra(text).to_simtime();
  } catch (const ConfigError& e) {
    throw ConfigError("parameter '" + std::string(key) + "': " + e.what());
  }
}

void Params::merge(const Params& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

std::uint64_t parse_count(std::string_view what, const std::string& text,
                          std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) {
    throw ConfigError(std::string(what) + " must be a whole number in [" +
                      std::to_string(lo) + ", " + std::to_string(hi) +
                      "], got '" + text + "'");
  }
  return v;
}

double parse_seconds(std::string_view what, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || !std::isfinite(v) || v < 0) {
    throw ConfigError(std::string(what) +
                      " must be a finite number of seconds >= 0, got '" +
                      text + "'");
  }
  return v;
}

namespace detail {

namespace {
[[noreturn]] void bad_value(const std::string& text, std::string_view key,
                            const char* type) {
  throw ConfigError("parameter '" + std::string(key) + "': cannot parse '" +
                    text + "' as " + type);
}
}  // namespace

template <>
std::string parse_param<std::string>(const std::string& text,
                                     std::string_view) {
  return text;
}

template <>
bool parse_param<bool>(const std::string& text, std::string_view key) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text)
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on")
    return true;
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off")
    return false;
  bad_value(text, key, "bool");
}

template <>
double parse_param<double>(const std::string& text, std::string_view key) {
  // Accept plain numbers or dimensionful quantities ("2.5GHz" -> 2.5e9).
  // NaN and infinities (strtod spells them "nan", "inf", or overflows to
  // them) are never meaningful parameter values.
  const char* begin = text.c_str();
  char* end = nullptr;
  double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0') {
    try {
      value = UnitAlgebra(text).value();
    } catch (const ConfigError&) {
      bad_value(text, key, "double");
    }
  }
  if (!std::isfinite(value)) bad_value(text, key, "finite double");
  return value;
}

namespace {
template <typename I>
I parse_integral(const std::string& text, std::string_view key,
                 const char* type) {
  I value{};
  const char* first = text.c_str();
  const char* last = first + text.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc() && ptr == last) return value;
  // Fall back to UnitAlgebra for quantities like "64KiB".
  try {
    const std::uint64_t v = UnitAlgebra(text).rounded();
    if (v > static_cast<std::uint64_t>(std::numeric_limits<I>::max()))
      bad_value(text, key, type);
    return static_cast<I>(v);
  } catch (const ConfigError&) {
    bad_value(text, key, type);
  }
}
}  // namespace

template <>
std::int32_t parse_param<std::int32_t>(const std::string& text,
                                       std::string_view key) {
  return parse_integral<std::int32_t>(text, key, "int32");
}

template <>
std::uint32_t parse_param<std::uint32_t>(const std::string& text,
                                         std::string_view key) {
  return parse_integral<std::uint32_t>(text, key, "uint32");
}

template <>
std::int64_t parse_param<std::int64_t>(const std::string& text,
                                       std::string_view key) {
  return parse_integral<std::int64_t>(text, key, "int64");
}

template <>
std::uint64_t parse_param<std::uint64_t>(const std::string& text,
                                         std::string_view key) {
  return parse_integral<std::uint64_t>(text, key, "uint64");
}

template <>
UnitAlgebra parse_param<UnitAlgebra>(const std::string& text,
                                     std::string_view key) {
  try {
    return UnitAlgebra(text);
  } catch (const ConfigError& e) {
    throw ConfigError("parameter '" + std::string(key) + "': " + e.what());
  }
}

}  // namespace detail

}  // namespace sst
