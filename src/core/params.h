// Params: string-keyed configuration parameters for components.
//
// Mirrors SST's Params: every component is configured from a flat map of
// strings; typed accessors parse on demand (including UnitAlgebra
// quantities) and report precise errors.  Which keys a component type
// accepts is declared once, in its Factory registration (ParamDoc), and
// ConfigGraph::validate checks every input key against that list.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "core/unit_algebra.h"

namespace sst {

class Params {
 public:
  Params() = default;
  Params(std::initializer_list<std::pair<const std::string, std::string>> kv)
      : values_(kv) {}

  void set(std::string key, std::string value) {
    values_[std::move(key)] = std::move(value);
  }

  [[nodiscard]] bool contains(std::string_view key) const {
    return values_.find(std::string(key)) != values_.end();
  }

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }

  /// Typed lookup with a default.  Supported T: std::string, bool,
  /// integral types, double, UnitAlgebra.
  template <typename T>
  [[nodiscard]] T find(std::string_view key, const T& default_value) const;

  /// Convenience overload for string literals.
  [[nodiscard]] std::string find(std::string_view key,
                                 const char* default_value) const {
    return find<std::string>(key, default_value);
  }

  /// Typed lookup of a required parameter; throws ConfigError if missing.
  template <typename T>
  [[nodiscard]] T required(std::string_view key) const;

  /// Parses "a,b,c" into a vector of T.
  template <typename T>
  [[nodiscard]] std::vector<T> find_array(std::string_view key) const;

  /// A time/frequency parameter converted to picoseconds.
  /// Accepts either a period ("2ns") or frequency ("500MHz").
  [[nodiscard]] SimTime find_period(std::string_view key,
                                    std::string_view default_value) const;

  /// A time parameter converted to picoseconds ("10ns" -> 10000).
  [[nodiscard]] SimTime find_time(std::string_view key,
                                  std::string_view default_value) const;

  /// Merges other into this; other's values win on conflicts.
  void merge(const Params& other);

  /// The (key, value) pairs, in key order.
  [[nodiscard]] auto begin() const { return values_.begin(); }
  [[nodiscard]] auto end() const { return values_.end(); }

  /// Raw access.
  [[nodiscard]] std::optional<std::string> raw(std::string_view key) const;

 private:
  [[nodiscard]] const std::string* lookup(std::string_view key) const;

  std::map<std::string, std::string, std::less<>> values_;
};

/// Strict parse of a count that sizes something (a CLI flag, a sweep or
/// daemon run policy): all of `text` must be a whole number in [lo, hi].
/// Throws ConfigError naming `what`.
[[nodiscard]] std::uint64_t parse_count(std::string_view what,
                                        const std::string& text,
                                        std::uint64_t lo, std::uint64_t hi);
/// Strict parse of a wall-clock budget: all of `text` must be a finite
/// number of seconds >= 0.  Throws ConfigError naming `what`.
[[nodiscard]] double parse_seconds(std::string_view what,
                                   const std::string& text);

namespace detail {
// Parses `text` as a T; `key` only feeds error messages.
template <typename T>
T parse_param(const std::string& text, std::string_view key);
}  // namespace detail

template <typename T>
T Params::find(std::string_view key, const T& default_value) const {
  const std::string* v = lookup(key);
  if (v == nullptr) return default_value;
  return detail::parse_param<T>(*v, key);
}

template <typename T>
T Params::required(std::string_view key) const {
  const std::string* v = lookup(key);
  if (v == nullptr)
    throw ConfigError("missing required parameter '" + std::string(key) + "'");
  return detail::parse_param<T>(*v, key);
}

template <typename T>
std::vector<T> Params::find_array(std::string_view key) const {
  const std::string* v = lookup(key);
  std::vector<T> out;
  if (v == nullptr) return out;
  std::size_t start = 0;
  const std::string& s = *v;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    std::string piece = s.substr(start, comma - start);
    // Trim surrounding whitespace.
    while (!piece.empty() && std::isspace(static_cast<unsigned char>(piece.front())))
      piece.erase(piece.begin());
    while (!piece.empty() && std::isspace(static_cast<unsigned char>(piece.back())))
      piece.pop_back();
    if (!piece.empty()) out.push_back(detail::parse_param<T>(piece, key));
    start = comma + 1;
  }
  return out;
}

}  // namespace sst
