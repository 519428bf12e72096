#include "core/unit_algebra.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

namespace sst {

SimTime frequency_to_period(double hz) {
  if (hz <= 0.0) throw ConfigError("frequency must be positive");
  const double period = 1e12 / hz;
  const double rounded = std::llround(period) < 1 ? 1.0 : std::round(period);
  return static_cast<SimTime>(rounded);
}

double period_to_frequency(SimTime period_ps) {
  if (period_ps == 0) throw ConfigError("period must be positive");
  return 1e12 / static_cast<double>(period_ps);
}

Units Units::operator*(const Units& o) const {
  Units r;
  for (size_t i = 0; i < exp.size(); ++i)
    r.exp[i] = static_cast<int8_t>(exp[i] + o.exp[i]);
  return r;
}

Units Units::operator/(const Units& o) const {
  Units r;
  for (size_t i = 0; i < exp.size(); ++i)
    r.exp[i] = static_cast<int8_t>(exp[i] - o.exp[i]);
  return r;
}

Units Units::inverted() const {
  Units r;
  for (size_t i = 0; i < exp.size(); ++i) r.exp[i] = static_cast<int8_t>(-exp[i]);
  return r;
}

std::string Units::to_string() const {
  static const char* names[] = {"s", "B", "b", "events", "W", "$"};
  std::string num, den;
  for (size_t i = 0; i < exp.size(); ++i) {
    if (exp[i] == 0) continue;
    std::string piece = names[i];
    const int mag = std::abs(exp[i]);
    if (mag > 1) piece += "^" + std::to_string(mag);
    if (exp[i] > 0) {
      if (!num.empty()) num += "*";
      num += piece;
    } else {
      if (!den.empty()) den += "*";
      den += piece;
    }
  }
  if (num.empty() && den.empty()) return "";
  if (den.empty()) return num;
  // Denominator-only units print with a leading slash ("2 /s"), which the
  // parser accepts; "1/s" would glue onto the magnitude after whitespace
  // stripping ("2 1/s" -> "21/s") and reparse as a different value.
  if (num.empty()) return "/" + den;
  return num + "/" + den;
}

namespace {

struct UnitDef {
  double scale;
  Units units;
};

constexpr Units make_units(int si) {
  Units u;
  u.exp[si] = 1;
  return u;
}

constexpr Units per_second(Units u) {
  --u.exp[Units::kSeconds];
  return u;
}

// The dimensions the conversions accept, as compile-time constants: the
// conversions run for every parsed time, clock and size, and
// has_units_of would parse its example text on each call.
constexpr Units kTimeUnits = make_units(Units::kSeconds);
constexpr Units kFrequencyUnits = per_second(make_units(Units::kEvents));
constexpr Units kPerSecondUnits = per_second(Units{});
constexpr Units kByteUnits = make_units(Units::kBytes);
constexpr Units kByteRateUnits = per_second(make_units(Units::kBytes));
constexpr Units kBitRateUnits = per_second(make_units(Units::kBits));

// Table of base unit suffixes (after any SI/binary prefix is removed).
const std::map<std::string, UnitDef, std::less<>>& unit_table() {
  static const std::map<std::string, UnitDef, std::less<>> table = [] {
    std::map<std::string, UnitDef, std::less<>> t;
    const Units sec = make_units(Units::kSeconds);
    const Units bytes = make_units(Units::kBytes);
    const Units bits = make_units(Units::kBits);
    const Units events = make_units(Units::kEvents);
    const Units watts = make_units(Units::kWatts);
    const Units dollars = make_units(Units::kDollars);
    t["s"] = {1.0, sec};
    t["B"] = {1.0, bytes};
    t["b"] = {1.0, bits};
    t["Hz"] = {1.0, events / sec};
    t["hz"] = {1.0, events / sec};
    t["W"] = {1.0, watts};
    t["J"] = {1.0, watts * sec};
    t["$"] = {1.0, dollars};
    t["USD"] = {1.0, dollars};
    t["events"] = {1.0, events};
    t["event"] = {1.0, events};
    t["flops"] = {1.0, events / sec};
    t["FLOPS"] = {1.0, events / sec};
    return t;
  }();
  return table;
}

// SI and binary prefixes.  Binary prefixes (Ki/Mi/Gi/...) are only legal in
// front of bytes or bits; that check happens in the parser.
struct Prefix {
  const char* text;
  double scale;
  bool binary;
};

constexpr Prefix kPrefixes[] = {
    {"Ki", 1024.0, true},
    {"Mi", 1024.0 * 1024.0, true},
    {"Gi", 1024.0 * 1024.0 * 1024.0, true},
    {"Ti", 1024.0 * 1024.0 * 1024.0 * 1024.0, true},
    {"Pi", 1024.0 * 1024.0 * 1024.0 * 1024.0 * 1024.0, true},
    {"k", 1e3, false},  {"K", 1e3, false},  {"M", 1e6, false},
    {"G", 1e9, false},  {"T", 1e12, false}, {"P", 1e15, false},
    {"m", 1e-3, false}, {"u", 1e-6, false}, {"n", 1e-9, false},
    {"p", 1e-12, false}, {"f", 1e-15, false},
};

// Parses one unit token, e.g. "GHz", "KiB", "ns", "W", "s^2".
UnitDef parse_unit_token(std::string_view tok, std::string_view full) {
  // Integer exponent suffix, as printed by Units::to_string ("s^2").
  int expn = 1;
  if (const auto caret = tok.find('^'); caret != std::string_view::npos) {
    const std::string digits(tok.substr(caret + 1));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      throw ConfigError("bad unit exponent in '" + std::string(full) + "'");
    }
    expn = std::atoi(digits.c_str());
    if (expn < 1 || expn > 8) {
      throw ConfigError("unit exponent out of range in '" +
                        std::string(full) + "'");
    }
    tok = tok.substr(0, caret);
  }
  auto apply_exponent = [expn](UnitDef def) {
    UnitDef out{1.0, Units{}};
    for (int n = 0; n < expn; ++n) {
      out.scale *= def.scale;
      out.units = out.units * def.units;
    }
    return out;
  };

  const auto& table = unit_table();
  // Exact match first ("s", "B", "b", "Hz", ...).
  if (auto it = table.find(tok); it != table.end()) {
    return apply_exponent(it->second);
  }
  // Try prefix + unit.
  for (const auto& p : kPrefixes) {
    const std::string_view pt = p.text;
    if (tok.size() > pt.size() && tok.substr(0, pt.size()) == pt) {
      auto rest = tok.substr(pt.size());
      if (auto it = table.find(rest); it != table.end()) {
        if (p.binary) {
          const bool is_data = it->second.units == make_units(Units::kBytes) ||
                               it->second.units == make_units(Units::kBits);
          if (!is_data)
            throw ConfigError("binary prefix only valid for bytes/bits in '" +
                              std::string(full) + "'");
        }
        return apply_exponent({p.scale * it->second.scale, it->second.units});
      }
    }
  }
  throw ConfigError("unknown unit '" + std::string(tok) + "' in '" +
                    std::string(full) + "'");
}

}  // namespace

UnitAlgebra::UnitAlgebra(std::string_view text) {
  // Strip whitespace.
  std::string s;
  s.reserve(text.size());
  for (char c : text)
    if (!std::isspace(static_cast<unsigned char>(c))) s.push_back(c);
  if (s.empty()) throw ConfigError("empty quantity string");

  // Numeric part.
  size_t pos = 0;
  {
    const char* begin = s.c_str();
    char* end = nullptr;
    value_ = std::strtod(begin, &end);
    if (end == begin) throw ConfigError("no numeric value in '" + s + "'");
    pos = static_cast<size_t>(end - begin);
  }

  // Unit part: tokens separated by '*' and '/' (single-level, left to
  // right, e.g. "GB/s", "B/s/s" not supported beyond repeated division).
  double scale = 1.0;
  Units units;
  bool divide = false;
  size_t i = pos;
  // A leading '/' means "per" — denominator-only quantities ("2 /s")
  // print this way.
  if (i < s.size() && s[i] == '/') {
    divide = true;
    ++i;
  }
  while (i < s.size()) {
    size_t j = i;
    while (j < s.size() && s[j] != '/' && s[j] != '*') ++j;
    const std::string_view tok(s.data() + i, j - i);
    if (tok.empty()) throw ConfigError("malformed unit in '" + s + "'");
    const UnitDef def = parse_unit_token(tok, s);
    if (divide) {
      scale /= def.scale;
      units = units / def.units;
    } else {
      scale *= def.scale;
      units = units * def.units;
    }
    if (j < s.size()) divide = (s[j] == '/');
    i = j + 1;
  }
  value_ *= scale;
  units_ = units;
}

std::uint64_t UnitAlgebra::rounded() const {
  if (value_ < 0.0) throw ConfigError("negative value where count expected");
  if (value_ > 1.8e19) throw ConfigError("value too large for uint64");
  return static_cast<std::uint64_t>(std::llround(value_));
}

bool UnitAlgebra::has_units_of(std::string_view example) const {
  return units_ == UnitAlgebra(example).units();
}

SimTime UnitAlgebra::to_simtime() const {
  if (units_ != kTimeUnits)
    throw ConfigError("expected a time quantity, got '" + to_string() + "'");
  const double ps = value_ * 1e12;
  if (ps < 0 || ps > 1.8e19)
    throw ConfigError("time out of range: " + to_string());
  return static_cast<SimTime>(std::llround(ps));
}

SimTime UnitAlgebra::to_period() const {
  if (units_ == kTimeUnits) return to_simtime();
  if (units_ == kFrequencyUnits) {
    if (value_ <= 0) throw ConfigError("frequency must be positive");
    return frequency_to_period(value_);
  }
  // Bare 1/s is also accepted.
  if (units_ == kPerSecondUnits) return frequency_to_period(value_);
  throw ConfigError("expected a frequency or period, got '" + to_string() +
                    "'");
}

std::uint64_t UnitAlgebra::to_bytes() const {
  if (units_ != kByteUnits)
    throw ConfigError("expected a byte count, got '" + to_string() + "'");
  return rounded();
}

double UnitAlgebra::to_bytes_per_second() const {
  if (units_ == kByteRateUnits) return value_;
  if (units_ == kBitRateUnits) return value_ / 8.0;
  throw ConfigError("expected a bandwidth, got '" + to_string() + "'");
}

UnitAlgebra& UnitAlgebra::operator+=(const UnitAlgebra& o) {
  if (units_ != o.units_)
    throw ConfigError("unit mismatch in addition: '" + to_string() +
                      "' + '" + o.to_string() + "'");
  value_ += o.value_;
  return *this;
}

UnitAlgebra& UnitAlgebra::operator-=(const UnitAlgebra& o) {
  if (units_ != o.units_)
    throw ConfigError("unit mismatch in subtraction: '" + to_string() +
                      "' - '" + o.to_string() + "'");
  value_ -= o.value_;
  return *this;
}

UnitAlgebra& UnitAlgebra::operator*=(const UnitAlgebra& o) {
  value_ *= o.value_;
  units_ = units_ * o.units_;
  return *this;
}

UnitAlgebra& UnitAlgebra::operator/=(const UnitAlgebra& o) {
  if (o.value_ == 0.0) throw ConfigError("division by zero quantity");
  value_ /= o.value_;
  units_ = units_ / o.units_;
  return *this;
}

UnitAlgebra UnitAlgebra::inverted() const {
  if (value_ == 0.0) throw ConfigError("cannot invert zero quantity");
  return UnitAlgebra(1.0 / value_, units_.inverted());
}

bool UnitAlgebra::operator<(const UnitAlgebra& o) const {
  if (units_ != o.units_)
    throw ConfigError("unit mismatch in comparison");
  return value_ < o.value_;
}

bool UnitAlgebra::operator>(const UnitAlgebra& o) const {
  if (units_ != o.units_)
    throw ConfigError("unit mismatch in comparison");
  return value_ > o.value_;
}

bool UnitAlgebra::operator==(const UnitAlgebra& o) const {
  return units_ == o.units_ && value_ == o.value_;
}

std::string UnitAlgebra::to_string() const {
  // Shortest decimal form that parses back to exactly the same double, so
  // print -> parse is a lossless round trip.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", value_);
  if (std::strtod(buf, nullptr) != value_) {
    std::snprintf(buf, sizeof buf, "%.16g", value_);
    if (std::strtod(buf, nullptr) != value_) {
      std::snprintf(buf, sizeof buf, "%.17g", value_);
    }
  }
  std::string out = buf;
  const std::string u = units_.to_string();
  if (!u.empty()) {
    out += " ";
    out += u;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const UnitAlgebra& ua) {
  return os << ua.to_string();
}

}  // namespace sst
