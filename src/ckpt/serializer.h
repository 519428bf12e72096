// Bidirectional binary serializer for checkpoint/restart.
//
// One Serializer class handles both directions (SST's serialize_order
// idiom): in pack mode `s & field` appends the field's bytes to the
// stream, in unpack mode the same statement reads them back.  State
// capture and restore therefore share a single function per object, so
// the two directions cannot drift apart.
//
// Supported out of the box: arithmetic types, enums, bool,
// std::string, vector/deque/set/map/unordered_map/pair/optional, RNG
// engines, UnitAlgebra, and polymorphic events (via the event
// registry, see event_registry.h).  Any struct can opt in by providing a
// `void ckpt_io(ckpt::Serializer&)` member that serializes its fields.
//
// The format is raw little-endian host bytes: checkpoints are restored
// on the machine (architecture) that wrote them, which is the
// crash/preemption-recovery use case; portability across endiannesses
// is explicitly out of scope (see DESIGN.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/event.h"
#include "core/rng.h"
#include "core/types.h"
#include "core/unit_algebra.h"

namespace sst::ckpt {

/// Raised on any checkpoint failure: truncated/corrupt stream, version
/// or topology mismatch, unreadable file.  sstsim maps it to exit 5.
class CheckpointError : public SimulationError {
 public:
  using SimulationError::SimulationError;
};

class Serializer;

namespace detail {
// Implemented in event_registry.cpp: (un)packs one polymorphic event —
// type tag, engine fields, payload.  `write` requires a registered
// (checkpoint-serializable) event type.
void write_event(Serializer& s, const Event& ev);
[[nodiscard]] EventPtr read_event(Serializer& s);
}  // namespace detail

class Serializer {
 public:
  enum class Mode { kPack, kUnpack };

  explicit Serializer(Mode mode) : mode_(mode) {}

  /// Unpacking view over an existing byte stream.
  explicit Serializer(std::vector<std::byte> data)
      : mode_(Mode::kUnpack), buf_(std::move(data)) {}

  [[nodiscard]] bool packing() const { return mode_ == Mode::kPack; }

  [[nodiscard]] std::vector<std::byte>& buffer() { return buf_; }
  [[nodiscard]] const std::vector<std::byte>& buffer() const { return buf_; }

  /// True when every byte of an unpack stream has been consumed.
  [[nodiscard]] bool exhausted() const { return cursor_ >= buf_.size(); }
  [[nodiscard]] std::size_t cursor() const { return cursor_; }

  /// Raw byte transfer; everything else is built on this.
  void raw(void* data, std::size_t n) {
    if (packing()) {
      const auto* bytes = static_cast<const std::byte*>(data);
      buf_.insert(buf_.end(), bytes, bytes + n);
    } else {
      if (cursor_ + n > buf_.size()) {
        throw CheckpointError("checkpoint stream truncated (wanted " +
                              std::to_string(n) + " bytes at offset " +
                              std::to_string(cursor_) + " of " +
                              std::to_string(buf_.size()) + ")");
      }
      std::memcpy(data, buf_.data() + cursor_, n);
      cursor_ += n;
    }
  }

  // --- scalars -------------------------------------------------------

  template <typename T>
    requires(std::is_arithmetic_v<T> || std::is_enum_v<T>)
  Serializer& operator&(T& v) {
    raw(&v, sizeof v);
    return *this;
  }

  /// One byte, 0 or 1; any other byte is a corrupt stream (loading it
  /// into a bool would be undefined behaviour).
  Serializer& operator&(bool& v) {
    std::uint8_t b = v ? 1 : 0;
    raw(&b, 1);
    if (b > 1) {
      throw CheckpointError("checkpoint stream corrupt: bool byte " +
                            std::to_string(b) + " at offset " +
                            std::to_string(cursor_ - 1));
    }
    v = b != 0;
    return *this;
  }

  // --- structs providing void ckpt_io(Serializer&) -------------------

  template <typename T>
    requires requires(T& t, Serializer& s) { t.ckpt_io(s); }
  Serializer& operator&(T& v) {
    v.ckpt_io(*this);
    return *this;
  }

  // --- strings -------------------------------------------------------

  Serializer& operator&(std::string& v) {
    std::uint64_t n = v.size();
    (*this) & n;
    if (!packing()) v.resize(check_count(n, 1));
    if (n > 0) raw(v.data(), static_cast<std::size_t>(n));
    return *this;
  }

  // --- containers ----------------------------------------------------

  template <typename T>
  Serializer& operator&(std::vector<T>& v) {
    std::uint64_t n = v.size();
    (*this) & n;
    if (!packing()) {
      v.clear();
      v.resize(check_count(n, min_element_bytes<T>()));
    }
    for (auto& e : v) (*this) & e;
    return *this;
  }

  Serializer& operator&(std::vector<bool>& v) {
    std::uint64_t n = v.size();
    (*this) & n;
    if (!packing()) v.resize(check_count(n, 1));
    for (std::size_t i = 0; i < v.size(); ++i) {
      bool b = v[i];
      (*this) & b;
      v[i] = b;
    }
    return *this;
  }

  template <typename T>
  Serializer& operator&(std::deque<T>& v) {
    std::uint64_t n = v.size();
    (*this) & n;
    if (!packing()) {
      v.clear();
      v.resize(check_count(n, min_element_bytes<T>()));
    }
    for (auto& e : v) (*this) & e;
    return *this;
  }

  /// Per-rank buffers as one list, in the layout of a single vector:
  /// packing concatenates `parts`, unpacking reads the list into
  /// parts.front() and clears the rest.  For buffers whose split across
  /// ranks does not survive a change of rank count.
  template <typename T>
  Serializer& concat(std::vector<std::vector<T>>& parts) {
    if (!packing()) {
      for (auto& p : parts) p.clear();
      return (*this) & parts.front();
    }
    std::uint64_t n = 0;
    for (const auto& p : parts) n += p.size();
    (*this) & n;
    for (auto& p : parts) {
      for (auto& e : p) (*this) & e;
    }
    return *this;
  }

  template <typename A, typename B>
  Serializer& operator&(std::pair<A, B>& v) {
    (*this) & v.first;
    (*this) & v.second;
    return *this;
  }

  template <typename T, typename Cmp>
  Serializer& operator&(std::set<T, Cmp>& v) {
    std::uint64_t n = v.size();
    (*this) & n;
    if (packing()) {
      for (const T& e : v) {
        T copy = e;  // set elements are const in place
        (*this) & copy;
      }
    } else {
      v.clear();
      check_count(n, min_element_bytes<T>());
      for (std::uint64_t i = 0; i < n; ++i) {
        T e{};
        (*this) & e;
        v.insert(std::move(e));
      }
    }
    return *this;
  }

  template <typename K, typename V, typename Cmp>
  Serializer& operator&(std::map<K, V, Cmp>& v) {
    std::uint64_t n = v.size();
    (*this) & n;
    if (packing()) {
      for (auto& [k, val] : v) {
        K key = k;
        (*this) & key;
        (*this) & val;
      }
    } else {
      v.clear();
      check_count(n, min_element_bytes<K>());
      for (std::uint64_t i = 0; i < n; ++i) {
        K key{};
        (*this) & key;
        V val{};
        (*this) & val;
        v.emplace(std::move(key), std::move(val));
      }
    }
    return *this;
  }

  /// Written in the layout of the std::map with the same contents (count,
  /// then key/value pairs in ascending key order), so the bytes do not
  /// depend on hash order and the two containers are interchangeable.
  template <typename K, typename V, typename H, typename Eq>
  Serializer& operator&(std::unordered_map<K, V, H, Eq>& v) {
    std::uint64_t n = v.size();
    (*this) & n;
    if (packing()) {
      std::vector<std::pair<const K, V>*> sorted;
      sorted.reserve(v.size());
      for (auto& e : v) sorted.push_back(&e);
      std::sort(sorted.begin(), sorted.end(),
                [](const auto* a, const auto* b) {
                  return a->first < b->first;
                });
      for (auto* e : sorted) {
        K key = e->first;
        (*this) & key;
        (*this) & e->second;
      }
    } else {
      v.clear();
      check_count(n, min_element_bytes<K>());
      for (std::uint64_t i = 0; i < n; ++i) {
        K key{};
        (*this) & key;
        V val{};
        (*this) & val;
        v.emplace(std::move(key), std::move(val));
      }
    }
    return *this;
  }

  template <typename T>
  Serializer& operator&(std::optional<T>& v) {
    std::uint8_t present = v.has_value() ? 1 : 0;
    (*this) & present;
    if (present != 0) {
      if (!packing() && !v.has_value()) v.emplace();
      (*this) & *v;
    } else if (!packing()) {
      v.reset();
    }
    return *this;
  }

  // --- polymorphic events (nullable) ---------------------------------

  template <typename T>
    requires std::derived_from<T, Event>
  Serializer& operator&(std::unique_ptr<T>& p) {
    std::uint8_t present = p != nullptr ? 1 : 0;
    (*this) & present;
    if (packing()) {
      if (present != 0) detail::write_event(*this, *p);
    } else {
      if (present == 0) {
        p.reset();
        return *this;
      }
      EventPtr ev = detail::read_event(*this);
      if constexpr (std::is_same_v<T, Event>) {
        p = std::move(ev);
      } else {
        T* typed = dynamic_cast<T*>(ev.get());
        if (typed == nullptr) {
          throw CheckpointError(
              "checkpoint stream holds an event of an unexpected type");
        }
        ev.release();
        p.reset(typed);
      }
    }
    return *this;
  }

  // --- framework value types -----------------------------------------

  Serializer& operator&(rng::XorShift128Plus& gen) {
    auto st = gen.state();
    (*this) & st.s0;
    (*this) & st.s1;
    if (!packing()) gen.set_state(st);
    return *this;
  }

  Serializer& operator&(rng::Pcg32& gen) {
    auto st = gen.state();
    (*this) & st.state;
    (*this) & st.inc;
    if (!packing()) gen.set_state(st);
    return *this;
  }

  Serializer& operator&(UnitAlgebra& ua) {
    double value = ua.value();
    Units units = ua.units();
    (*this) & value;
    for (auto& e : units.exp) (*this) & e;
    if (!packing()) ua = UnitAlgebra(value, units);
    return *this;
  }

 private:
  /// Guards container sizes read from a corrupt stream: a count whose
  /// minimal encoding would exceed the remaining bytes is rejected
  /// instead of driving a multi-gigabyte allocation.
  std::size_t check_count(std::uint64_t n, std::size_t min_bytes_each) {
    const std::uint64_t remaining = buf_.size() - cursor_;
    if (min_bytes_each > 0 && n > remaining / min_bytes_each) {
      throw CheckpointError("checkpoint stream corrupt: container count " +
                            std::to_string(n) + " exceeds remaining " +
                            std::to_string(remaining) + " bytes");
    }
    return static_cast<std::size_t>(n);
  }

  template <typename T>
  static constexpr std::size_t min_element_bytes() {
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>)
      return sizeof(T);
    else
      return 1;
  }

  Mode mode_;
  std::vector<std::byte> buf_;
  std::size_t cursor_ = 0;
};

}  // namespace sst::ckpt
