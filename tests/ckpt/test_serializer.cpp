// Serializer round-trip property tests: randomized values of every
// supported category must unpack to exactly what was packed, corrupt
// streams must be rejected with CheckpointError (never a crash or a
// multi-gigabyte allocation), and registered polymorphic events must
// survive the registry round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/serializer.h"
#include "core/params.h"
#include "core/rng.h"
#include "core/unit_algebra.h"
#include "mem/mem_event.h"
#include "mem/mem_lib.h"
#include "net/net_event.h"
#include "net/net_lib.h"

namespace sst::ckpt {
namespace {

// Packs `value` then unpacks it from the produced bytes; the caller
// compares the result to the original.
template <typename T>
T round_trip(const T& value) {
  Serializer pack(Serializer::Mode::kPack);
  T copy = value;
  pack & copy;
  Serializer unpack(std::move(pack.buffer()));
  T out{};
  unpack & out;
  EXPECT_TRUE(unpack.exhausted()) << "trailing bytes after unpack";
  return out;
}

template <typename T>
std::vector<std::byte> packed(T value) {
  Serializer pack(Serializer::Mode::kPack);
  pack & value;
  return std::move(pack.buffer());
}

TEST(SerializerRoundTrip, Primitives) {
  std::mt19937_64 gen(0x5E121A11);
  for (int trial = 0; trial < 500; ++trial) {
    const auto u64 = gen();
    const auto i32 = static_cast<std::int32_t>(gen());
    const auto u8 = static_cast<std::uint8_t>(gen());
    const double d = std::uniform_real_distribution<double>(-1e18, 1e18)(gen);
    const bool b = (gen() & 1) != 0;
    EXPECT_EQ(round_trip(u64), u64);
    EXPECT_EQ(round_trip(i32), i32);
    EXPECT_EQ(round_trip(u8), u8);
    EXPECT_EQ(round_trip(d), d);
    EXPECT_EQ(round_trip(b), b);
  }
}

std::string random_string(std::mt19937_64& gen, std::size_t max_len) {
  std::uniform_int_distribution<std::size_t> len(0, max_len);
  std::uniform_int_distribution<int> ch(0, 255);
  std::string s(len(gen), '\0');
  for (char& c : s) c = static_cast<char>(ch(gen));
  return s;
}

TEST(SerializerRoundTrip, StringsIncludingEmbeddedNulAndEmpty) {
  std::mt19937_64 gen(0xABCD);
  EXPECT_EQ(round_trip(std::string{}), "");
  for (int trial = 0; trial < 200; ++trial) {
    const std::string s = random_string(gen, 300);
    EXPECT_EQ(round_trip(s), s);
  }
}

TEST(SerializerRoundTrip, Containers) {
  std::mt19937_64 gen(0xC0117A1);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint64_t> vec(gen() % 50);
    for (auto& v : vec) v = gen();
    EXPECT_EQ(round_trip(vec), vec);

    std::deque<std::int16_t> dq(gen() % 50);
    for (auto& v : dq) v = static_cast<std::int16_t>(gen());
    EXPECT_EQ(round_trip(dq), dq);

    std::set<std::uint32_t> set;
    for (std::size_t i = gen() % 30; i > 0; --i) {
      set.insert(static_cast<std::uint32_t>(gen()));
    }
    EXPECT_EQ(round_trip(set), set);

    std::map<std::uint64_t, std::string> map;
    for (std::size_t i = gen() % 20; i > 0; --i) {
      map[gen()] = random_string(gen, 40);
    }
    EXPECT_EQ(round_trip(map), map);

    // An unordered_map packs to the bytes of the std::map with the same
    // contents, whatever its hash order.
    std::unordered_map<std::uint64_t, std::string> hashed(map.begin(),
                                                           map.end());
    EXPECT_EQ(round_trip(hashed), hashed);
    EXPECT_EQ(packed(hashed), packed(map));

    std::vector<bool> bits(gen() % 64);
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = (gen() & 1) != 0;
    EXPECT_EQ(round_trip(bits), bits);

    std::pair<std::string, double> pr{random_string(gen, 20), 3.25};
    EXPECT_EQ(round_trip(pr), pr);

    std::optional<std::uint64_t> some = gen();
    std::optional<std::uint64_t> none;
    EXPECT_EQ(round_trip(some), some);
    EXPECT_EQ(round_trip(none), none);
  }
}

TEST(SerializerRoundTrip, NestedContainers) {
  std::map<std::string, std::vector<std::pair<std::uint64_t, std::string>>>
      nested{{"a", {{1, "x"}, {2, "y"}}}, {"", {}}, {"z", {{~0ULL, ""}}}};
  EXPECT_EQ(round_trip(nested), nested);
}

TEST(SerializerRoundTrip, RngEnginesResumeIdentically) {
  std::mt19937_64 seed_gen(0x9E3779B9);
  for (int trial = 0; trial < 50; ++trial) {
    rng::XorShift128Plus xs(seed_gen());
    rng::Pcg32 pcg(seed_gen(), seed_gen());
    // Advance to a mid-stream state.
    for (int i = 0; i < 17; ++i) {
      (void)xs.next();
      (void)pcg.next();
    }
    Serializer pack(Serializer::Mode::kPack);
    pack & xs & pcg;
    rng::XorShift128Plus xs2(1);
    rng::Pcg32 pcg2(1, 1);
    Serializer unpack(std::move(pack.buffer()));
    unpack & xs2 & pcg2;
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(xs2.next(), xs.next());
      EXPECT_EQ(pcg2.next(), pcg.next());
    }
  }
}

TEST(SerializerRoundTrip, UnitAlgebraRandomized) {
  const char* const kUnits[] = {"1ps", "1ns", "1GHz", "1GB/s",
                                "1B", "1W", "1events"};
  std::mt19937_64 gen(0x0A1B2C3D);
  std::uniform_real_distribution<double> mag(1e-9, 1e12);
  for (int trial = 0; trial < 300; ++trial) {
    const UnitAlgebra ua(mag(gen), UnitAlgebra(kUnits[gen() % 7]).units());
    const UnitAlgebra out = round_trip(ua);
    EXPECT_EQ(out.value(), ua.value());
    EXPECT_EQ(out.units(), ua.units());
  }
}

// ---------------------------------------------------------------------
// Polymorphic events through the registry
// ---------------------------------------------------------------------

TEST(SerializerRoundTrip, RegisteredEventsRandomized) {
  mem::register_library();
  net::register_library();
  std::mt19937_64 gen(0xE7E27);
  for (int trial = 0; trial < 200; ++trial) {
    const auto cmd = static_cast<mem::MemCmd>(gen() % 5);
    auto mev = std::make_unique<mem::MemEvent>(
        cmd, gen(), static_cast<std::uint32_t>(gen()), gen());
    mev->set_bus_src(static_cast<std::uint32_t>(gen()));

    auto pev = std::make_unique<net::PacketEvent>(
        static_cast<net::NodeId>(gen() % 64), static_cast<net::NodeId>(gen() % 64),
        static_cast<std::uint32_t>(gen()), gen(), gen(), (gen() & 1) != 0,
        gen(), static_cast<SimTime>(gen() % (1ULL << 60)));
    pev->set_via(static_cast<net::NodeId>(gen() % 64));
    pev->set_pkt_seq(static_cast<std::uint32_t>(gen()));
    if ((gen() & 1) != 0) pev->set_kind(net::PacketEvent::Kind::kAck);

    Serializer pack(Serializer::Mode::kPack);
    EventPtr m = std::move(mev);
    EventPtr p = std::move(pev);
    pack & m & p;

    Serializer unpack(std::move(pack.buffer()));
    EventPtr m2;
    EventPtr p2;
    unpack & m2 & p2;
    ASSERT_TRUE(unpack.exhausted());

    const auto* min = dynamic_cast<mem::MemEvent*>(m.get());
    const auto* mout = dynamic_cast<mem::MemEvent*>(m2.get());
    ASSERT_NE(mout, nullptr);
    EXPECT_EQ(mout->cmd(), min->cmd());
    EXPECT_EQ(mout->addr(), min->addr());
    EXPECT_EQ(mout->size(), min->size());
    EXPECT_EQ(mout->req_id(), min->req_id());
    EXPECT_EQ(mout->bus_src(), min->bus_src());

    const auto* pin = dynamic_cast<net::PacketEvent*>(p.get());
    const auto* pout = dynamic_cast<net::PacketEvent*>(p2.get());
    ASSERT_NE(pout, nullptr);
    EXPECT_EQ(pout->src(), pin->src());
    EXPECT_EQ(pout->dst(), pin->dst());
    EXPECT_EQ(pout->via(), pin->via());
    EXPECT_EQ(pout->bytes(), pin->bytes());
    EXPECT_EQ(pout->msg_id(), pin->msg_id());
    EXPECT_EQ(pout->msg_bytes(), pin->msg_bytes());
    EXPECT_EQ(pout->is_tail(), pin->is_tail());
    EXPECT_EQ(pout->tag(), pin->tag());
    EXPECT_EQ(pout->msg_start(), pin->msg_start());
    EXPECT_EQ(pout->pkt_seq(), pin->pkt_seq());
    EXPECT_EQ(pout->kind(), pin->kind());
  }
}

TEST(SerializerRoundTrip, NullEventPointer) {
  EventPtr null;
  Serializer pack(Serializer::Mode::kPack);
  pack & null;
  Serializer unpack(std::move(pack.buffer()));
  EventPtr out = std::make_unique<mem::MemEvent>(mem::MemCmd::kGetS, 0, 0, 0);
  unpack & out;
  EXPECT_EQ(out, nullptr);
}

// ---------------------------------------------------------------------
// Corrupt streams
// ---------------------------------------------------------------------

TEST(SerializerCorrupt, TruncatedStreamThrows) {
  Serializer pack(Serializer::Mode::kPack);
  std::vector<std::uint64_t> vec{1, 2, 3, 4, 5};
  pack & vec;
  std::vector<std::byte> bytes = std::move(pack.buffer());
  // Every strict prefix must throw, never crash or return garbage
  // silently claiming success.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Serializer unpack(
        std::vector<std::byte>(bytes.begin(), bytes.begin() + cut));
    std::vector<std::uint64_t> out;
    EXPECT_THROW(unpack & out, CheckpointError) << "prefix length " << cut;
  }
}

TEST(SerializerCorrupt, HugeContainerCountRejectedWithoutAllocation) {
  // A corrupt count (e.g. 2^60) must be rejected by the remaining-bytes
  // bound, not passed to vector::resize.
  Serializer pack(Serializer::Mode::kPack);
  std::uint64_t bogus = 1ULL << 60;
  pack & bogus;
  Serializer unpack(std::move(pack.buffer()));
  std::vector<std::uint64_t> out;
  EXPECT_THROW(unpack & out, CheckpointError);

  Serializer pack2(Serializer::Mode::kPack);
  pack2 & bogus;
  Serializer unpack2(std::move(pack2.buffer()));
  std::string sout;
  EXPECT_THROW(unpack2 & sout, CheckpointError);
}

TEST(SerializerCorrupt, NonBooleanByteRejected) {
  // A bool travels as one byte, 0 or 1.  Any other byte is a corrupt
  // stream, never a load of an invalid bool.
  for (const int byte : {2, 0x80, 0xff}) {
    Serializer pack(Serializer::Mode::kPack);
    auto raw = static_cast<std::uint8_t>(byte);
    pack & raw;
    Serializer unpack(std::move(pack.buffer()));
    bool flag = false;
    EXPECT_THROW(unpack & flag, CheckpointError) << "byte " << byte;
  }
  for (const bool flag : {false, true}) {
    Serializer pack(Serializer::Mode::kPack);
    bool in = flag;
    pack & in;
    ASSERT_EQ(pack.buffer().size(), 1U);
    EXPECT_EQ(pack.buffer()[0], flag ? std::byte{1} : std::byte{0});
  }
}

TEST(SerializerCorrupt, UnknownEventTagThrows) {
  mem::register_library();
  auto ev = std::make_unique<mem::MemEvent>(mem::MemCmd::kGetX, 64, 8, 7);
  Serializer pack(Serializer::Mode::kPack);
  EventPtr p = std::move(ev);
  pack & p;
  std::vector<std::byte> bytes = std::move(pack.buffer());
  // The stream begins with the presence byte, then the type tag string
  // (u64 length + chars).  Corrupt the tag's first character.
  ASSERT_GT(bytes.size(), 10U);
  bytes[9] = std::byte{'~'};
  Serializer unpack(std::move(bytes));
  EventPtr out;
  EXPECT_THROW(unpack & out, CheckpointError);
}

}  // namespace
}  // namespace sst::ckpt
