// Steady-state allocation tests: after warm-up, a MessageSession
// round-trip (encode -> gather send -> framed receive -> compiled decode)
// of a record touches the heap zero times. Global operator new/delete are
// replaced with counting shims; counting is switched on only inside the
// measured window so the test harness's own allocations don't register.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/arena.hpp"
#include "pbio/encode.hpp"
#include "pbio/registry.hpp"
#include "session/session.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<bool> g_counting{false};

// Every replaced form allocates from malloc and every delete frees there,
// throwing and nothrow alike: libstdc++'s get_temporary_buffer (the
// stable_sort scratch) allocates through the nothrow operator new and
// frees through plain operator delete, so a nothrow form left to the
// library would hand this file's std::free a block it never malloc'd.
void* counted_alloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(align);
  std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc contract
  return std::aligned_alloc(a, rounded ? rounded : a);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return or_throw(counted_alloc(size)); }
void* operator new[](std::size_t size) {
  return or_throw(counted_alloc(size));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return or_throw(counted_aligned_alloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return or_throw(counted_aligned_alloc(size, align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace xmit {
namespace {

using pbio::Encoder;
using pbio::FormatRegistry;
using pbio::IOField;
using session::MessageSession;
using session::make_session_pipe;

// Flat (contiguous) record: the acceptance-criterion case.
struct Flat {
  std::int32_t a;
  float b;
  std::int32_t c;
  std::int32_t d;
};

std::vector<IOField> flat_fields() {
  return {
      {"a", "integer", 4, offsetof(Flat, a)},
      {"b", "float", 4, offsetof(Flat, b)},
      {"c", "integer", 4, offsetof(Flat, c)},
      {"d", "integer", 4, offsetof(Flat, d)},
  };
}

TEST(ZeroAlloc, FlatRecordRoundTripAllocatesNothingAfterWarmup) {
  FormatRegistry reg_a;
  FormatRegistry reg_b;
  auto pair = make_session_pipe(reg_a, reg_b).value();
  auto format_a =
      reg_a.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto receiver =
      reg_b.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto encoder = Encoder::make(format_a).value();

  Arena arena;
  pbio::Decoder decoder(reg_b);
  Flat record{1, 2.5f, 3, 4};
  Flat out{};

  auto round_trip = [&]() -> bool {
    record.a += 1;
    if (!pair.a.send(encoder, &record).is_ok()) return false;
    auto incoming = pair.b.receive_view(1000);
    if (!incoming.is_ok()) return false;
    arena.rewind();
    if (!decoder
             .decode(incoming.value().bytes, *receiver, &out, arena)
             .is_ok())
      return false;
    return out.a == record.a && out.b == record.b && out.d == record.d;
  };

  // Warm-up: announcement, frame buffers, plan cache, slice capacity.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(round_trip()) << "warmup " << i;

  g_allocations.store(0);
  g_counting.store(true);
  bool all_ok = true;
  for (int i = 0; i < 100; ++i) all_ok = round_trip() && all_ok;
  g_counting.store(false);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state flat round-trip touched the heap";
}

// The same flat round trip over a flow-controlled pair: every send also
// sweeps the wire for grants (none waiting is not an error string), and
// the in-flight credit ledger keeps its capacity as acks retire records.
TEST(ZeroAlloc, FlowControlledRoundTripAllocatesNothingAfterWarmup) {
  FormatRegistry reg_a;
  FormatRegistry reg_b;
  session::SessionOptions options;
  options.flow_control = true;
  auto pair = make_session_pipe(reg_a, reg_b, options).value();
  auto format_a =
      reg_a.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto receiver =
      reg_b.register_format("Flat", flat_fields(), sizeof(Flat)).value();
  auto encoder = Encoder::make(format_a).value();

  Arena arena;
  pbio::Decoder decoder(reg_b);
  Flat record{1, 2.5f, 3, 4};
  Flat out{};

  auto round_trip = [&]() -> bool {
    record.a += 1;
    if (!pair.a.send(encoder, &record).is_ok()) return false;
    auto incoming = pair.b.receive_view(1000);
    if (!incoming.is_ok()) return false;
    arena.rewind();
    if (!decoder
             .decode(incoming.value().bytes, *receiver, &out, arena)
             .is_ok())
      return false;
    return out.a == record.a && out.b == record.b && out.d == record.d;
  };

  // The receiver's first receive seeds the sender's credit.
  (void)pair.b.receive_view(10);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(round_trip()) << "warmup " << i;

  g_allocations.store(0);
  g_counting.store(true);
  bool all_ok = true;
  for (int i = 0; i < 100; ++i) all_ok = round_trip() && all_ok;
  g_counting.store(false);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state flow-controlled round-trip touched the heap";
}

// Var-bearing record: payload slices ship from caller memory, the decode
// arena is rewound (capacity retained) between records.
struct WithArray {
  std::int32_t timestep;
  std::int32_t size;
  float* data;
};

TEST(ZeroAlloc, DynamicArrayRoundTripAllocatesNothingAfterWarmup) {
  FormatRegistry reg_a;
  FormatRegistry reg_b;
  auto pair = make_session_pipe(reg_a, reg_b).value();
  std::vector<IOField> fields = {
      {"timestep", "integer", 4, offsetof(WithArray, timestep)},
      {"size", "integer", 4, offsetof(WithArray, size)},
      {"data", "float[size]", 4, offsetof(WithArray, data)},
  };
  auto format_a =
      reg_a.register_format("WithArray", fields, sizeof(WithArray)).value();
  auto receiver =
      reg_b.register_format("WithArray", fields, sizeof(WithArray)).value();
  auto encoder = Encoder::make(format_a).value();

  std::vector<float> payload(256);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<float>(i) * 0.5f;
  WithArray record{0, static_cast<std::int32_t>(payload.size()),
                   payload.data()};
  WithArray out{};
  Arena arena;
  pbio::Decoder decoder(reg_b);

  auto round_trip = [&]() -> bool {
    record.timestep += 1;
    if (!pair.a.send(encoder, &record).is_ok()) return false;
    auto incoming = pair.b.receive_view(1000);
    if (!incoming.is_ok()) return false;
    arena.rewind();
    if (!decoder
             .decode(incoming.value().bytes, *receiver, &out, arena)
             .is_ok())
      return false;
    return out.timestep == record.timestep && out.size == record.size &&
           out.data[255] == payload[255];
  };

  for (int i = 0; i < 10; ++i) ASSERT_TRUE(round_trip()) << "warmup " << i;

  g_allocations.store(0);
  g_counting.store(true);
  bool all_ok = true;
  for (int i = 0; i < 100; ++i) all_ok = round_trip() && all_ok;
  g_counting.store(false);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state array round-trip touched the heap";
}

// Arena::rewind keeps capacity and collapses multi-chunk arenas.
TEST(ZeroAlloc, ArenaRewindRetainsCapacity) {
  Arena arena(64);  // small chunks force multi-chunk growth
  for (int i = 0; i < 10; ++i) arena.allocate(100);
  arena.rewind();  // collapses to one chunk
  std::size_t capacity = arena.bytes_in_use();
  EXPECT_GT(capacity, 0u);

  g_allocations.store(0);
  g_counting.store(true);
  for (int round = 0; round < 50; ++round) {
    arena.rewind();
    for (int i = 0; i < 10; ++i) arena.allocate(100);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u);
  EXPECT_EQ(arena.bytes_in_use(), capacity);
}

}  // namespace
}  // namespace xmit
