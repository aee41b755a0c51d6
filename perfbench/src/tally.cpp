#include "tally.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// One slot per thread for the first kSlots threads; later threads share the
// last slot, which is then bumped with locked adds so no count is lost.
constexpr int kSlots = 4096;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> allocs[kScopes];
  std::atomic<std::uint64_t> muscle_calls;
  std::atomic<std::uint64_t> trace_records;
};

Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};

// Trivially initialised thread_locals: safe to touch from operator new at any
// point of a thread's life, including before and after its TLS destructors.
thread_local int t_slot = -1;
thread_local Scope t_scope = Scope::kOther;

int slot_index() {
  if (t_slot < 0) {
    const int k = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot = k < kSlots - 1 ? k : kSlots - 1;
  }
  return t_slot;
}

void bump(std::atomic<std::uint64_t>& c, std::uint64_t by, bool shared) {
  if (shared) {
    c.fetch_add(by, std::memory_order_relaxed);
  } else {
    c.store(c.load(std::memory_order_relaxed) + by, std::memory_order_relaxed);
  }
}

void count_alloc() {
  const int k = slot_index();
  bump(g_slots[k].allocs[static_cast<int>(t_scope)], 1, k == kSlots - 1);
}

void* counted_alloc(std::size_t n) {
  count_alloc();
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  count_alloc();
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) return nullptr;
  return p;
}

}  // namespace

Tally Tally::operator-(const Tally& o) const {
  Tally d;
  for (int s = 0; s < kScopes; ++s) d.allocs[s] = allocs[s] - o.allocs[s];
  d.muscle_calls = muscle_calls - o.muscle_calls;
  d.trace_records = trace_records - o.trace_records;
  return d;
}

Tally Tally::operator+(const Tally& o) const {
  Tally d;
  for (int s = 0; s < kScopes; ++s) d.allocs[s] = allocs[s] + o.allocs[s];
  d.muscle_calls = muscle_calls + o.muscle_calls;
  d.trace_records = trace_records + o.trace_records;
  return d;
}

Tally tally_now() {
  Tally t;
  const int used = std::min(g_next_slot.load(std::memory_order_relaxed), kSlots);
  for (int k = 0; k < used; ++k) {
    const Slot& s = g_slots[k];
    for (int c = 0; c < kScopes; ++c)
      t.allocs[c] += s.allocs[c].load(std::memory_order_relaxed);
    t.muscle_calls += s.muscle_calls.load(std::memory_order_relaxed);
    t.trace_records += s.trace_records.load(std::memory_order_relaxed);
  }
  return t;
}

Scope set_scope(Scope s) {
  const Scope prev = t_scope;
  t_scope = s;
  return prev;
}

void count_muscle() {
  const int k = slot_index();
  bump(g_slots[k].muscle_calls, 1, k == kSlots - 1);
}

void count_trace_record() {
  const int k = slot_index();
  bump(g_slots[k].trace_records, 1, k == kSlots - 1);
}

}  // namespace perfbench

// Global replacements. Every allocating form funnels into counted_alloc /
// counted_aligned_alloc; every deallocating form into free().
void* operator new(std::size_t n) {
  void* p = perfbench::counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  void* p = perfbench::counted_aligned_alloc(n, static_cast<std::size_t>(a));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
