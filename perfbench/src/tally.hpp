#pragma once
// Per-thread counters of the benchmark binary: heap allocations split by
// scope, muscle calls and trace records.
//
// The binary replaces global operator new/delete (tally.cpp) with versions
// that bump the calling thread's counter for its current scope. A thread
// marks the code it runs as muscle, tracer or client work with ScopeGuard;
// everything else (skeleton engine, events, pool, listeners) is kOther.
// Counters live in per-thread cache-line slots and are bumped without a
// locked instruction, so counting costs a few cycles per allocation and is
// always on: traced and untraced runs use the same binary.

#include <cstdint>

namespace perfbench {

enum class Scope : std::uint8_t { kOther = 0, kMuscle = 1, kTracer = 2, kClient = 3 };
inline constexpr int kScopes = 4;

/// Sum of every thread's counters since process start.
struct Tally {
  std::uint64_t allocs[kScopes] = {};
  std::uint64_t muscle_calls = 0;
  std::uint64_t trace_records = 0;

  Tally operator-(const Tally& o) const;
  Tally operator+(const Tally& o) const;
};

Tally tally_now();

/// Sets the calling thread's scope; returns the previous one.
Scope set_scope(Scope s);

/// Counts one completed muscle call.
void count_muscle();
/// Counts one trace record written by the calling thread.
void count_trace_record();

class ScopeGuard {
 public:
  explicit ScopeGuard(Scope s) : prev_(set_scope(s)) {}
  ~ScopeGuard() { set_scope(prev_); }
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  Scope prev_;
};

}  // namespace perfbench
