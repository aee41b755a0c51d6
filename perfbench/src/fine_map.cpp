// fine_map and fine_map_tcp: a closed loop keeping nproc two-level Map inputs
// in flight from one client thread. Each input has 16 x 64 = 1024 leaves and
// each leaf hashes a 16-word slice, a muscle of a few tens of nanoseconds, so
// per-element skeleton, event and pool costs dominate. fine_map_tcp runs the
// same inputs on a pool whose capacity joins through TcpBackend to an
// in-process TcpWorkerHost on loopback (lease_batch 16, nproc connections),
// which puts the backend lease bracket and the wire on every task.

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "bench.hpp"
#include "runtime/tcp_transport.hpp"
#include "skel/typed.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using askel::Future;
using askel::Skel;

constexpr int kOuter = 16;
constexpr int kInner = 64;
constexpr int kLeaves = kOuter * kInner;
constexpr int kWords = 16;  // words hashed per leaf
constexpr int kInputWords = kLeaves * kWords;
constexpr int kDistinctInputs = 32;
constexpr int kLeaseBatch = 16;
constexpr int kChunkInputs = 32;  // completions per throughput sample

struct Slice {
  const std::uint64_t* data = nullptr;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::int32_t level = 0;
  std::int32_t input = -1;  // input id, carried so traced spans can be grouped
};

std::vector<Slice> split_slice(const Slice& s) {
  const int parts = s.level == 0 ? kOuter : kInner;
  const std::uint32_t step = (s.end - s.begin) / static_cast<std::uint32_t>(parts);
  std::vector<Slice> out;
  out.reserve(static_cast<std::size_t>(parts));
  for (int k = 0; k < parts; ++k) {
    const std::uint32_t b = s.begin + static_cast<std::uint32_t>(k) * step;
    out.push_back(Slice{s.data, b, b + step, s.level + 1, s.input});
  }
  return out;
}

std::uint64_t leaf_hash(const Slice& s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint32_t i = s.begin; i < s.end; ++i) {
    h = (h ^ s.data[i]) * 0x100000001B3ull;
    h ^= h >> 29;
  }
  return h;
}

/// Order-sensitive, so a merge that permutes its parts is caught.
std::uint64_t combine(const std::vector<std::uint64_t>& parts) {
  std::uint64_t h = 0x84222325CBF29CE4ull;
  for (const std::uint64_t x : parts) h = ((h << 5) | (h >> 59)) ^ (x * 0x9E3779B97F4A7C15ull);
  return h;
}

/// The sequential reference of one input.
std::uint64_t reference(const Slice& root) {
  std::vector<std::uint64_t> outer;
  for (const Slice& chunk : split_slice(root)) {
    std::vector<std::uint64_t> inner;
    for (const Slice& leaf : split_slice(chunk)) inner.push_back(leaf_hash(leaf));
    outer.push_back(combine(inner));
  }
  return combine(outer);
}

struct Rig {
  std::vector<std::uint64_t> data;
  std::unique_ptr<askel::TcpWorkerHost> host;
  std::unique_ptr<askel::TcpBackend> backend;
  std::unique_ptr<askel::EventBus> bus;
  std::unique_ptr<askel::ResizableThreadPool> pool;
  std::unique_ptr<askel::Engine> engine;
  std::optional<Skel<Slice, std::uint64_t>> skel;

  Slice input(std::int64_t id) const {
    const auto k = static_cast<std::size_t>(id % kDistinctInputs);
    return Slice{data.data() + k * kInputWords, 0, kInputWords, 0,
                 static_cast<std::int32_t>(id)};
  }

  ~Rig() {
    // The pool joins its workers first; the backend it brackets tasks with
    // and the host serving that backend go after it.
    engine.reset();
    pool.reset();
    backend.reset();
    host.reset();
  }
};

/// Everything before the timed loop: inputs, worker host and backend join,
/// pool, bus, engine and skeleton. Returns null (with `err`) on failure.
std::unique_ptr<Rig> build_rig(std::uint64_t seed, bool tcp, int lp, std::string& err) {
  auto rig = std::make_unique<Rig>();
  rig->data.resize(static_cast<std::size_t>(kDistinctInputs) * kInputWords);
  std::uint64_t state = seed;
  for (std::uint64_t& w : rig->data) w = splitmix(state);

  if (tcp) {
    rig->host = std::make_unique<askel::TcpWorkerHost>();
    if (!rig->host->listening()) {
      err = "TcpWorkerHost could not listen on loopback";
      return nullptr;
    }
    askel::TcpBackendConfig cfg;
    cfg.port = rig->host->port();
    cfg.max_workers = lp;
    cfg.lease_batch = kLeaseBatch;
    rig->backend = std::make_unique<askel::TcpBackend>(cfg);
  }
  rig->bus = std::make_unique<askel::EventBus>();
  rig->pool = std::make_unique<askel::ResizableThreadPool>(lp, lp);
  if (tcp) {
    rig->pool->set_backend(rig->backend.get());
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (rig->backend->live_sessions() < lp || rig->pool->effective_lp() < lp) {
      if (std::chrono::steady_clock::now() > deadline) {
        err = "TCP backend did not join " + std::to_string(lp) + " sessions in 10 s";
        return nullptr;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  rig->engine = std::make_unique<askel::Engine>(*rig->pool, *rig->bus);

  auto fs = askel::split_muscle<Slice, Slice>("fs", [](Slice s) {
    MuscleSpan m(MuscleRole::kSplit);
    return split_slice(s);
  });
  auto fe = askel::execute_muscle<Slice, std::uint64_t>("fe", [](Slice s) {
    MuscleSpan m(MuscleRole::kExecute);
    return leaf_hash(s);
  });
  auto fm = askel::merge_muscle<std::uint64_t, std::uint64_t>(
      "fm", [](std::vector<std::uint64_t> parts) {
        MuscleSpan m(MuscleRole::kMerge);
        return combine(parts);
      });
  rig->skel.emplace(askel::Map(fs, askel::Map(fs, askel::Seq(fe), fm), fm));
  return rig;
}

struct Phase {
  double t0 = 0.0;
  double t1 = 0.0;
  double wall = 0.0;
  long inputs = 0;
  long leaves = 0;
  long wrong = 0;
  long errors = 0;
  std::vector<double> latency_ms;
  std::vector<double> launch_ns;
  std::vector<double> done_at;  // completion times, seconds since t0
  double process_cpu = 0.0;
  double client_cpu = 0.0;
  std::uint64_t steals = 0;
  std::uint64_t leases = 0;
  Tally tally;
  double lp_seconds = 0.0;
};

/// The closed loop: keep `window` inputs in flight for `seconds`, then drain.
/// Results are collected oldest first. A traced phase also stops launching
/// once `record_cap` trace records exist, bounding its memory.
Phase run_phase(Rig& rig, double seconds, int window,
                const std::vector<std::uint64_t>& expected, std::int64_t& next_id,
                std::uint64_t record_cap) {
  struct InFlight {
    Future<std::uint64_t> fut;
    std::int64_t id;
    double launched;
  };
  ScopeGuard client(Scope::kClient);
  Phase ph;
  ph.latency_ms.reserve(1 << 16);
  ph.launch_ns.reserve(1 << 16);
  ph.done_at.reserve(1 << 16);
  std::deque<InFlight> inflight;
  const std::uint64_t records0 = records_written();
  const bool traced = tracing();
  const Tally tally0 = tally_now();
  const double cpu0 = process_cpu_s();
  const double client0 = thread_cpu_s();
  const std::uint64_t steals0 = rig.pool->steals();
  const std::uint64_t leases0 = rig.backend ? rig.backend->stats().leases : 0;
  ph.t0 = now();
  while (true) {
    const double t = now();
    const bool stop = t - ph.t0 >= seconds ||
                      (traced && records_written() - records0 >= record_cap);
    if (!stop && static_cast<int>(inflight.size()) < window) {
      const std::int64_t id = next_id++;
      const Slice in = rig.input(id);
      Future<std::uint64_t> fut;
      const double a = now();
      {
        ScopeGuard skel_side(Scope::kOther);
        fut = rig.skel->input(in, *rig.engine);
      }
      const double b = now();
      ph.launch_ns.push_back((b - a) * 1e9);
      if (traced) record(Rec{a, b, id, -1, -1, SpanKind::kLaunch, 0, 0});
      inflight.push_back(InFlight{std::move(fut), id, a});
      continue;
    }
    if (inflight.empty()) break;
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    const double g0 = now();
    std::uint64_t got = 0;
    bool ok = true;
    try {
      ScopeGuard skel_side(Scope::kOther);
      got = f.fut.get();
    } catch (...) {
      ok = false;
    }
    const double g1 = now();
    if (traced) record(Rec{g0, g1, f.id, -1, -1, SpanKind::kGet, 0, 0});
    if (!ok) {
      ++ph.errors;
    } else if (got != expected[static_cast<std::size_t>(f.id % kDistinctInputs)]) {
      ++ph.wrong;
    }
    ++ph.inputs;
    ph.leaves += kLeaves;
    ph.latency_ms.push_back((g1 - f.launched) * 1e3);
    ph.done_at.push_back(g1 - ph.t0);
  }
  ph.t1 = now();
  ph.wall = ph.t1 - ph.t0;
  ph.process_cpu = process_cpu_s() - cpu0;
  ph.client_cpu = thread_cpu_s() - client0;
  ph.steals = rig.pool->steals() - steals0;
  ph.leases = (rig.backend ? rig.backend->stats().leases : 0) - leases0;
  ph.tally = tally_now() - tally0;
  ph.lp_seconds =
      rig.pool->lp_history().time_weighted_mean(ph.t0, ph.t1) * (ph.t1 - ph.t0);
  return ph;
}

/// Throughput samples: the rate of each run of kChunkInputs consecutive
/// completions inside the timed span (the drain after it is left out).
void chunk_rates(const Phase& ph, double seconds, std::vector<double>& rates) {
  double from = 0.0;
  for (std::size_t end = kChunkInputs; end <= ph.done_at.size(); end += kChunkInputs) {
    const double to = ph.done_at[end - 1];
    if (to > seconds) break;
    if (to > from) rates.push_back(kChunkInputs * kLeaves / (to - from));
    from = to;
  }
}

/// Adds a segment's counts and samples to the run's totals.
void absorb(Phase& total, const Phase& seg) {
  total.wall += seg.wall;
  total.inputs += seg.inputs;
  total.leaves += seg.leaves;
  total.wrong += seg.wrong;
  total.errors += seg.errors;
  total.latency_ms.insert(total.latency_ms.end(), seg.latency_ms.begin(), seg.latency_ms.end());
  total.launch_ns.insert(total.launch_ns.end(), seg.launch_ns.begin(), seg.launch_ns.end());
  total.process_cpu += seg.process_cpu;
  total.client_cpu += seg.client_cpu;
  total.steals += seg.steals;
  total.leases += seg.leases;
  total.tally = total.tally + seg.tally;
  total.lp_seconds += seg.lp_seconds;
}

/// After quiescence every lease is either completed or recovered. A
/// heartbeat sweep may still be flushing a stale batch window: give it a
/// moment to resolve before calling the invariant broken.
askel::RemoteBackendStats check_leases(Result& res, Rig& rig) {
  rig.pool->wait_idle();
  askel::RemoteBackendStats st = rig.backend->stats();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (st.leases != st.completes + st.losses_recovered &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    st = rig.backend->stats();
  }
  res.attempted += 1;
  if (st.leases != st.completes + st.losses_recovered) {
    res.fail(1, "leases (" + std::to_string(st.leases) + ") != completes (" +
                    std::to_string(st.completes) + ") + losses_recovered (" +
                    std::to_string(st.losses_recovered) + ")");
  }
  return st;
}

void check_phase(Result& res, const Phase& ph) {
  res.attempted += ph.inputs;
  res.fail(ph.wrong, "result differs from the sequential reference");
  res.fail(ph.errors, "future completed with an exception");
}

}  // namespace

Result run_fine_map(const Options& opt, bool tcp) {
  Result res;
  const int lp = static_cast<int>(host_lp());
  const int window = lp;

  // The timed span runs in kSetups segments, each on a freshly built rig.
  // Where a rig's objects land in memory decides which cache lines the
  // workers contend on, and that shifts throughput by several percent for
  // the rig's whole life; pooling segments averages it out within one run.
  const double seg_seconds = opt.seconds / kSetups;
  std::vector<double> setup_s;
  std::vector<double> rates;
  std::vector<std::uint64_t> expected;
  std::vector<double> joins;
  double lease_losses = 0.0;
  Phase plain;
  std::unique_ptr<Rig> rig;
  std::int64_t next_id = 0;
  for (int k = 0; k < kSetups; ++k) {
    if (rig && tcp) lease_losses += static_cast<double>(check_leases(res, *rig).losses_recovered);
    rig.reset();
    std::string err;
    const double t0 = now();
    rig = build_rig(opt.seed, tcp, lp, err);
    setup_s.push_back(now() - t0);
    if (!rig) {
      res.fail(1, "set-up: " + err);
      return res;
    }
    if (tcp) {
      const std::vector<double> j = rig->backend->transport_factory().join_latencies_us();
      joins.insert(joins.end(), j.begin(), j.end());
    }
    if (expected.empty()) {
      for (int i = 0; i < kDistinctInputs; ++i) expected.push_back(reference(rig->input(i)));
    }
    const Phase seg = run_phase(*rig, seg_seconds, window, expected, next_id, 0);
    check_phase(res, seg);
    chunk_rates(seg, seg_seconds, rates);
    absorb(plain, seg);
  }

  if (rates.empty()) {
    res.e2e["elements_per_s"] =
        Metric{static_cast<double>(plain.leaves) / std::max(1e-9, plain.wall), "1/s", 1};
  } else {
    res.e2e["elements_per_s"] = Metric{median(rates), "1/s", static_cast<long>(rates.size())};
  }
  res.e2e["latency_p50_ms"] = Metric{quantile(plain.latency_ms, 0.50), "ms",
                                     static_cast<long>(plain.latency_ms.size())};
  res.e2e["latency_p99_ms"] = Metric{quantile(plain.latency_ms, 0.99), "ms",
                                     static_cast<long>(plain.latency_ms.size())};
  res.e2e["lp_seconds"] = Metric{plain.lp_seconds, "thread-s", kSetups};
  res.e2e["setup_s"] = Metric{median(setup_s), "s", static_cast<long>(setup_s.size())};

  const double leaves = std::max(1.0, static_cast<double>(plain.leaves));
  auto& L = res.layer;
  L["workload.muscle_calls"] = Metric{static_cast<double>(plain.tally.muscle_calls), "count", 1};
  L["skel.launch_ns"] = Metric{median(plain.launch_ns), "ns",
                               static_cast<long>(plain.launch_ns.size())};
  L["skel.allocs_per_element"] = Metric{
      static_cast<double>(plain.tally.allocs[static_cast<int>(Scope::kOther)]) / leaves,
      "count", plain.leaves};
  L["runtime.steals_per_element"] =
      Metric{static_cast<double>(plain.steals) / leaves, "count", plain.leaves};
  L["loadgen.cpu_s"] = Metric{plain.client_cpu, "s", 1};

  if (opt.trace) {
    const std::uint64_t kRecordCap = 1000000;  // 40 MB of records
    auto observer = make_observer([](const std::any& in) -> std::int64_t {
      const Slice* s = std::any_cast<Slice>(&in);
      return s != nullptr ? s->input : -1;
    });
    const std::uint64_t listener = rig->bus->add_listener(observer);
    set_tracing(true);
    const Phase traced = run_phase(*rig, opt.seconds, window, expected, next_id, kRecordCap);
    set_tracing(false);
    rig->pool->wait_idle();
    rig->bus->remove_listener(listener);
    check_phase(res, traced);
    const TraceSummary sum = analyze(take_records(), opt.spans_path, 3);
    const double tleaves = std::max(1.0, static_cast<double>(sum.leaf_muscles));

    L["workload.muscle_busy_share"] =
        Metric{traced.lp_seconds > 0.0 ? sum.muscle_s / traced.lp_seconds : 0.0, "ratio",
               sum.muscle_spans};
    const double muscle_ns_per_leaf = sum.muscle_s * 1e9 / tleaves;
    L["skel.overhead_cpu_ns_per_element"] = Metric{
        (plain.process_cpu - plain.client_cpu) * 1e9 / leaves - muscle_ns_per_leaf, "ns",
        plain.leaves};
    L["skel.self_ns_per_element"] =
        Metric{sum.instance_self_s * 1e9 / tleaves, "ns", sum.instances};
    L["events.per_element"] =
        Metric{static_cast<double>(sum.events) / tleaves, "count", sum.events};
    L["runtime.dispatch_wait_p50_us"] = Metric{quantile(sum.dispatch_wait_us, 0.50), "us",
                                               static_cast<long>(sum.dispatch_wait_us.size())};
    L["runtime.dispatch_wait_p99_us"] = Metric{quantile(sum.dispatch_wait_us, 0.99), "us",
                                               static_cast<long>(sum.dispatch_wait_us.size())};
    const double p50_plain = quantile(plain.latency_ms, 0.5);
    L["trace.overhead_pct"] = Metric{
        p50_plain > 0.0 ? 100.0 * (quantile(traced.latency_ms, 0.5) / p50_plain - 1.0) : 0.0,
        "%", static_cast<long>(traced.latency_ms.size())};
    L["trace.records"] = Metric{static_cast<double>(traced.tally.trace_records), "count", 1};
  }

  if (tcp) {
    lease_losses += static_cast<double>(check_leases(res, *rig).losses_recovered);
    L["runtime.leases_per_element"] =
        Metric{static_cast<double>(plain.leases) / leaves, "count", plain.leaves};
    L["runtime.lease_losses"] = Metric{lease_losses, "count", kSetups};
    L["runtime.join_p50_us"] = Metric{median(joins), "us", static_cast<long>(joins.size())};
  }
  L["runtime.gauge_samples"] =
      Metric{static_cast<double>(rig->pool->gauge().series().size()), "count", 1};
  L["runtime.lp_history_len"] =
      Metric{static_cast<double>(rig->pool->lp_history().size()), "count", 1};
  res.e2e["rss_peak_mb"] = Metric{rss_peak_mb(), "MB", 1};
  return res;
}

}  // namespace perfbench
