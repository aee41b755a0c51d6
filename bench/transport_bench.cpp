// Transport/backend benchmark: what does moving LP behind the WorkerBackend
// seam cost, and what does a REAL remote join look like next to the
// simulated provision delay? Every remote number runs over one in-process
// TcpWorkerHost on loopback.
//
// Emits one JSON object on stdout (consumed by bench/run_bench.sh into
// BENCH_PR<N>.json):
//   * provision: measured connect->Hello join latencies of a TCP-backed
//     pool growing 1 -> N vs the configured simulated delay of the thread
//     backend;
//   * lease-batching sweep: tasks/sec through one worker with a live TCP
//     session at K in {1,4,16,64} task brackets per Submit/Complete round
//     trip; K=1 is the per-task bracket, reported against the thread
//     backend under task_bracket;
//   * tcp: the sweep's K=1/K=16 numbers and the named-muscle
//     (kSubmitNamed/kResultNamed) echo round trip;
//   * fig5 scenario (goal without initialization) under --backend thread and
//     --backend tcp: same LP decision kinds, wct, goal, peak busy — the
//     "same decisions end-to-end" acceptance check.
//
// Usage: transport_bench [--smoke] [--scale X] [--tweets N]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/tcp_transport.hpp"
#include "runtime/thread_pool.hpp"
#include "util/csv.hpp"
#include "workload/wordcount.hpp"

using namespace askel;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool wait_effective(ResizableThreadPool& pool, int lp, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (pool.effective_lp() != lp) {
    if (now_s() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void wait_session(const TcpBackend& backend, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (backend.live_sessions() < 1 && now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

struct ProvisionNumbers {
  double grow_wall_ms = 0.0;  // set_target_lp(1 -> n) to effective
  JoinLatencyStats joins;     // per-worker connect->Hello
};

ProvisionNumbers measure_tcp_provision(const TcpWorkerHost& host, int workers) {
  ProvisionNumbers out;
  TcpBackendConfig cfg;
  cfg.port = host.port();
  cfg.max_workers = workers;
  TcpBackend backend(cfg);
  {
    ResizableThreadPool pool(1, workers);
    pool.set_backend(&backend);
    const double t0 = now_s();
    pool.set_target_lp(workers);
    wait_effective(pool, workers, 30.0);
    out.grow_wall_ms = (now_s() - t0) * 1000.0;
    pool.set_backend(nullptr);
  }
  out.joins = backend.transport_factory().join_stats();
  return out;
}

double measure_simulated_provision(int workers, double delay_s) {
  ResizableThreadPool pool(1, workers);
  pool.set_provision_delay(delay_s);
  const double t0 = now_s();
  pool.set_target_lp(workers);
  wait_effective(pool, workers, 30.0);
  return (now_s() - t0) * 1000.0;
}

/// Tasks/sec through a 1-worker pool: the per-task bracket cost shows up as
/// the delta between the thread backend and a live TCP session.
double measure_churn(ResizableThreadPool& pool, int tasks) {
  std::atomic<int> done{0};
  const double t0 = now_s();
  for (int k = 0; k < tasks; ++k) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  const double dt = now_s() - t0;
  return done.load() == tasks && dt > 0.0 ? tasks / dt : 0.0;
}

/// The same 1-worker bracket churn with up to K task brackets coalesced per
/// Submit/Complete round trip, one TCP session per K. The K=1 session also
/// times `named_calls` echo-muscle round trips once it is idle.
struct SweepNumbers {
  std::vector<double> tps;   // per lease_batch K
  double named_rt_us = 0.0;  // mean echo-muscle call round trip
};

SweepNumbers measure_sweep(const TcpWorkerHost& host, WireMuscleId echo_id,
                           const std::vector<int>& batch_ks, int churn_tasks,
                           int named_calls) {
  SweepNumbers out;
  for (const int k_batch : batch_ks) {
    TcpBackendConfig cfg;
    cfg.port = host.port();
    cfg.max_workers = 1;
    cfg.lease_batch = k_batch;
    TcpBackend backend(cfg);
    ResizableThreadPool pool(1, 1);
    pool.set_backend(&backend);
    // Wait for the session so every task really pays the round trip.
    wait_session(backend, 10.0);
    out.tps.push_back(measure_churn(pool, churn_tasks));
    if (k_batch == 1) {
      const double t0 = now_s();
      int ok = 0;
      for (int k = 0; k < named_calls; ++k) {
        const NamedCallResult r =
            backend.call_named(0, echo_id, PodValue::of_i64(k));
        if (r.transported && r.status == NamedStatus::kOk) ++ok;
      }
      const double dt = now_s() - t0;
      if (ok == named_calls && named_calls > 0 && dt > 0.0) {
        out.named_rt_us = dt * 1e6 / named_calls;
      }
    }
    pool.set_backend(nullptr);
  }
  return out;
}

struct FigNumbers {
  ScenarioResult res;
  long increase_decisions = 0;
  long decrease_decisions = 0;
  long provision_failures = 0;
};

FigNumbers run_fig5(ScenarioBackend backend, double scale, std::size_t tweets) {
  ScenarioConfig cfg;
  cfg.wct_goal = 9.5;
  cfg.timings.scale = scale;
  cfg.corpus.num_tweets = tweets;
  cfg.max_lp = 24;
  cfg.backend = backend;
  FigNumbers out;
  out.res = run_wordcount_scenario(cfg);
  for (const auto& a : out.res.actions) {
    switch (a.reason) {
      case DecisionReason::kIncreaseToGoal:
      case DecisionReason::kIncreaseSaturated:
      case DecisionReason::kUnachievableRamp:
        ++out.increase_decisions;
        break;
      case DecisionReason::kDecreaseHalf:
        ++out.decrease_decisions;
        break;
      case DecisionReason::kProvisionFailed:
        ++out.provision_failures;
        break;
      default:
        break;
    }
  }
  return out;
}

void print_fig(const char* key, const FigNumbers& f) {
  std::cout << "  \"" << key << "\": {\n";
  std::cout << "    \"wct_s\": " << fmt(f.res.wct, 4) << ",\n";
  std::cout << "    \"goal_s\": " << fmt(f.res.goal, 4) << ",\n";
  std::cout << "    \"goal_met\": " << (f.res.goal_met ? "true" : "false")
            << ",\n";
  std::cout << "    \"peak_busy\": " << f.res.peak_busy << ",\n";
  std::cout << "    \"final_lp\": " << f.res.final_lp << ",\n";
  std::cout << "    \"lp_decisions\": " << f.res.actions.size() << ",\n";
  std::cout << "    \"increase_decisions\": " << f.increase_decisions << ",\n";
  std::cout << "    \"decrease_decisions\": " << f.decrease_decisions << ",\n";
  std::cout << "    \"provision_failures\": " << f.provision_failures << ",\n";
  std::cout << "    \"result_ok\": "
            << (f.res.counts == f.res.expected ? "true" : "false") << "\n";
  std::cout << "  }";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  double scale = 0.08;
  std::size_t tweets = 3000;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[k], "--scale") == 0 && k + 1 < argc)
      scale = std::atof(argv[k + 1]);
    if (std::strcmp(argv[k], "--tweets") == 0 && k + 1 < argc)
      tweets = static_cast<std::size_t>(std::atol(argv[k + 1]));
  }
  if (smoke) {
    scale = std::min(scale, 0.04);
    tweets = std::min<std::size_t>(tweets, 1200);
  }

  MuscleTable table;
  const WireMuscleId echo_id =
      table.register_muscle("bench.echo", [](const PodValue& v) { return v; });
  TcpWorkerHost host(table);
  if (!host.listening()) {
    std::cout << "{\"error\": \"the TCP worker host did not bind\"}\n";
    return 1;
  }

  const int provision_workers = smoke ? 4 : 8;
  const double sim_delay = 0.05;
  const ProvisionNumbers tcp_prov = measure_tcp_provision(host, provision_workers);
  const double sim_ms = measure_simulated_provision(provision_workers, sim_delay);

  const int churn_tasks = smoke ? 2000 : 20000;
  double thread_tps = 0.0;
  {
    ResizableThreadPool pool(1, 1);
    thread_tps = measure_churn(pool, churn_tasks);
  }
  // Lease-batching sweep: K=1 is the per-task protocol; the curve shows how
  // much of the bracket cost amortizes.
  const std::vector<int> batch_ks = {1, 4, 16, 64};
  const SweepNumbers sweep = measure_sweep(host, echo_id, batch_ks, churn_tasks,
                                           /*named_calls=*/smoke ? 200 : 2000);
  const double tps_k1 = sweep.tps[0];
  const double tps_k16 = sweep.tps[2];

  const FigNumbers fig_thread = run_fig5(ScenarioBackend::kThread, scale, tweets);
  const FigNumbers fig_tcp = run_fig5(ScenarioBackend::kTcp, scale, tweets);

  std::cout << "{\n";
  std::cout << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  std::cout << "  \"provision\": {\n";
  std::cout << "    \"workers\": " << provision_workers << ",\n";
  std::cout << "    \"tcp_grow_wall_ms\": " << fmt(tcp_prov.grow_wall_ms, 2)
            << ",\n";
  std::cout << "    \"tcp_join_mean_us\": " << fmt(tcp_prov.joins.mean_us, 1)
            << ",\n";
  std::cout << "    \"tcp_join_max_us\": " << fmt(tcp_prov.joins.max_us, 1)
            << ",\n";
  std::cout << "    \"simulated_delay_ms\": " << fmt(sim_delay * 1000.0, 1)
            << ",\n";
  std::cout << "    \"simulated_grow_wall_ms\": " << fmt(sim_ms, 2) << "\n";
  std::cout << "  },\n";
  std::cout << "  \"task_bracket\": {\n";
  std::cout << "    \"thread_tasks_per_sec\": " << fmt(thread_tps, 0) << ",\n";
  std::cout << "    \"tcp_tasks_per_sec\": " << fmt(tps_k1, 0) << "\n";
  std::cout << "  },\n";
  std::cout << "  \"lease_batching\": [\n";
  for (std::size_t k = 0; k < batch_ks.size(); ++k) {
    std::cout << "    {\"lease_batch\": " << batch_ks[k]
              << ", \"tcp_tasks_per_sec\": " << fmt(sweep.tps[k], 0)
              << ", \"speedup_vs_k1\": "
              << fmt(tps_k1 > 0.0 ? sweep.tps[k] / tps_k1 : 0.0, 3) << "}"
              << (k + 1 < batch_ks.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n";
  std::cout << "  \"tcp\": {\n";
  std::cout << "    \"available\": true,\n";
  std::cout << "    \"tasks_per_sec_k1\": " << fmt(tps_k1, 0) << ",\n";
  std::cout << "    \"tasks_per_sec_k16\": " << fmt(tps_k16, 0) << ",\n";
  std::cout << "    \"speedup_k16_vs_k1\": "
            << fmt(tps_k1 > 0.0 ? tps_k16 / tps_k1 : 0.0, 3) << ",\n";
  std::cout << "    \"named_round_trip_us\": " << fmt(sweep.named_rt_us, 1)
            << "\n";
  std::cout << "  },\n";
  print_fig("fig5_thread", fig_thread);
  std::cout << ",\n";
  print_fig("fig5_tcp", fig_tcp);
  std::cout << "\n}\n";

  // Sanity gates (always): both runs computed the right counts; the TCP run
  // reached the same KIND of trajectory — the controller adapted (grew past
  // 1) under both backends. Timing-sensitive equality is the bench JSON's
  // business, not an assertion.
  const bool ok = fig_thread.res.counts == fig_thread.res.expected &&
                  fig_tcp.res.counts == fig_tcp.res.expected &&
                  fig_thread.res.peak_busy > 1 && fig_tcp.res.peak_busy > 1 &&
                  fig_tcp.provision_failures == 0 && tps_k1 > 0.0 &&
                  sweep.named_rt_us > 0.0;
  return ok ? 0 : 1;
}
