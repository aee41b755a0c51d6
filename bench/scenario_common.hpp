#pragma once
// Shared harness for the Figure 5/6/7 autonomic-execution scenarios.
//
// Each figure in the paper plots "Number of Active Threads" against "Wall
// Clock Time (ms)" for one autonomic run of the §5 tweet-count workload.
// These binaries print the same series as CSV plus the shape summary that
// EXPERIMENTS.md compares against the paper. `--scale X` reruns at another
// time scale (1.0 = the paper's full 12.5 s profile); default 0.15.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "util/csv.hpp"
#include "util/zipf.hpp"
#include "workload/wordcount.hpp"

namespace askel::benchharness {

/// Per-tenant traffic weights from a Zipf popularity distribution: tenant k
/// (rank k) gets weight proportional to 1/(k+1)^skew, normalised so the mean
/// weight is 1.0 (total traffic is preserved, only its spread changes).
/// skew <= 0 returns all-ones — the uniform traffic the contended benches
/// used before this knob existed. Deterministic: built from the exact pmf,
/// no sampling, so bench JSON is reproducible run to run.
inline std::vector<double> tenant_popularity_weights(std::size_t tenants,
                                                     double skew) {
  std::vector<double> w(tenants, 1.0);
  if (skew <= 0.0 || tenants < 2) return w;
  const ZipfDistribution dist(tenants, skew);
  for (std::size_t k = 0; k < tenants; ++k)
    w[k] = dist.pmf(k) * static_cast<double>(tenants);
  return w;
}

inline ScenarioConfig parse_config(int argc, char** argv, double goal) {
  ScenarioConfig cfg;
  cfg.wct_goal = goal;
  cfg.timings.scale = 0.15;
  cfg.corpus.num_tweets = 5000;
  cfg.max_lp = 24;
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--backend") == 0) {
      const char* name = k + 1 < argc ? argv[k + 1] : "";
      if (std::strcmp(name, "thread") == 0) {
        cfg.backend = ScenarioBackend::kThread;
      } else if (std::strcmp(name, "tcp") == 0) {
        cfg.backend = ScenarioBackend::kTcp;
      } else {
        std::cerr << argv[0] << ": unknown --backend '" << name
                  << "' (expected thread|tcp)\n";
        std::exit(2);
      }
    }
    if (k + 1 == argc) break;
    if (std::strcmp(argv[k], "--scale") == 0) cfg.timings.scale = std::atof(argv[k + 1]);
    if (std::strcmp(argv[k], "--tweets") == 0)
      cfg.corpus.num_tweets = static_cast<std::size_t>(std::atol(argv[k + 1]));
    if (std::strcmp(argv[k], "--max-lp") == 0) cfg.max_lp = std::atoi(argv[k + 1]);
  }
  return cfg;
}

/// Time-weighted mean of the busy-thread step function over the whole run.
inline double mean_busy(const ScenarioResult& r) {
  if (r.busy_series.empty() || r.wct <= 0.0) return 0.0;
  double acc = 0.0, prev_t = 0.0, cur = 0.0;
  for (const Sample& s : r.busy_series) {
    acc += cur * (s.t - prev_t);
    prev_t = s.t;
    cur = s.value;
  }
  acc += cur * (r.wct - prev_t);
  return acc / r.wct;
}

inline void print_scenario(const char* title, const ScenarioConfig& cfg,
                           const ScenarioResult& res,
                           const char* paper_summary) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "scale " << cfg.timings.scale << "  goal " << fmt(res.goal, 3)
            << " s (" << cfg.wct_goal << " paper-seconds)  sequential "
            << fmt(cfg.timings.sequential_wct(), 3) << " s  max LP " << cfg.max_lp
            << "  backend "
            << (cfg.backend == ScenarioBackend::kTcp ? "tcp" : "thread")
            << "\n";
  std::cout << "paper: " << paper_summary << "\n\n";

  std::cout << "active-thread series (wct_ms, threads):\n";
  std::cout << "wct_ms,threads\n";
  for (const Sample& s : res.busy_series)
    std::cout << fmt(s.t * 1000.0, 1) << ',' << s.value << '\n';

  std::cout << "\nLP decisions:\n";
  for (const auto& a : res.actions) {
    std::cout << "  t=" << fmt(a.t * 1000.0, 1) << "ms  LP " << a.from_lp << " -> "
              << a.to_lp << "  (" << to_string(a.reason)
              << ", be_wct=" << fmt(a.best_effort_wct, 3)
              << ", cur_wct=" << fmt(a.current_lp_wct, 3) << ")\n";
  }
  if (res.actions.empty()) std::cout << "  (none)\n";

  std::cout << "\nsummary: wct=" << fmt(res.wct, 3) << " s  goal "
            << (res.goal_met ? "MET" : "MISSED") << "  peak_busy=" << res.peak_busy
            << "  mean_busy=" << fmt(mean_busy(res), 2)
            << "  final_lp=" << res.final_lp
            << "  evaluations=" << res.controller_evaluations
            << "  result_ok=" << (res.counts == res.expected ? "yes" : "NO")
            << "\n";
}

}  // namespace askel::benchharness
