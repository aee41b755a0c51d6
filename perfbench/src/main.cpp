// askel_perfbench: runs one workload and prints every metric by name, with
// unit and sample count, then one JSON result line.
//
//   askel_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--spans FILE]
//
// --trace 0 measures with tracing off and the result line carries the
// end-to-end metrics. --trace 1 runs the same untraced phase, then a traced
// phase, and the result line carries the per-layer metrics. Exit status: 0
// when every output validated, 1 when any operation failed, 2 on bad usage.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

using Catalogue = std::vector<std::pair<const char*, const char*>>;

// End-to-end metrics every workload reports (the gated set).
const Catalogue kEndToEnd = {
    {"elements_per_s", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"lp_seconds", "thread-s"}, {"setup_s", "s"},        {"rss_peak_mb", "MB"},
};

// End-to-end metrics reported only where they apply (printed, not gated).
const Catalogue kEndToEndExtra = {
    {"wct_s", "s"}, {"goal_attainment", "ratio"}, {"error_rate", "ratio"},
};

// Per-layer metrics of the traced run, named after the module they measure.
// These go into the result line: counts, ratios and figures that a workload
// of BENCHMARK.json exercises.
const Catalogue kPerLayer = {
    {"workload.muscle_calls", "count"},
    {"workload.muscle_busy_share", "ratio"},
    {"skel.allocs_per_element", "count"},
    {"events.per_element", "count"},
    {"runtime.steals_per_element", "count"},
    {"runtime.leases_per_element", "count"},
    {"runtime.lease_losses", "count"},
    {"runtime.gauge_samples", "count"},
    {"runtime.lp_history_len", "count"},
    {"sm.on_event_calls", "count"},
    {"autonomic.evaluations", "count"},
    {"autonomic.lp_changes", "count"},
    {"autonomic.useful_eval_ratio", "ratio"},
    {"est.fe_estimate_err", "ratio"},
    {"loadgen.cpu_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.records", "count"},
};

// Per-layer timings that only some workloads exercise, and the figures only
// the ungated service_slo produces (printed, not in the result line: on a
// workload without the layer such a value would read 0 on every run, like a
// value that was never measured).
const Catalogue kPerLayerWhereExercised = {
    {"skel.launch_ns", "ns"},
    {"skel.overhead_cpu_ns_per_element", "ns"},
    {"skel.self_ns_per_element", "ns"},
    {"runtime.dispatch_wait_p50_us", "us"},
    {"runtime.dispatch_wait_p99_us", "us"},
    {"runtime.tenant_wait_p99_ms", "ms"},
    {"runtime.join_p50_us", "us"},
    {"sm.on_event_p50_ns", "ns"},
    {"autonomic.on_event_p50_ns", "ns"},
    {"autonomic.record_latency_p50_ns", "ns"},
    {"autonomic.grant_changes", "count"},
    {"autonomic.peak_grant", "count"},
    {"est.tail_estimate_err", "ratio"},
    {"autonomic.first_action_s", "s"},
    {"autonomic.warmup_p99_ms", "ms"},
    {"loadgen.lag_p99_ms", "ms"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "askel_perfbench: %s\nusage: askel_perfbench --workload "
               "{fine_map,fine_map_tcp,wordcount_goal,service_slo} --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               why);
  return 2;
}

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

/// Prints the catalogue's metrics present in `have`; with `fill`, absent
/// ones are printed as not exercised (value 0, n=0) and added to `have`.
/// Returns false if a metric carries another unit than the catalogue's.
bool print_section(const char* title, const Catalogue& cat,
                   std::map<std::string, Metric>& have, bool fill) {
  bool ok = true;
  std::printf("%s:\n", title);
  for (const auto& [name, unit] : cat) {
    auto it = have.find(name);
    if (it == have.end()) {
      if (!fill) continue;
      it = have.emplace(name, Metric{0.0, unit, 0}).first;
    }
    Metric& m = it->second;
    if (m.unit != unit) {
      std::fprintf(stderr, "metric %s has unit %s, expected %s\n", name, m.unit.c_str(), unit);
      ok = false;
    }
    m.value = finite_or_zero(m.value);
    std::printf("  %-36s %16.6f %-8s (n=%ld)%s\n", name, m.value, unit, m.n,
                m.n == 0 ? "  not exercised by this workload" : "");
  }
  return ok;
}

void print_json_metrics(const Catalogue& cat, const std::map<std::string, Metric>& have) {
  std::printf("\"metrics\": {");
  bool first = true;
  for (const auto& [name, unit] : cat) {
    const Metric& m = have.at(name);
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", first ? "" : ", ", name,
                m.value, unit);
    first = false;
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    if (k + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++k];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && opt.seconds > 0.0 && opt.seconds <= 120.0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      opt.trace = std::strcmp(val, "1") == 0;
    } else if (arg == "--spans") {
      opt.spans_path = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed must be a non-negative integer");
  if (!have_seconds) return usage("--seconds must be a number in (0, 120]");
  if (!have_trace) return usage("--trace must be 0 or 1");

  Result res;
  if (opt.workload == "fine_map") {
    res = perfbench::run_fine_map(opt, /*tcp=*/false);
  } else if (opt.workload == "fine_map_tcp") {
    res = perfbench::run_fine_map(opt, /*tcp=*/true);
  } else if (opt.workload == "wordcount_goal") {
    res = perfbench::run_wordcount_goal(opt);
  } else if (opt.workload == "service_slo") {
    res = perfbench::run_service_slo(opt);
  } else {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  const long attempted = std::max(1L, res.attempted);
  res.e2e["error_rate"] = Metric{static_cast<double>(res.failed) / static_cast<double>(attempted),
                                 "ratio", res.attempted};
  std::printf("workload %s  seed %llu  seconds %g  trace %d  lp %u\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              perfbench::host_lp());
  std::printf("build {\"compiler\": \"%s\", \"build_type\": \"%s\"}\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  bool units_ok = true;
  bool complete = true;
  for (const auto& [name, unit] : kEndToEnd) complete = complete && res.e2e.count(name) > 0;
  units_ok = print_section("end_to_end", kEndToEnd, res.e2e, /*fill=*/false) && units_ok;
  units_ok = print_section("end_to_end (where applicable)", kEndToEndExtra, res.e2e, false) &&
             units_ok;
  if (opt.trace) {
    units_ok = print_section("per_layer", kPerLayer, res.layer, true) && units_ok;
    units_ok = print_section("per_layer (where exercised)", kPerLayerWhereExercised, res.layer,
                             true) &&
               units_ok;
  }
  for (const std::string& f : res.failures) std::printf("FAILED: %s\n", f.c_str());
  if (!complete || !units_ok) {
    std::fprintf(stderr, "askel_perfbench: incomplete metric set\n");
    return 2;
  }

  const bool correct = res.failed == 0 && res.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, ",
              correct ? "true" : "false", attempted, res.failed);
  print_json_metrics(opt.trace ? kPerLayer : kEndToEnd, opt.trace ? res.layer : res.e2e);
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
