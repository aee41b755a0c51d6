#pragma once
// Shared types of the benchmark: options, metrics, results and the small
// statistics and process-measurement helpers every workload uses.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// JSON-lines file receiving the spans of the first traced inputs.
  std::string spans_path;
};

/// Set-ups per run, whose median is setup_s: fine_map* also run one timed
/// segment per set-up; wordcount_goal sets up once per batch run instead.
constexpr int kSetups = 10;

struct Metric {
  double value = 0.0;
  std::string unit;
  long n = 0;  // samples behind the value (0 = the layer is not exercised)
};

struct Result {
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::vector<std::string> failures;  // one line per distinct failure kind

  void fail(long count, const std::string& why);
};

/// Nearest-rank quantile (q in (0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

double process_cpu_s();
double thread_cpu_s();
double rss_peak_mb();
unsigned host_lp();

/// SplitMix64 step: deterministic input generation from the workload seed.
std::uint64_t splitmix(std::uint64_t& state);

Result run_fine_map(const Options& opt, bool tcp);
Result run_wordcount_goal(const Options& opt);
Result run_service_slo(const Options& opt);

}  // namespace perfbench
