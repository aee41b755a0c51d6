// wordcount_goal: the paper's section 5 experiment as Figure 5 runs it.
// map(fs, map(fs, seq(fe), fm), fm) with sleep-calibrated muscles at scale
// 0.15, a WCT goal of 9.5 paper-seconds, no initial estimates, max LP 24 and
// the thread backend. A closed loop: one client runs back-to-back batch
// runs, each on a fresh pool, registry, tracker set and controller. It is the
// one workload where the MAPE loop decides the result; skeleton and pool
// costs are negligible next to the sleeps.
//
// The run is assembled from the public pieces behind run_wordcount_scenario
// so the traced run can wrap the TrackerSet and controller listener calls.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "trace.hpp"
#include "workload/wordcount.hpp"

namespace perfbench {
namespace {

using askel::CountsPart;
using askel::TweetDoc;

constexpr double kScale = 0.15;
constexpr double kGoalPaperSeconds = 9.5;
constexpr int kMaxLp = 24;
constexpr std::size_t kTweets = 5000;
constexpr double kControllerMinInterval = 0.1;  // paper seconds

struct BatchRun {
  double setup_s = 0.0;
  double wct = 0.0;
  double lp_seconds = 0.0;
  bool ok = false;
  bool error = false;
  long evaluations = 0;
  long lp_changes = 0;
  double launch_ns = 0.0;
  double fe_estimate = 0.0;  // the registry's final fe WCT estimate
  std::uint64_t steals = 0;
  std::size_t gauge_samples = 0;
  std::size_t lp_history_len = 0;
  Tally tally;
  double client_cpu = 0.0;
};

/// Wraps a library muscle so its calls count (and, traced, time) as muscle
/// work. The wrapper keeps the name, so estimates and events are unchanged
/// in kind; its id is fresh, like any newly built muscle.
askel::SplitPtr wrap(const askel::SplitPtr& m) {
  return std::make_shared<const askel::SplitMuscle>(m->name(), [m](askel::Any p) {
    MuscleSpan s(MuscleRole::kSplit);
    return m->invoke(std::move(p));
  });
}
askel::ExecPtr wrap(const askel::ExecPtr& m) {
  return std::make_shared<const askel::ExecuteMuscle>(m->name(), [m](askel::Any p) {
    MuscleSpan s(MuscleRole::kExecute);
    return m->invoke(std::move(p));
  });
}
askel::MergePtr wrap(const askel::MergePtr& m) {
  return std::make_shared<const askel::MergeMuscle>(m->name(), [m](askel::AnyVec p) {
    MuscleSpan s(MuscleRole::kMerge);
    return m->invoke(std::move(p));
  });
}

bool after_muscle(const askel::Event& ev) {
  return ev.when == askel::When::kAfter &&
         (ev.where == askel::Where::kExecute || ev.where == askel::Where::kSplit ||
          ev.where == askel::Where::kMerge || ev.where == askel::Where::kCondition);
}

/// One autonomic batch run, set-up included. `expected` is filled by the
/// first run and checked by every run.
BatchRun run_batch(std::uint64_t seed, std::int64_t run_id, askel::Counts& expected) {
  BatchRun out;
  const double s0 = now();
  askel::ScenarioConfig sc;  // the Figure 5 defaults: EWMA, aggregate scope
  sc.corpus.num_tweets = kTweets;
  sc.corpus.seed = seed;
  sc.timings.scale = kScale;
  auto tweets = std::make_shared<const std::vector<std::string>>(
      askel::generate_tweets(sc.corpus));
  const askel::WordcountSkeleton lib =
      askel::make_wordcount_skeleton(sc.timings, seed | 1);
  const askel::SplitPtr fs = wrap(lib.fs);
  const askel::ExecPtr fe = wrap(lib.fe);
  const askel::MergePtr fm = wrap(lib.fm);
  const auto skel = askel::Map(
      askel::SplitM<TweetDoc, TweetDoc>{fs},
      askel::Map(askel::SplitM<TweetDoc, TweetDoc>{fs},
                 askel::Seq(askel::ExecuteM<TweetDoc, CountsPart>{fe}),
                 askel::MergeM<CountsPart, CountsPart>{fm}),
      askel::MergeM<CountsPart, CountsPart>{fm});

  askel::ResizableThreadPool pool(sc.initial_lp, kMaxLp);
  askel::EventBus bus;
  askel::EstimateRegistry reg(sc.estimator_config(), sc.scope);
  askel::TrackerSet trackers(reg);
  askel::ControllerConfig ccfg;
  ccfg.min_interval = kControllerMinInterval * kScale;
  askel::AutonomicController controller(pool, trackers, &askel::default_clock(), ccfg);
  if (tracing()) {
    bus.add_listener(make_observer([](const std::any&) -> std::int64_t { return -1; }));
    bus.add_listener(std::make_shared<askel::ObserverListener>(
        [&trackers](const askel::Event& ev) {
          timed_span(SpanKind::kTracker, ev.exec_id, [&] { trackers.on_event(ev); });
        }));
    bus.add_listener(std::make_shared<askel::ObserverListener>(
        [&controller](const askel::Event& ev) {
          if (!after_muscle(ev)) return controller.on_event(ev);
          timed_span(SpanKind::kController, ev.exec_id, [&] { controller.on_event(ev); });
        }));
  } else {
    bus.add_listener(trackers.as_listener());
    bus.add_listener(controller.as_listener());
  }
  askel::Engine engine(pool, bus);
  TweetDoc doc;
  doc.tweets = tweets;
  doc.end = tweets->size();
  out.setup_s = now() - s0;
  if (expected.empty()) expected = askel::count_tokens(doc);

  set_current_input(run_id);
  const Tally tally0 = tally_now();
  const double client0 = thread_cpu_s();
  const double goal = kGoalPaperSeconds * kScale;
  const double t0 = now();
  controller.arm(goal, kMaxLp);
  const double a = now();
  askel::Future<CountsPart> fut = skel.input(doc, engine);
  const double launched = now();
  CountsPart result;
  const double g0 = now();
  try {
    result = fut.get();
  } catch (...) {
    out.error = true;
  }
  const double t1 = now();
  controller.disarm();
  pool.wait_idle();
  out.client_cpu = thread_cpu_s() - client0;
  out.tally = tally_now() - tally0;
  if (tracing()) {
    record(Rec{a, launched, run_id, -1, -1, SpanKind::kLaunch, 0, 0});
    record(Rec{g0, t1, run_id, -1, -1, SpanKind::kGet, 0, 0});
  }

  out.wct = t1 - t0;
  out.launch_ns = (launched - a) * 1e9;
  out.ok = !out.error && result.counts == expected;
  out.lp_seconds = pool.lp_history().time_weighted_mean(t0, t1) * out.wct;
  out.evaluations = controller.evaluations();
  for (const auto& act : controller.actions()) out.lp_changes += act.from_lp != act.to_lp;
  out.fe_estimate = reg.t(fe->id()).value_or(0.0);
  out.steals = pool.steals();
  out.gauge_samples = pool.gauge().series().size();
  out.lp_history_len = pool.lp_history().size();
  return out;
}

}  // namespace

Result run_wordcount_goal(const Options& opt) {
  Result res;
  const double goal = kGoalPaperSeconds * kScale;
  askel::PaperTimings timings;
  const long leaves_per_run = static_cast<long>(timings.outer_chunks) * timings.inner_chunks;
  askel::Counts expected;
  std::int64_t run_id = 0;

  const auto check = [&](const BatchRun& r) {
    ++res.attempted;
    if (r.error) res.fail(1, "batch run completed with an exception");
    else if (!r.ok) res.fail(1, "counts differ from count_tokens");
  };

  std::vector<BatchRun> plain;
  const double p0 = now();
  while (plain.empty() || now() - p0 < opt.seconds) {
    plain.push_back(run_batch(opt.seed, run_id++, expected));
    check(plain.back());
  }

  std::vector<double> wct, lp_s, setup, launch;
  long met = 0;
  long evals = 0;
  long changes = 0;
  double steals = 0.0;
  double other_allocs = 0.0;
  double client_cpu = 0.0;
  double muscle_calls = 0.0;
  for (const BatchRun& r : plain) {
    wct.push_back(r.wct);
    lp_s.push_back(r.lp_seconds);
    setup.push_back(r.setup_s);
    launch.push_back(r.launch_ns);
    met += r.wct <= goal;
    evals += r.evaluations;
    changes += r.lp_changes;
    steals += static_cast<double>(r.steals);
    other_allocs += static_cast<double>(r.tally.allocs[static_cast<int>(Scope::kOther)]);
    client_cpu += r.client_cpu;
    muscle_calls += static_cast<double>(r.tally.muscle_calls);
  }
  const long n = static_cast<long>(plain.size());
  const double leaves = static_cast<double>(n * leaves_per_run);
  // The controller's second decision depends on which of four parallel chunk
  // completions it sees first, so batch runs fall into a fast and a slow
  // mode. Throughput and LP cost are therefore taken over all runs (a mean),
  // which a change in the mix moves smoothly; the latency metrics keep the
  // median and p99 of the per-run times.
  const double wct_total = std::accumulate(wct.begin(), wct.end(), 0.0);
  res.e2e["elements_per_s"] = Metric{leaves / wct_total, "1/s", n};
  res.e2e["latency_p50_ms"] = Metric{median(wct) * 1e3, "ms", n};
  res.e2e["latency_p99_ms"] = Metric{quantile(wct, 0.99) * 1e3, "ms", n};
  res.e2e["lp_seconds"] =
      Metric{std::accumulate(lp_s.begin(), lp_s.end(), 0.0) / static_cast<double>(n), "thread-s", n};
  res.e2e["setup_s"] = Metric{median(setup), "s", n};
  res.e2e["wct_s"] = Metric{median(wct), "s", n};
  res.e2e["goal_attainment"] = Metric{static_cast<double>(met) / static_cast<double>(n), "ratio", n};

  auto& L = res.layer;
  L["workload.muscle_calls"] = Metric{muscle_calls, "count", n};
  L["skel.launch_ns"] = Metric{median(launch), "ns", n};
  L["skel.allocs_per_element"] = Metric{other_allocs / leaves, "count", static_cast<long>(leaves)};
  L["runtime.steals_per_element"] = Metric{steals / leaves, "count", static_cast<long>(leaves)};
  L["runtime.gauge_samples"] = Metric{static_cast<double>(plain.back().gauge_samples), "count", 1};
  L["runtime.lp_history_len"] = Metric{static_cast<double>(plain.back().lp_history_len), "count", 1};
  L["autonomic.evaluations"] = Metric{static_cast<double>(evals) / static_cast<double>(n), "count", n};
  L["autonomic.lp_changes"] = Metric{static_cast<double>(changes) / static_cast<double>(n), "count", n};
  L["autonomic.useful_eval_ratio"] = Metric{
      evals > 0 ? static_cast<double>(changes) / static_cast<double>(evals) : 0.0, "ratio", evals};
  L["loadgen.cpu_s"] = Metric{client_cpu, "s", n};

  if (opt.trace) {
    set_tracing(true);
    std::vector<double> traced_wct, err, tracker_ns, controller_ns, waits;
    double muscle_s = 0.0;
    double lp_total = 0.0;
    long events = 0;
    long tleaves = 0;
    long instances = 0;
    double self_s = 0.0;
    const std::uint64_t records0 = tally_now().trace_records;
    const double q0 = now();
    for (int k = 0; k == 0 || now() - q0 < opt.seconds; ++k) {
      const BatchRun r = run_batch(opt.seed, run_id++, expected);
      check(r);
      // Runs are sequential and the pool is idle: analyse each on its own so
      // the fe estimate meets the fe spans of the same run.
      const TraceSummary sum = analyze(take_records(), k == 0 ? opt.spans_path : "", 1);
      traced_wct.push_back(r.wct);
      if (sum.fe_mean_s > 0.0) err.push_back(std::abs(r.fe_estimate - sum.fe_mean_s) / sum.fe_mean_s);
      muscle_s += sum.muscle_s;
      lp_total += r.lp_seconds;
      events += sum.events;
      tleaves += sum.leaf_muscles;
      instances += sum.instances;
      self_s += sum.instance_self_s;
      tracker_ns.insert(tracker_ns.end(), sum.tracker_ns.begin(), sum.tracker_ns.end());
      controller_ns.insert(controller_ns.end(), sum.controller_ns.begin(), sum.controller_ns.end());
      waits.insert(waits.end(), sum.dispatch_wait_us.begin(), sum.dispatch_wait_us.end());
    }
    set_tracing(false);
    const std::uint64_t records = tally_now().trace_records - records0;
    const double tl = std::max(1.0, static_cast<double>(tleaves));
    L["workload.muscle_busy_share"] = Metric{lp_total > 0.0 ? muscle_s / lp_total : 0.0, "ratio", tleaves};
    L["skel.self_ns_per_element"] = Metric{self_s * 1e9 / tl, "ns", instances};
    L["events.per_element"] = Metric{static_cast<double>(events) / tl, "count", events};
    L["runtime.dispatch_wait_p50_us"] = Metric{quantile(waits, 0.50), "us", static_cast<long>(waits.size())};
    L["runtime.dispatch_wait_p99_us"] = Metric{quantile(waits, 0.99), "us", static_cast<long>(waits.size())};
    L["sm.on_event_p50_ns"] = Metric{median(tracker_ns), "ns", static_cast<long>(tracker_ns.size())};
    L["sm.on_event_calls"] = Metric{static_cast<double>(tracker_ns.size()), "count", 1};
    L["autonomic.on_event_p50_ns"] = Metric{median(controller_ns), "ns", static_cast<long>(controller_ns.size())};
    L["est.fe_estimate_err"] = Metric{median(err), "ratio", static_cast<long>(err.size())};
    L["trace.overhead_pct"] = Metric{100.0 * (median(traced_wct) / median(wct) - 1.0), "%",
                                     static_cast<long>(traced_wct.size())};
    L["trace.records"] = Metric{static_cast<double>(records), "count", 1};
  }
  res.e2e["rss_peak_mb"] = Metric{rss_peak_mb(), "MB", 1};
  return res;
}

}  // namespace perfbench
