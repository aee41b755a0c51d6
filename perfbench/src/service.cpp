// service_slo: the open-loop service stream from generate_service_stream on
// the coordinated stack only (weighted tenant dispatch, WeightedSharePolicy
// coordinator, one SLO controller). Two tenants, Zipf 1.0, diurnal and
// bursty, bounded-Pareto sleep demands of mean 4 ms. Tenant 0 holds a p99
// goal of 50 ms at SLA weight 3. A batch aggressor tenant keeps a standing
// backlog, topped up by the generator thread itself. Requests are
// tenant-tagged pool tasks, so the skeleton layer is off this path. It is the
// one workload where coordinator arbitration and tenant dispatch decide
// latency. Latency runs from each request's scheduled arrival.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "autonomic/controller.hpp"
#include "autonomic/coordinator.hpp"
#include "bench.hpp"
#include "trace.hpp"
#include "workload/calibrated.hpp"
#include "workload/service.hpp"

namespace perfbench {
namespace {

constexpr int kTenants = 2;
// 200 Hz puts ~2/3 of the traffic (Zipf rank 0) on the SLO tenant: about
// 2600 measured requests in a 20 s run, so ~26 lie beyond its p99. Faster
// streams saturate the SLO grant in every burst and make the p99 a count of
// this seed's bursts.
constexpr double kRateHz = 200.0;
constexpr double kMeanServiceS = 0.004;
// Bounded-Pareto tail exponent. At the service bench's 1.5 the p99 of a run
// is the p99 of its own demand draws (~29 ms, +-15% from seed to seed at
// 2600 samples) and hides the stack; at 2.5 it is ~15 ms of demand plus the
// wait the stack adds, +-7%.
constexpr double kServiceShape = 2.5;
constexpr double kTailGoalS = 0.05;
constexpr int kSloWeight = 3;
constexpr int kMaxLp = 8;
constexpr double kAggressorWorkS = 0.01;
constexpr int kAggressorBacklog = 256;
constexpr double kAggressorPressure = 25.0;
constexpr double kControllerMinInterval = 0.005;
constexpr double kBucketSeconds = 0.025;
// Latencies are measured once the service has adapted. The pool starts at
// LP 1 with the aggressor granted the rest of the budget, and the SLO
// controller first grows its tenant's grant when its tail estimate crosses
// the goal: 0.8 s into one stream, 2.3 s into another. Requests arriving
// before that wait tens of ms, and whether that start-up transient falls
// inside the measured window flipped the p99 of a run between 28 and 51 ms.
// So the measured window starts kSettleS after the controller's first LP
// change, and never before kWarmupS. The transient is reported on its own
// (autonomic.first_action_s, autonomic.warmup_p99_ms).
constexpr double kWarmupS = 2.0;
constexpr double kSettleS = 0.5;

struct Rig {
  std::vector<askel::ServiceRequest> stream;
  std::unique_ptr<askel::ResizableThreadPool> pool;
  std::unique_ptr<askel::LpBudgetCoordinator> coord;
  std::unique_ptr<askel::EstimateRegistry> reg;
  std::unique_ptr<askel::TrackerSet> trackers;
  std::unique_ptr<askel::AutonomicController> ctl;
  int ids[kTenants] = {};
  int aggressor = 0;

  ~Rig() {
    if (ctl) ctl->disarm();
    if (coord) {
      coord->release(aggressor);
      coord->unregister_tenant(aggressor);
      for (const int id : ids) coord->unregister_tenant(id);
    }
    ctl.reset();
    trackers.reset();
    reg.reset();
    coord.reset();
    pool.reset();
  }
};

std::unique_ptr<Rig> build_rig(std::uint64_t seed, double seconds, std::string& err) {
  auto rig = std::make_unique<Rig>();
  askel::ServiceStreamConfig sc;
  sc.seed = seed;
  sc.tenants = kTenants;
  sc.duration_s = kWarmupS + seconds;
  sc.total_rate_hz = kRateHz;
  sc.zipf_skew = 1.0;
  sc.mean_service_s = kMeanServiceS;
  sc.service_shape = kServiceShape;
  sc.diurnal_amplitude = 0.4;
  sc.diurnal_period_s = kWarmupS + seconds;  // one full swing over the run
  sc.bursty = true;
  // 25 ms envelope buckets: a run holds hundreds of them and several rate
  // regimes, so its p99 reflects how the stack rides bursts in general
  // rather than whether this seed drew one long overload regime (with the
  // 8 buckets of the service bench, the p99 of a 10 s run ranged 27-86 ms
  // across seeds).
  sc.rate_buckets = std::max(1, static_cast<int>(sc.duration_s / kBucketSeconds + 0.5));
  rig->stream = askel::generate_service_stream(sc);

  rig->pool = std::make_unique<askel::ResizableThreadPool>(1, kMaxLp);
  rig->coord = std::make_unique<askel::LpBudgetCoordinator>(*rig->pool, kMaxLp);
  rig->coord->set_policy(std::make_unique<askel::WeightedSharePolicy>());
  for (int k = 0; k < kTenants; ++k) {
    rig->ids[k] = rig->coord->register_tenant("svc-" + std::to_string(k));
    // Independent arrivals: serve each tenant oldest first.
    rig->pool->set_tenant_ordering(rig->ids[k], askel::TenantOrdering::kFifo);
  }
  rig->reg = std::make_unique<askel::EstimateRegistry>();
  rig->trackers = std::make_unique<askel::TrackerSet>(*rig->reg);
  askel::ControllerConfig ccfg;
  ccfg.min_interval = kControllerMinInterval;
  rig->ctl = std::make_unique<askel::AutonomicController>(*rig->pool, *rig->trackers,
                                                          &askel::default_clock(), ccfg);
  rig->ctl->set_sla_weight(kSloWeight);
  rig->ctl->bind_coordinator(rig->coord.get(), rig->ids[0]);
  if (!rig->ctl->arm_slo(kTailGoalS, kMaxLp, 0.99)) {
    err = "arm_slo rejected the goal";
    return nullptr;
  }
  rig->aggressor = rig->coord->register_tenant("aggressor");
  rig->coord->arm_tenant(rig->aggressor);
  rig->coord->request(rig->aggressor, kMaxLp, kAggressorPressure);
  return rig;
}

struct Phase {
  double t0 = 0.0;
  double t1 = 0.0;
  long lost = 0;        // scheduled requests that never completed
  long duplicated = 0;  // requests that completed more than once
  std::vector<double> slo_latency_ms;  // arrivals after the warm-up
  std::vector<double> warmup_latency_ms;
  double first_action_s = -1.0;  // stream time of the first LP change
  std::vector<double> slo_wait_ms;  // due time -> task start
  std::vector<double> lag_ms;       // due time -> submit
  double lp_seconds = 0.0;
  double client_cpu = 0.0;
  std::uint64_t steals = 0;
  Tally tally;
  long evaluations = 0;
  long lp_changes = 0;
  long grant_changes = 0;
  int peak_grant = 0;
  int peak_total_granted = 0;
  int budget = 0;
  double tail_estimate = 0.0;
};

Phase replay(Rig& rig) {
  struct Slot {
    std::atomic<int> done{0};
    double latency = 0.0;
    double wait = 0.0;
  };
  ScopeGuard client(Scope::kClient);
  Phase ph;
  const std::size_t n = rig.stream.size();
  auto slots = std::make_unique<Slot[]>(n);
  ph.lag_ms.reserve(n);
  std::atomic<int> backlog{0};
  askel::ResizableThreadPool& pool = *rig.pool;
  askel::AutonomicController* ctl = rig.ctl.get();

  const auto top_up = [&] {
    ScopeGuard runtime_side(Scope::kOther);
    while (backlog.load(std::memory_order_relaxed) < kAggressorBacklog) {
      backlog.fetch_add(1, std::memory_order_relaxed);
      pool.submit(
          [&backlog] {
            {
              MuscleSpan m(MuscleRole::kTask);
              askel::simulate_work(kAggressorWorkS);
            }
            backlog.fetch_sub(1, std::memory_order_relaxed);
          },
          rig.aggressor);
    }
  };

  const Tally tally0 = tally_now();
  const double client0 = thread_cpu_s();
  const std::uint64_t steals0 = pool.steals();
  ph.t0 = now();
  for (std::size_t i = 0; i < n; ++i) {
    const askel::ServiceRequest& req = rig.stream[i];
    const double due = ph.t0 + req.arrival;
    top_up();
    const double wait = due - now();
    if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    ph.lag_ms.push_back((now() - due) * 1e3);
    Slot* slot = &slots[i];
    askel::AutonomicController* slo = req.tenant == 0 ? ctl : nullptr;
    const double work = req.work;
    ScopeGuard runtime_side(Scope::kOther);
    pool.submit(
        [slot, slo, due, work] {
          slot->wait = now() - due;
          {
            MuscleSpan m(MuscleRole::kTask);
            askel::simulate_work(work);
          }
          const double latency = now() - due;
          slot->latency = latency;
          if (slo != nullptr) {
            timed_span(SpanKind::kRecordLatency, -1, [&] { slo->record_latency(latency); });
          }
          slot->done.fetch_add(1, std::memory_order_release);
        },
        rig.ids[req.tenant]);
  }
  ph.client_cpu = thread_cpu_s() - client0;
  pool.wait_idle();
  ph.t1 = now();
  ph.tally = tally_now() - tally0;
  ph.steals = pool.steals() - steals0;

  for (const auto& act : ctl->actions()) {
    if (act.from_lp != act.to_lp) {
      ph.first_action_s = act.t - ph.t0;
      break;
    }
  }
  const double measured_from = std::max(kWarmupS, ph.first_action_s + kSettleS);
  for (std::size_t i = 0; i < n; ++i) {
    const int done = slots[i].done.load(std::memory_order_acquire);
    ph.lost += done == 0;
    ph.duplicated += done > 1;
    if (done == 0) continue;
    if (rig.stream[i].tenant != 0) continue;
    if (rig.stream[i].arrival < measured_from) {
      ph.warmup_latency_ms.push_back(slots[i].latency * 1e3);
    } else {
      ph.slo_latency_ms.push_back(slots[i].latency * 1e3);
      ph.slo_wait_ms.push_back(slots[i].wait * 1e3);
    }
  }
  ph.lp_seconds = pool.lp_history().time_weighted_mean(ph.t0, ph.t1) * (ph.t1 - ph.t0);
  ph.evaluations = ctl->evaluations();
  for (const auto& act : ctl->actions()) ph.lp_changes += act.from_lp != act.to_lp;
  for (const auto& act : rig.coord->history(rig.ids[0])) {
    ++ph.grant_changes;
    ph.peak_grant = std::max(ph.peak_grant, act.to_grant);
  }
  ph.peak_total_granted = rig.coord->peak_total_granted();
  ph.budget = rig.coord->budget();
  ph.tail_estimate = ctl->tail_snapshot().tail;
  return ph;
}

void check_phase(Result& res, const Phase& ph, std::size_t scheduled) {
  res.attempted += static_cast<long>(scheduled);
  res.fail(ph.lost, "scheduled request never completed");
  res.fail(ph.duplicated, "request completed more than once");
  res.attempted += 1;
  if (ph.peak_total_granted > ph.budget) {
    res.fail(1, "peak_total_granted " + std::to_string(ph.peak_total_granted) +
                    " exceeds the budget " + std::to_string(ph.budget));
  }
}

}  // namespace

Result run_service_slo(const Options& opt) {
  Result res;
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int k = 0; k < kSetups; ++k) {
    rig.reset();
    std::string err;
    const double t0 = now();
    rig = build_rig(opt.seed, opt.seconds, err);
    setup_s.push_back(now() - t0);
    if (!rig) {
      res.fail(1, "set-up: " + err);
      return res;
    }
  }

  const Phase plain = replay(*rig);
  check_phase(res, plain, rig->stream.size());
  const auto slo_n = static_cast<long>(plain.slo_latency_ms.size());
  const double wall = plain.t1 - plain.t0;
  long met = 0;
  for (const double l : plain.slo_latency_ms) met += l <= kTailGoalS * 1e3;
  const double p99 = quantile(plain.slo_latency_ms, 0.99);

  res.e2e["elements_per_s"] = Metric{
      wall > 0.0 ? static_cast<double>(plain.tally.muscle_calls) / wall : 0.0, "1/s",
      static_cast<long>(plain.tally.muscle_calls)};
  res.e2e["latency_p50_ms"] = Metric{quantile(plain.slo_latency_ms, 0.50), "ms", slo_n};
  res.e2e["latency_p99_ms"] = Metric{p99, "ms", slo_n};
  res.e2e["lp_seconds"] = Metric{plain.lp_seconds, "thread-s", 1};
  res.e2e["setup_s"] = Metric{median(setup_s), "s", static_cast<long>(setup_s.size())};
  res.e2e["goal_attainment"] = Metric{
      slo_n > 0 ? static_cast<double>(met) / static_cast<double>(slo_n) : 0.0, "ratio", slo_n};

  const double elements = std::max(1.0, static_cast<double>(plain.tally.muscle_calls));
  auto& L = res.layer;
  L["workload.muscle_calls"] = Metric{static_cast<double>(plain.tally.muscle_calls), "count", 1};
  L["skel.allocs_per_element"] = Metric{
      static_cast<double>(plain.tally.allocs[static_cast<int>(Scope::kOther)]) / elements,
      "count", static_cast<long>(plain.tally.muscle_calls)};
  L["runtime.steals_per_element"] =
      Metric{static_cast<double>(plain.steals) / elements, "count", 1};
  L["runtime.tenant_wait_p99_ms"] = Metric{quantile(plain.slo_wait_ms, 0.99), "ms", slo_n};
  L["runtime.gauge_samples"] =
      Metric{static_cast<double>(rig->pool->gauge().series().size()), "count", 1};
  L["runtime.lp_history_len"] =
      Metric{static_cast<double>(rig->pool->lp_history().size()), "count", 1};
  L["autonomic.evaluations"] = Metric{static_cast<double>(plain.evaluations), "count", 1};
  L["autonomic.lp_changes"] = Metric{static_cast<double>(plain.lp_changes), "count", 1};
  L["autonomic.useful_eval_ratio"] = Metric{
      plain.evaluations > 0
          ? static_cast<double>(plain.lp_changes) / static_cast<double>(plain.evaluations)
          : 0.0,
      "ratio", plain.evaluations};
  L["autonomic.grant_changes"] = Metric{static_cast<double>(plain.grant_changes), "count", 1};
  L["autonomic.peak_grant"] = Metric{static_cast<double>(plain.peak_grant), "count", 1};
  L["est.tail_estimate_err"] =
      Metric{p99 > 0.0 ? std::abs(plain.tail_estimate * 1e3 - p99) / p99 : 0.0, "ratio", slo_n};
  L["autonomic.first_action_s"] = Metric{std::max(0.0, plain.first_action_s), "s",
                                        plain.first_action_s >= 0.0 ? 1 : 0};
  L["autonomic.warmup_p99_ms"] = Metric{quantile(plain.warmup_latency_ms, 0.99), "ms",
                                        static_cast<long>(plain.warmup_latency_ms.size())};
  L["loadgen.lag_p99_ms"] = Metric{quantile(plain.lag_ms, 0.99), "ms",
                                   static_cast<long>(plain.lag_ms.size())};
  L["loadgen.cpu_s"] = Metric{plain.client_cpu, "s", 1};

  if (opt.trace) {
    // A fresh rig on the same stream, so both phases start from the same
    // controller and coordinator state.
    std::string err;
    rig.reset();
    rig = build_rig(opt.seed, opt.seconds, err);
    if (!rig) {
      res.fail(1, "set-up: " + err);
      return res;
    }
    set_tracing(true);
    const Phase traced = replay(*rig);
    set_tracing(false);
    check_phase(res, traced, rig->stream.size());
    const TraceSummary sum = analyze(take_records(), "", 0);
    L["workload.muscle_busy_share"] = Metric{
        traced.lp_seconds > 0.0 ? sum.muscle_s / traced.lp_seconds : 0.0, "ratio",
        sum.muscle_spans};
    L["autonomic.record_latency_p50_ns"] =
        Metric{median(sum.record_latency_ns), "ns",
               static_cast<long>(sum.record_latency_ns.size())};
    const double p50_plain = quantile(plain.slo_latency_ms, 0.5);
    L["trace.overhead_pct"] = Metric{
        p50_plain > 0.0 ? 100.0 * (quantile(traced.slo_latency_ms, 0.5) / p50_plain - 1.0)
                        : 0.0,
        "%", static_cast<long>(traced.slo_latency_ms.size())};
    L["trace.records"] = Metric{static_cast<double>(traced.tally.trace_records), "count", 1};
  }
  res.e2e["rss_peak_mb"] = Metric{rss_peak_mb(), "MB", 1};
  return res;
}

}  // namespace perfbench
