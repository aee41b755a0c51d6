#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>

#include "events/event.hpp"
#include "util/clock.hpp"

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::int64_t> g_current_input{-1};

struct Buffer {
  std::vector<Rec> recs;
};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // never shrinks: threads
                                                 // keep raw pointers to them
thread_local Buffer* t_buffer = nullptr;
thread_local std::int64_t t_current_exec = -1;

bool is_muscle_event(askel::Where w) {
  return w == askel::Where::kSplit || w == askel::Where::kMerge ||
         w == askel::Where::kExecute || w == askel::Where::kCondition;
}

class Observer final : public askel::Listener {
 public:
  explicit Observer(std::function<std::int64_t(const std::any&)> input_id_of)
      : input_id_of_(std::move(input_id_of)) {}

  std::any handle(std::any param, const askel::Event& ev) override {
    Rec r;
    r.kind = SpanKind::kEvent;
    r.t0 = r.t1 = ev.timestamp;
    r.id = ev.exec_id;
    r.parent = ev.parent_exec_id;
    r.when = static_cast<std::uint8_t>(ev.when);
    r.where = static_cast<std::uint8_t>(ev.where);
    r.aux = ev.child_index;
    if (ev.parent_exec_id < 0 && ev.when == askel::When::kBefore) {
      const std::int64_t id = input_id_of_(param);
      r.aux = static_cast<std::int32_t>(
          id >= 0 ? id : g_current_input.load(std::memory_order_relaxed));
    }
    if (ev.when == askel::When::kBefore && is_muscle_event(ev.where)) {
      t_current_exec = ev.exec_id;
    }
    record(r);
    return param;
  }

 private:
  std::function<std::int64_t(const std::any&)> input_id_of_;
};

double union_length(std::vector<std::pair<double, double>>& iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double lo = 0.0;
  double hi = -1.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > hi) {
      if (open) total += hi - lo;
      lo = a;
      hi = b;
      open = true;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (open) total += hi - lo;
  return total;
}

const char* role_name(std::int32_t role) {
  switch (static_cast<MuscleRole>(role)) {
    case MuscleRole::kSplit: return "muscle.split";
    case MuscleRole::kExecute: return "muscle.execute";
    case MuscleRole::kMerge: return "muscle.merge";
    case MuscleRole::kTask: return "muscle.task";
  }
  return "muscle";
}

}  // namespace

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }
void set_tracing(bool on) { g_tracing.store(on, std::memory_order_seq_cst); }
double now() { return askel::default_clock().now(); }
void set_current_input(std::int64_t id) {
  g_current_input.store(id, std::memory_order_relaxed);
}

void record(const Rec& r) {
  ScopeGuard scope(Scope::kTracer);
  if (t_buffer == nullptr) {
    auto b = std::make_unique<Buffer>();
    b->recs.reserve(1 << 14);
    t_buffer = b.get();
    std::lock_guard lock(g_buffers_mu);
    g_buffers.push_back(std::move(b));
  }
  t_buffer->recs.push_back(r);
  count_trace_record();
}

std::uint64_t records_written() { return tally_now().trace_records; }

std::vector<Rec> take_records() {
  ScopeGuard scope(Scope::kTracer);
  std::lock_guard lock(g_buffers_mu);
  std::size_t n = 0;
  for (const auto& b : g_buffers) n += b->recs.size();
  std::vector<Rec> out;
  out.reserve(n);
  for (auto& b : g_buffers) {
    out.insert(out.end(), b->recs.begin(), b->recs.end());
    std::vector<Rec>().swap(b->recs);
  }
  return out;
}

std::shared_ptr<askel::Listener> make_observer(
    std::function<std::int64_t(const std::any&)> input_id_of) {
  return std::make_shared<Observer>(std::move(input_id_of));
}

MuscleSpan::MuscleSpan(MuscleRole role) : scope_(Scope::kMuscle), role_(role) {
  if (tracing()) t0_ = now();
}

MuscleSpan::~MuscleSpan() {
  count_muscle();
  if (t0_ == 0.0) return;
  Rec r;
  r.kind = SpanKind::kMuscle;
  r.t0 = t0_;
  r.t1 = now();
  r.id = t_current_exec;
  r.aux = static_cast<std::int32_t>(role_);
  record(r);
}

TraceSummary analyze(const std::vector<Rec>& recs, const std::string& path,
                     int max_inputs) {
  using askel::When;
  using askel::Where;
  ScopeGuard scope(Scope::kTracer);
  TraceSummary s;

  struct Inst {
    double t0 = -1.0;
    double t1 = -1.0;
    std::int64_t parent = -1;
    std::int64_t input = -1;
    bool seq = false;
    double self = 0.0;
  };
  struct ClientIo {
    double launch0 = -1.0;
    double get1 = -1.0;
    std::int64_t root = -1;
  };
  std::unordered_map<std::int64_t, Inst> inst;
  std::unordered_map<std::int64_t, double> split_done;
  std::map<std::int64_t, ClientIo> io;
  double base = 0.0;
  bool have_base = false;
  double fe_sum = 0.0;
  long fe_n = 0;

  for (const Rec& r : recs) {
    if (!have_base || r.t0 < base) base = r.t0, have_base = true;
    switch (r.kind) {
      case SpanKind::kEvent: {
        ++s.events;
        const auto when = static_cast<When>(r.when);
        const auto where = static_cast<Where>(r.where);
        if (where == Where::kSkeleton || where == Where::kExecute) {
          // kExecute events bound a seq instance; every other node kind
          // opens and closes with kSkeleton events.
          Inst& in = inst[r.id];
          if (when == When::kBefore) {
            if (where == Where::kExecute || in.t0 < 0.0) {
              in.t0 = r.t0;
              in.parent = r.parent;
              in.seq = where == Where::kExecute;
              if (r.parent < 0) in.input = r.aux;
            }
          } else {
            in.t1 = r.t0;
          }
        }
        if (where == Where::kSplit && when == When::kAfter) split_done[r.id] = r.t0;
        break;
      }
      case SpanKind::kMuscle:
        ++s.muscle_spans;
        s.muscle_s += r.t1 - r.t0;
        if (r.aux == static_cast<int>(MuscleRole::kExecute) ||
            r.aux == static_cast<int>(MuscleRole::kTask)) {
          ++s.leaf_muscles;
        }
        if (r.aux == static_cast<int>(MuscleRole::kExecute)) {
          fe_sum += r.t1 - r.t0;
          ++fe_n;
        }
        break;
      case SpanKind::kTracker:
        s.tracker_ns.push_back((r.t1 - r.t0) * 1e9);
        break;
      case SpanKind::kController:
        s.controller_ns.push_back((r.t1 - r.t0) * 1e9);
        break;
      case SpanKind::kRecordLatency:
        s.record_latency_ns.push_back((r.t1 - r.t0) * 1e9);
        break;
      case SpanKind::kLaunch:
        io[r.id].launch0 = r.t0;
        break;
      case SpanKind::kGet:
        io[r.id].get1 = r.t1;
        break;
    }
  }
  if (fe_n > 0) s.fe_mean_s = fe_sum / static_cast<double>(fe_n);

  // Dispatch wait: a parent's After-split event to each child's Before.
  for (const Rec& r : recs) {
    if (r.kind != SpanKind::kEvent ||
        static_cast<Where>(r.where) != Where::kNested ||
        static_cast<When>(r.when) != When::kBefore) {
      continue;
    }
    const auto it = split_done.find(r.id);
    if (it != split_done.end()) s.dispatch_wait_us.push_back((r.t0 - it->second) * 1e6);
  }

  // Every span of one input shares the input id of its root instance.
  const auto input_of = [&](std::int64_t id) {
    std::vector<std::int64_t> path_ids;
    std::int64_t cur = id;
    std::int64_t found = -1;
    while (true) {
      const auto it = inst.find(cur);
      if (it == inst.end()) break;
      if (it->second.input >= 0 || it->second.parent < 0) {
        found = it->second.input;
        break;
      }
      path_ids.push_back(cur);
      cur = it->second.parent;
    }
    for (const std::int64_t p : path_ids) inst[p].input = found;
    return found;
  };

  // Children of each instance: its muscle spans and its child instances.
  std::unordered_map<std::int64_t, std::vector<std::pair<double, double>>> kids;
  for (const Rec& r : recs) {
    if (r.kind == SpanKind::kMuscle && r.id >= 0) kids[r.id].emplace_back(r.t0, r.t1);
  }
  for (auto& [id, in] : inst) {
    if (in.t0 < 0.0 || in.t1 < 0.0) continue;
    if (in.parent >= 0) kids[in.parent].emplace_back(in.t0, in.t1);
    if (in.parent < 0 && in.input >= 0) io[in.input].root = id;
  }
  for (auto& [id, in] : inst) {
    if (in.t0 < 0.0 || in.t1 < 0.0) continue;
    const auto k = kids.find(id);
    const double covered = k == kids.end() ? 0.0 : union_length(k->second);
    in.self = std::max(0.0, (in.t1 - in.t0) - covered);
    s.instance_self_s += in.self;
    ++s.instances;
  }

  if (path.empty()) return s;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return s;
  std::set<std::int64_t> chosen;
  for (const auto& [input, c] : io) {
    if (static_cast<int>(chosen.size()) >= max_inputs) break;
    if (c.root >= 0) chosen.insert(input);
  }
  const auto us = [&](double t) { return (t - base) * 1e6; };
  const auto line = [&](std::int64_t input, const char* kind, const std::string& span,
                        const std::string& parent, double t0, double t1, double self) {
    std::fprintf(f,
                 "{\"input\": %lld, \"kind\": \"%s\", \"span\": \"%s\", "
                 "\"parent\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f, "
                 "\"self_us\": %.3f}\n",
                 static_cast<long long>(input), kind, span.c_str(), parent.c_str(),
                 us(t0), (t1 - t0) * 1e6, self * 1e6);
  };
  const auto inst_name = [](std::int64_t id) { return "x" + std::to_string(id); };
  for (const std::int64_t input : chosen) {
    const ClientIo& c = io[input];
    const std::string in_name = "in" + std::to_string(input);
    const auto root = inst.find(c.root);
    const double root_dur =
        root != inst.end() ? root->second.t1 - root->second.t0 : 0.0;
    line(input, "input", in_name, "", c.launch0, c.get1,
         std::max(0.0, (c.get1 - c.launch0) - root_dur));
  }
  for (auto& [id, in] : inst) {
    if (in.t0 < 0.0 || in.t1 < 0.0) continue;
    const std::int64_t input = input_of(id);
    if (!chosen.count(input)) continue;
    line(input, in.seq ? "skel.seq" : "skel.instance", inst_name(id),
         in.parent >= 0 ? inst_name(in.parent) : "in" + std::to_string(input), in.t0,
         in.t1, in.self);
  }
  for (const Rec& r : recs) {
    const char* kind = nullptr;
    switch (r.kind) {
      case SpanKind::kMuscle: kind = role_name(r.aux); break;
      case SpanKind::kTracker: kind = "sm.on_event"; break;
      case SpanKind::kController: kind = "autonomic.on_event"; break;
      case SpanKind::kLaunch: kind = "skel.launch"; break;
      case SpanKind::kGet: kind = "skel.future_get"; break;
      default: break;
    }
    if (kind == nullptr) continue;
    const bool client = r.kind == SpanKind::kLaunch || r.kind == SpanKind::kGet;
    const std::int64_t input = client ? r.id : input_of(r.id);
    if (!chosen.count(input)) continue;
    line(input, kind, std::string(kind) + "@" + std::to_string(r.id),
         client ? "in" + std::to_string(input) : inst_name(r.id), r.t0, r.t1,
         r.t1 - r.t0);
  }
  std::fclose(f);
  return s;
}

}  // namespace perfbench
