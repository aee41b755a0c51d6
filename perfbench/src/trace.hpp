#pragma once
// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code only: an observer
// listener on the event bus (one record per Before/After event), the muscle
// wrappers, the wrappers around the TrackerSet and controller listener calls
// and around record_latency, and the client's input() and Future::get calls.
// Records go to per-thread buffers and stay in memory until the phase ends;
// analyze() then pairs them into spans, computes self times and writes the
// spans of the first inputs to a JSON-lines file.

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "events/listener.hpp"
#include "tally.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kEvent,          // one bus event (t0 == t1)
  kMuscle,         // a muscle call; aux = MuscleRole
  kTracker,        // TrackerSet::on_event
  kController,     // AutonomicController::on_event (After-muscle events)
  kRecordLatency,  // AutonomicController::record_latency
  kLaunch,         // Skel::input / Engine::run on the client
  kGet,            // Future::get on the client
};

enum class MuscleRole : int { kSplit = 0, kExecute = 1, kMerge = 2, kTask = 3 };

struct Rec {
  double t0 = 0.0;
  double t1 = 0.0;
  /// kEvent: exec_id. kMuscle and listener spans: exec_id of the enclosing
  /// skeleton instance. kLaunch / kGet: input id.
  std::int64_t id = -1;
  /// kEvent: parent_exec_id.
  std::int64_t parent = -1;
  /// kEvent: child index of kNested events, input id of a root's Before
  /// event. kMuscle: MuscleRole.
  std::int32_t aux = -1;
  SpanKind kind = SpanKind::kEvent;
  std::uint8_t when = 0;
  std::uint8_t where = 0;
};

bool tracing();
void set_tracing(bool on);
/// Seconds on the library's default clock (the clock events carry).
double now();
/// Appends to the calling thread's buffer (allocations count as tracer).
void record(const Rec& r);
/// Records written since process start, over all threads.
std::uint64_t records_written();
/// Moves every buffer's records out. Call only when no thread records.
std::vector<Rec> take_records();

/// Input id a root event is tagged with when its input carries none (set by
/// the client before each launch; closed loops with one input in flight).
void set_current_input(std::int64_t id);

/// Observer listener recording every event. `input_id_of` reads the input
/// id out of a root instance's input (-1 when it carries none).
std::shared_ptr<askel::Listener> make_observer(
    std::function<std::int64_t(const std::any&)> input_id_of);

/// Marks a muscle call: muscle allocation scope, call count and, while
/// tracing, a kMuscle span parented to the enclosing skeleton instance.
class MuscleSpan {
 public:
  explicit MuscleSpan(MuscleRole role);
  ~MuscleSpan();
  MuscleSpan(const MuscleSpan&) = delete;
  MuscleSpan& operator=(const MuscleSpan&) = delete;

 private:
  ScopeGuard scope_;
  MuscleRole role_;
  double t0_ = 0.0;
};

/// Times `fn` as a span of `kind` while tracing; calls it plainly otherwise.
template <class F>
void timed_span(SpanKind kind, std::int64_t id, F&& fn) {
  if (!tracing()) {
    fn();
    return;
  }
  Rec r;
  r.kind = kind;
  r.id = id;
  r.t0 = now();
  fn();
  r.t1 = now();
  record(r);
}

struct TraceSummary {
  long events = 0;
  long leaf_muscles = 0;  // kExecute / kTask muscle spans
  long muscle_spans = 0;
  double muscle_s = 0.0;  // summed muscle span time
  double fe_mean_s = 0.0;
  std::vector<double> dispatch_wait_us;
  std::vector<double> tracker_ns;
  std::vector<double> controller_ns;
  std::vector<double> record_latency_ns;
  long instances = 0;
  double instance_self_s = 0.0;  // skeleton-instance self time, summed
};

/// Pairs records into spans, computes self times (a span minus the union of
/// its child spans) and writes the spans of the `max_inputs` lowest input
/// ids to `path` as JSON lines (no file when `path` is empty).
TraceSummary analyze(const std::vector<Rec>& recs, const std::string& path,
                     int max_inputs);

}  // namespace perfbench
