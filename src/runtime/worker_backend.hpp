#pragma once
// WorkerBackend: the seam that abstracts "where LP lives".
//
// The paper's §6 future work sketches a distributed backend: "adding or
// removing workers like adding or removing threads in a centralised manner".
// The pool's LP actuator therefore splits into two halves:
//
//  * the POOL keeps everything that is scheduling: deques, tenant queues,
//    grant-weighted dispatch, parking, wait_idle. A worker is always a local
//    thread — the unit the skeleton engine's closures can run on;
//  * the BACKEND owns where the *capacity* behind those workers comes from:
//    in-process threads that are ready instantly (ThreadBackend, the
//    original behavior), or remote workers that take time to join, can
//    refuse to join, and can die (RemoteWorkerBackend over a Transport —
//    TCP sessions to a worker host for TcpBackend, a seeded in-memory fault
//    injector for tests).
//
// Contract (the transport conformance suite in
// tests/backend_conformance_test.cpp runs these against every backend):
//  * provision(have, want) is called by the pool, under the pool's control
//    mutex, whenever the effective LP must grow. kReady means the capacity
//    exists now and the pool applies the target inline; kPending means the
//    backend will report through the bound ProvisionResult callback when the
//    workers joined (or could not); kFailed refuses immediately;
//  * the ProvisionResult callback may run on any backend thread and takes
//    the pool's control mutex — a backend must never invoke it while holding
//    a lock it also takes inside provision()/release()/cancel() (lock order:
//    pool.mu_ -> backend internals, callbacks lock-free on the backend side);
//  * release(have, want) is a shrink notification (parking is local and
//    immediate in every backend); it must not fail and must not block on
//    remote round-trips longer than a best-effort retire;
//  * task_begin/task_end bracket every task a pool worker executes, but only
//    when remote() is true — the thread backend's hot path stays exactly the
//    PR 1 contention-free loop (one relaxed flag load, no virtual call);
//  * cancel() aborts pending provisions and joins backend threads; after it
//    returns, no callback runs. The pool calls it on shutdown and when a
//    different backend is attached.
//
// A failed provision is NOT silent: the pool abandons the pending request
// (so target and requested LP agree again), bumps provision_failures(), and
// invokes the provision-failure handler — the LP-budget coordinator installs
// one to claw ungrantable LP back into the budget, and the controller
// surfaces the episode as DecisionReason::kProvisionFailed.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/clock.hpp"

namespace askel {

class WorkerBackend {
 public:
  /// Outcome callback for kPending provisions: `target` is the requested
  /// effective LP, `ok` false means the workers cannot join. May be invoked
  /// from any backend thread; the pool's handler takes the pool mutex.
  using ProvisionResult = std::function<void(int target, bool ok)>;

  enum class Provision {
    kReady,    // capacity exists now: the pool applies the target inline
    kPending,  // workers are joining: the ProvisionResult callback decides
    kFailed,   // refused outright (capacity exhausted, transport down)
  };

  virtual ~WorkerBackend() = default;

  virtual const char* name() const = 0;
  /// Remote backends pay the per-task transport bracket; the thread backend
  /// keeps the PR 1 hot path untouched.
  virtual bool remote() const { return false; }

  /// Install the provision-outcome callback (the pool binds itself here when
  /// the backend is attached). Must be called before the first provision().
  virtual void bind(ProvisionResult on_result) = 0;

  /// The pool wants effective capacity `want`; `have` is what is effective
  /// now. Called under the pool's control mutex — implementations must not
  /// call back into the pool from inside.
  virtual Provision provision(int have, int want) = 0;

  /// Effective capacity shrank from `have` to `want`: release remote workers
  /// whose index is >= want. Best-effort, never fails.
  virtual void release(int /*have*/, int /*want*/) {}

  /// Transport bracket around one task executed by pool worker `worker`
  /// (only invoked when remote()). `queued_hint` is the pool's current
  /// backlog, forwarded to the remote side as a steal hint. Returns a lease
  /// id (0 = no remote session: the task runs purely locally).
  virtual std::uint64_t task_begin(int /*worker*/, std::uint64_t /*queued_hint*/) {
    return 0;
  }
  /// Close the lease opened by task_begin. Must account for every non-zero
  /// lease exactly once (completed or recovered) — the fault-injection suite
  /// asserts leases == completes + losses on every plan.
  virtual void task_end(int /*worker*/, std::uint64_t /*lease*/) {}

  /// Abort pending provisions and join backend threads. No ProvisionResult
  /// callback runs after cancel() returns.
  virtual void cancel() {}

  /// Simulated provisioning latency knob (paper §6). Honored by backends
  /// whose joins are models (thread, fake); real transports ignore it —
  /// their join latency is measured, not configured.
  virtual void set_provision_delay(Duration /*d*/) {}
  virtual Duration provision_delay() const { return 0.0; }
};

/// The original in-process backend: workers are plain threads, capacity is
/// always available, and the only distributed effect is the *simulated*
/// provisioning delay (LP increases land `delay` seconds late; decreases
/// stay immediate). With delay 0 — the default — provision() is kReady and
/// the pool behaves byte-identically to the pre-seam code.
class ThreadBackend final : public WorkerBackend {
 public:
  ThreadBackend() = default;
  ~ThreadBackend() override;

  const char* name() const override { return "thread"; }
  void bind(ProvisionResult on_result) override;
  Provision provision(int have, int want) override;
  void cancel() override;
  void set_provision_delay(Duration d) override;
  Duration provision_delay() const override;

 private:
  struct Timer {
    std::shared_ptr<std::atomic<bool>> done;  // set as the thread's last act
    std::jthread thread;                      // destroyed first: stop + join
  };
  void reap_finished_locked();

  mutable std::mutex mu_;
  ProvisionResult result_;
  Duration delay_ = 0.0;
  std::vector<Timer> timers_;
};

}  // namespace askel
