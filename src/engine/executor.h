// Event-driven protocol engine: many concurrent ProtocolRuns, one virtual
// clock, sharded across OS worker threads.
//
// The Executor multiplexes any number of resumable protocol executions
// (ProtocolRun) over discrete-event sim::Scheduler shards — one scheduler
// (and one mutex) per shard, runs pinned to shards by id, shard 0 aliasing
// the caller's external scheduler so single-shard behaviour is exactly the
// historical single-scheduler engine. Run wake-ups are ordinary scheduler
// events, so the engine inherits the scheduler's determinism guarantee —
// equal-timestamp events fire in insertion (FIFO) order per shard — and a
// whole multi-group simulation stays a pure function of its seeds.
//
// drain() is the engine's main loop, a sequence of virtual-time barriers:
//
//   1. resume every currently-runnable run as one global batch — each
//      shard's slice resumes sequentially on that shard's worker thread,
//      different shards in parallel (IDGKA_THREADS=1 collapses to one
//      shard and strictly sequential resumption without changing any
//      result, which CI exploits to catch schedule-dependent
//      nondeterminism);
//   2. when no run is runnable, pick the globally earliest pending
//      timestamp T across all shards and execute every shard's events at
//      <= T in parallel (frame deposits, timer wakes) — these mark runs
//      runnable — then advance every shard clock to T;
//   3. repeat until every run finished.
//
// Because every barrier resumes the same global batch and executes the
// same global event set regardless of how runs are spread over shards, all
// engine metrics (resumes, max batch, per-run event order) are bit
// identical for every IDGKA_THREADS value. Within a batch, resume order is
// defined only within a shard: runs on different shards execute
// concurrently, so effects on state shared between runs have no defined
// order — which is why run bodies must touch only their own group's state.
//
// Parallel batch safety: a run body only touches its own group's state
// (sessions, networks, link models) plus this executor. Events a run posts
// or awaits live in its own shard's scheduler; the rare cross-shard post
// (a run posting on behalf of a run pinned elsewhere) is parked in the
// target shard's mutex-striped inbox and folded into its queue — in
// deterministic (time, owner, arrival) order — at the next barrier.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/protocol_run.h"
#include "sim/scheduler.h"

namespace idgka::engine {

class Executor {
 public:
  /// The scheduler must outlive the executor and becomes shard 0. While
  /// any run is live, every access to it must go through this executor
  /// (post / now / drain); between drains the host thread may use it
  /// directly. `shards` = 0 sizes the shard set from net::worker_count()
  /// (the IDGKA_THREADS environment variable); shards beyond the first own
  /// private schedulers created here.
  explicit Executor(sim::Scheduler& scheduler, std::size_t shards = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Registers a run; its body starts executing at the next drain(). The
  /// returned reference is valid only until the drain() that finishes the
  /// run returns (finished runs are reaped once no queued event references
  /// them) — don't hold it across drains.
  ProtocolRun& submit(std::string name, ProtocolRun::Body body);

  /// Drives every submitted run to completion, interleaving their awaits
  /// by virtual-time events. Call from the host thread only (never from a
  /// run body). Rethrows the first run-body exception after all runs
  /// settle. Pending scheduler events beyond the last run's completion
  /// (straggler frames) stay queued, exactly like the blocking layer left
  /// them.
  void drain();

  /// Thread-safe event scheduling at now + delay. `owner` (may be null)
  /// attributes the event to a run for frame-arrival resumption: the
  /// event counts as one in-flight copy of that run until executed, and
  /// the event lands in the owner's shard (null owner posts to shard 0).
  /// Templated so the deposit closure and the in-flight accounting fold
  /// into one scheduler event (this sits on the per-copy hot path).
  ///
  /// Straggler events may stay queued in the scheduler past the
  /// executor's death (the scheduler outlives it by contract); the
  /// liveness token makes the engine-accounting half a no-op then — `fn`
  /// still runs and must guard its own captures (the sim transport's
  /// weak network token does).
  template <typename Fn>
  void post(sim::SimTime delay, Fn&& fn, ProtocolRun* owner) {
    Shard& shard = owner != nullptr ? *shards_[owner->shard_idx_] : *shards_.front();
    if (owner != nullptr) owner->in_flight_.fetch_add(1, std::memory_order_relaxed);
    auto event = [this, fn = std::forward<Fn>(fn), owner,
                  alive = std::weak_ptr<const bool>(alive_)] {
      fn();
      if (owner != nullptr && !alive.expired()) settle_in_flight(owner);
    };
    ProtocolRun* cur = ProtocolRun::current();
    if (cur == nullptr || shards_[cur->shard_idx_].get() == &shard) {
      // Same-shard post (or a host-thread post while no phase is running):
      // insert directly under the shard mutex.
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.sched->after(delay, std::move(event));
    } else {
      // Cross-shard frame handoff: the target shard's scheduler may be
      // executing events on another thread right now, so park the event in
      // the shard's striped inbox; drain() folds inboxes into the queues
      // at the next virtual-time barrier. All shard clocks agree while any
      // run executes, so `when` is the same absolute time a same-shard
      // post would have produced.
      const sim::SimTime when = shards_[cur->shard_idx_]->sched->now() + delay;
      const std::lock_guard<std::mutex> lock(shard.inbox_mutex);
      shard.inbox.push_back({when, owner != nullptr ? owner->id_ : 0, std::move(event)});
    }
  }

  /// Thread-safe clock read (shard 0 — the frontier between drains, and
  /// equal to every other shard clock during one).
  [[nodiscard]] sim::SimTime now() const { return scheduler_.now(); }

  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }

  // --- Engine bookkeeping (for tests, benches and metrics) ---
  /// Total run resumptions performed — per-shard counters merged on read,
  /// identical for every shard count (each barrier resumes the same global
  /// batch regardless of sharding).
  [[nodiscard]] std::uint64_t resumes() const;
  /// Widest same-instant batch of runs resumed together across all shards
  /// — > 1 proves that independent protocol runs genuinely interleaved on
  /// this clock.
  [[nodiscard]] std::size_t max_batch() const;
  /// Total runs ever submitted (finished runs are reaped once no queued
  /// event references them, so this is a counter, not a live-list size).
  [[nodiscard]] std::size_t run_count() const;
  /// Scheduler events executed, summed over all shards.
  [[nodiscard]] std::uint64_t events_executed() const;
  /// Number of scheduler shards (1 unless IDGKA_THREADS/`shards` say more).
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

 private:
  friend class ProtocolRun;

  /// One event-queue shard: a scheduler, the runs pinned to it, and the
  /// mutex guarding both. Shard 0 wraps the external scheduler.
  struct Shard {
    sim::Scheduler* sched = nullptr;
    std::unique_ptr<sim::Scheduler> owned;  ///< backing store, shards > 0
    std::mutex mutex;
    std::condition_variable host_cv;  ///< signalled when a run parks/finishes
    std::vector<ProtocolRun*> runnable;
    std::vector<ProtocolRun*> batch;  ///< this shard's slice of the current barrier
    std::uint64_t resumes = 0;  ///< steps performed here, merged on read
    /// Cross-shard posts parked until the next barrier (see post()).
    struct InboxEntry {
      sim::SimTime when;
      std::uint64_t owner_id;
      std::function<void()> fn;
    };
    std::mutex inbox_mutex;
    std::vector<InboxEntry> inbox;
  };

  /// Marks a run runnable (its shard mutex held). No-op when already
  /// queued/done.
  void make_runnable(ProtocolRun* run);
  /// Schedules a timer wake for `run` at `when` (its shard mutex held):
  /// counted in pending_wakes_ and guarded by the liveness token.
  void schedule_wake(ProtocolRun* run, sim::SimTime when, std::uint64_t epoch);
  /// Timer-event wake; ignores stale epochs (shard mutex held via drain).
  void wake_from_timer(ProtocolRun* run, std::uint64_t epoch);
  /// In-flight copy accounting (settle runs inside drain's event execution
  /// — owner shard mutex held — and may resume an arrival-sensitive await).
  void settle_in_flight(ProtocolRun* owner);
  /// Resumes one run and blocks until it parks or finishes.
  void step(ProtocolRun* run);

  /// Runs `phase(shard_index)` for every shard — inline for one shard,
  /// otherwise shard 0 on the calling (host) thread and the rest on the
  /// persistent shard workers; returns after all complete (rethrows the
  /// first phase exception).
  void run_phase(const std::function<void(std::size_t)>& phase);
  void ensure_workers();
  void shard_worker(std::size_t shard_idx);
  /// Folds parked cross-shard posts into their shards' queues in
  /// deterministic (when, owner, arrival) order. Barrier-only (host).
  void drain_inboxes();

  sim::Scheduler& scheduler_;  ///< == *shards_[0]->sched
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Guards the run list and submission counters (never taken while a
  /// shard mutex is held; shard mutexes nest inside it).
  mutable std::mutex mutex_;
  std::atomic<bool> shutdown_{false};
  std::uint64_t next_id_ = 0;
  std::size_t max_batch_ = 0;
  std::size_t submitted_ = 0;
  /// Expires with the executor; queued straggler events consult it before
  /// touching engine accounting state.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
  /// Live runs. A finished run is reaped at the end of drain() once no
  /// queued event still references it (in-flight deposits and pending
  /// timer wakes both count), so long op-by-op scenarios stay O(live).
  std::vector<std::unique_ptr<ProtocolRun>> runs_;

  // --- Persistent shard-worker pool (lazy; only with > 1 shard) ---
  std::vector<std::thread> shard_threads_;
  std::mutex pool_mutex_;
  std::condition_variable pool_cv_;  ///< workers: new phase available
  std::condition_variable pool_done_cv_;  ///< host: all workers finished
  const std::function<void(std::size_t)>* phase_ = nullptr;
  std::uint64_t phase_gen_ = 0;
  std::size_t phase_remaining_ = 0;
  bool pool_stop_ = false;
  std::exception_ptr phase_error_;
};

}  // namespace idgka::engine
