// Discrete-event simulation kernel.
//
// A Simulator owns a virtual clock and two intrusive binary min-heaps of
// timestamped events.  Higher layers build two styles of logic on top of
// it:
//   * callback events scheduled with `at()` / `in()`, and
//   * process-style C++20 coroutines (`Task`) spawned with `spawn()`,
//     which suspend on awaitables (timers, conditions, flow completions).
// Events with equal timestamps fire in FIFO order (a monotone sequence
// number breaks ties), which keeps runs deterministic.
//
// Event storage is a slot-reuse arena: each scheduled event occupies one
// `EventSlot` whose index a heap orders by (t, id), and fired or
// cancelled events release their slot (and its std::function's capture
// buffer) for the next `at()`.  A steady-state simulation therefore
// allocates no per-event queue nodes — the ~2.4 ms IOR run pushes and
// pops hundreds of thousands of events through a handful of recycled
// slots.  `cancel()` unlinks its event from its heap immediately
// (O(log n), slot position is intrusive), so there are no tombstones:
// each heap's head is always a live event, which is what makes the
// deadline checks in `run_until*` exact.
//
// An event due more than `kFarEventHorizon` past `now()` when it is
// scheduled (a request's deadline timer, a fault scheduled hours ahead)
// goes to a second heap, so the near heap that almost every step pops
// stays shallow.  Both heaps order by (t, id) and every step
// fires the earlier of the two heads by (t, id), so events fire in
// exactly the order one heap would give; the horizon moves cost only.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "acic/common/check.hpp"
#include "acic/common/units.hpp"
#include "acic/simcore/task.hpp"

namespace acic::sim {

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;

class Simulator {
 public:
  Simulator() = default;
  /// Rolls this simulator's lifetime totals (events executed, simulated
  /// seconds) into the process-wide `acic::obs` registry — one registry
  /// touch per simulation, so the per-event hot path stays metric-free.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time, seconds.
  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `t` (>= now).
  EventId at(SimTime t, std::function<void()> fn);

  /// Schedule `fn` after a delay of `dt` seconds.
  EventId in(SimTime dt, std::function<void()> fn) {
    return at(now_ + dt, std::move(fn));
  }

  /// Cancel a previously scheduled event; harmless if already fired (or
  /// already cancelled).  A pending event is unlinked from the heap right
  /// here in O(log n) — no tombstone is left behind, and a stale id
  /// (fired, cancelled, or reaped long ago) leaves no residue of any
  /// kind.
  void cancel(EventId id);

  /// Launch a coroutine process.  The simulator keeps its frame alive for
  /// the lifetime of the simulation and rethrows any escaped exception at
  /// the end of run().
  void spawn(Task task);

  /// Run until the event queue drains.  Throws if any spawned process
  /// terminated with an exception.
  void run();

  /// Run until every spawned process has finished (later events — e.g.
  /// scheduled fault injections past the job's end — stay queued).
  /// Throws if any process terminated with an exception.
  void run_until_processes_done();

  /// Watchdog variant: run until every process has finished, the queue
  /// drains, or the next event lies past `deadline` — whichever comes
  /// first.  Returns true iff all processes finished.  Unlike
  /// run_until_processes_done(), a stalled cluster (capacity permanently
  /// zero, drained queue) is reported, not thrown: the caller decides how
  /// to grade the outcome.  Exceptions from spawned processes still
  /// propagate.
  bool run_until_processes_done_or(SimTime deadline);

  /// Run until `deadline` (events after it stay queued, including events
  /// at exactly the deadline's timestamp — those fire).
  void run_until(SimTime deadline);

  /// Execute the next event; false when the queue is empty.
  bool step();

  /// True once every spawned process has finished.
  bool all_processes_done() const;

  /// Total number of events executed so far (for micro-benchmarks).
  std::uint64_t events_executed() const { return executed_; }

  /// Events currently scheduled and not yet fired or cancelled (in
  /// either heap).
  std::size_t pending_events() const { return near_.size() + far_.size(); }

  /// Arena slots ever allocated (tests/benches: slot reuse keeps this at
  /// the simulation's peak concurrent event count, not its event total).
  std::size_t event_arena_slots() const { return arena_.size(); }

  /// Awaitable for `co_await simulator.delay(dt)` inside a Task.
  /// Delays must be non-negative: a negative dt is always a sign of broken
  /// time arithmetic upstream, not a request to travel backwards.
  auto delay(SimTime dt) {
    ACIC_DCHECK(dt >= 0.0, "negative delay " << dt);
    return Wakeup{*this, now_ + dt, dt <= 0.0};
  }

  /// Awaitable for `co_await simulator.until(t)`: resumes the process at
  /// absolute virtual time `t`, at once when `t` is not in the future.
  /// Delays that follow one another with nothing observable in between
  /// fuse into one wait on the instant they end, summed with the
  /// additions the delays make (`t = now() + dt1`, then `t = t + dt2`,
  /// ...), so the process resumes at the same time through one event.
  auto until(SimTime t) { return Wakeup{*this, t, t <= now_}; }

 private:
  /// Awaiter of delay() and until(): resumes the process at `t` through
  /// one event, or without suspending when `ready`.
  struct Wakeup {
    Simulator& sim;
    SimTime t;
    bool ready;
    bool await_ready() const noexcept { return ready; }
    void await_suspend(std::coroutine_handle<> h) {
      sim.at(t, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };

  /// An event due more than this many seconds past now() when it is
  /// scheduled sits in the far heap.  One second is past every step of
  /// a request (microseconds to milliseconds) and short of a retry
  /// deadline (20 s by default) or a fault schedule (hours).
  static constexpr SimTime kFarEventHorizon = 1.0;

  using Heap = std::vector<std::uint32_t>;  ///< slot indices, min on (t, id)

  /// One arena slot.  `heap_pos` is the intrusive back-pointer into the
  /// heap that `far` names, which makes cancel() O(log n): the slot knows
  /// where it sits, so unlinking never searches.
  struct EventSlot {
    SimTime t = 0.0;
    EventId id = 0;
    std::uint32_t heap_pos = 0;
    bool far = false;
    std::function<void()> fn;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// True when slot `a`'s event fires before slot `b`'s: earlier time
  /// first, issue order (monotone id) breaking ties — the determinism
  /// contract.
  bool fires_before(std::uint32_t a, std::uint32_t b) const {
    const EventSlot& ea = arena_[a];
    const EventSlot& eb = arena_[b];
    if (ea.t != eb.t) return ea.t < eb.t;
    return ea.id < eb.id;
  }
  /// The slot of the event that fires next, the earlier of the two heads
  /// by (t, id); kNoSlot when no event is pending.
  std::uint32_t next_slot() const {
    if (near_.empty()) return far_.empty() ? kNoSlot : far_.front();
    if (far_.empty() || fires_before(near_.front(), far_.front())) {
      return near_.front();
    }
    return far_.front();
  }
  Heap& heap_of(std::uint32_t slot) {
    return arena_[slot].far ? far_ : near_;
  }
  /// Unlink the event in `slot`, the head of its heap, and run it.
  void fire(std::uint32_t slot);

  void sift_up(Heap& heap, std::size_t pos);
  void sift_down(Heap& heap, std::size_t pos);
  void heap_remove(Heap& heap, std::size_t pos);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// slot_of_ index for a live id; valid only while the event is pending.
  std::size_t window_index(EventId id) const {
    ACIC_DCHECK(id >= window_base_ && id < next_id_,
                "event id " << id << " outside the live window");
    return static_cast<std::size_t>(id - window_base_);
  }
  void trim_window();

  void check_spawned_exceptions();
  /// Drop frames of finished processes (after surfacing their errors) so
  /// long simulations with many short-lived processes stay bounded.
  void compact_processes();

  SimTime now_ = 0.0;
  EventId next_id_ = 1;
  // Last fired (t, id) pair; backs the ACIC_DCHECK that equal-time events
  // fire in strictly increasing id order.
  SimTime last_fired_t_ = -1.0;
  EventId last_fired_id_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t spawned_since_compact_ = 0;

  // Event storage: arena + two intrusive heaps of slot indices, plus the
  // id -> slot window that resolves cancel() handles.  Ids are issued
  // densely, so the window is a vector indexed by (id - window_base_);
  // fired/cancelled entries become kNoSlot and the dead prefix is trimmed
  // amortised-O(1) as new events are scheduled.
  std::vector<EventSlot> arena_;
  Heap near_;  // events due within kFarEventHorizon of their scheduling
  Heap far_;   // events due later than that
  std::vector<std::uint32_t> free_slots_;  // recycled arena slots
  std::vector<std::uint32_t> slot_of_;     // slot_of_[id - window_base_]
  EventId window_base_ = 1;
  std::size_t window_head_ = 0;  // leading dead entries awaiting trim

  std::vector<Task> processes_;
};

}  // namespace acic::sim
