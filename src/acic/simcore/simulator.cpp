#include "acic/simcore/simulator.hpp"

#include <algorithm>
#include <utility>

#include "acic/common/error.hpp"
#include "acic/obs/metrics.hpp"

namespace acic::sim {

Simulator::~Simulator() {
  if (executed_ == 0) return;
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("sim.simulations").inc();
  registry.counter("sim.events").add(static_cast<double>(executed_));
  registry.counter("sim.simulated_seconds").add(now_);
}

// --- Intrusive heap plumbing ----------------------------------------------
//
// Each heap holds arena slot indices ordered by (t, id); every move of a
// heap entry writes the new position back into its slot's heap_pos so
// cancel() and step() can unlink in O(log n) without searching.

void Simulator::sift_up(Heap& heap, std::size_t pos) {
  const std::uint32_t slot = heap[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!fires_before(slot, heap[parent])) break;
    heap[pos] = heap[parent];
    arena_[heap[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap[pos] = slot;
  arena_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::sift_down(Heap& heap, std::size_t pos) {
  const std::uint32_t slot = heap[pos];
  const std::size_t n = heap.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && fires_before(heap[child + 1], heap[child])) {
      ++child;
    }
    if (!fires_before(heap[child], slot)) break;
    heap[pos] = heap[child];
    arena_[heap[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  heap[pos] = slot;
  arena_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void Simulator::heap_remove(Heap& heap, std::size_t pos) {
  ACIC_DCHECK(pos < heap.size(), "heap_remove at " << pos << " of "
                                                   << heap.size());
  const std::size_t last = heap.size() - 1;
  if (pos != last) {
    const std::uint32_t moved = heap[last];
    heap[pos] = moved;
    arena_[moved].heap_pos = static_cast<std::uint32_t>(pos);
    heap.pop_back();
    // The moved-in entry may need to travel either direction relative to
    // the removed one's old position.
    sift_down(heap, pos);
    sift_up(heap, arena_[moved].heap_pos);
  } else {
    heap.pop_back();
  }
}

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  ACIC_CHECK(arena_.size() < kNoSlot, "event arena exhausted");
  arena_.emplace_back();
  return static_cast<std::uint32_t>(arena_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  arena_[slot].fn = nullptr;  // drop the capture buffer eagerly
  free_slots_.push_back(slot);
}

void Simulator::trim_window() {
  // Advance past fired/cancelled ids, then drop the dead prefix once it
  // dominates the vector — amortised O(1) per scheduled event.
  while (window_head_ < slot_of_.size() &&
         slot_of_[window_head_] == kNoSlot) {
    ++window_head_;
  }
  if (window_head_ >= 64 && window_head_ * 2 >= slot_of_.size()) {
    slot_of_.erase(slot_of_.begin(),
                   slot_of_.begin() +
                       static_cast<std::ptrdiff_t>(window_head_));
    window_base_ += window_head_;
    window_head_ = 0;
  }
}

EventId Simulator::at(SimTime t, std::function<void()> fn) {
  ACIC_EXPECTS(t >= now_, "event scheduled in the past: t=" << t
                                                            << " now=" << now_);
  ACIC_EXPECTS(fn != nullptr, "event scheduled with an empty callback");
  const EventId id = next_id_++;
  const std::uint32_t slot = acquire_slot();
  EventSlot& ev = arena_[slot];
  ev.t = t;
  ev.id = id;
  ev.far = t - now_ > kFarEventHorizon;
  ev.fn = std::move(fn);
  slot_of_.push_back(slot);
  Heap& heap = heap_of(slot);
  heap.push_back(slot);
  sift_up(heap, heap.size() - 1);
  trim_window();
  return id;
}

void Simulator::cancel(EventId id) {
  ACIC_EXPECTS(id >= 1 && id < next_id_,
               "cancel of EventId " << id << " that was never issued");
  if (id < window_base_) return;  // reaped long ago: already fired/cancelled
  const std::size_t idx = window_index(id);
  const std::uint32_t slot = slot_of_[idx];
  if (slot == kNoSlot) return;  // already fired or already cancelled
  slot_of_[idx] = kNoSlot;
  heap_remove(heap_of(slot), arena_[slot].heap_pos);
  release_slot(slot);
}

void Simulator::spawn(Task task) {
  ACIC_EXPECTS(task.valid(), "spawn() needs a live coroutine");
  // Start before storing: the process may spawn further processes
  // re-entrantly, which would reallocate `processes_` under a reference.
  task.start_detached();
  processes_.push_back(std::move(task));
  // Periodic work (a checkpoint dump per interval) spawns short-lived
  // processes over a long run; reap the finished ones so the table stays
  // small.  A fan-out's children are not spawned: their join owns them.
  if (++spawned_since_compact_ >= 4096) compact_processes();
}

void Simulator::compact_processes() {
  spawned_since_compact_ = 0;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    if (processes_[i].done()) {
      processes_[i].rethrow_if_failed();  // surface errors before reaping
      continue;
    }
    if (keep != i) processes_[keep] = std::move(processes_[i]);
    ++keep;
  }
  processes_.resize(keep);
}

bool Simulator::step() {
  const std::uint32_t slot = next_slot();
  if (slot == kNoSlot) return false;
  fire(slot);
  return true;
}

void Simulator::fire(std::uint32_t slot) {
  const SimTime t = arena_[slot].t;
  const EventId id = arena_[slot].id;
  ACIC_DCHECK(arena_[slot].heap_pos == 0, "fired event is not a heap head");
  // Move the callback out and fully unlink the event *before* invoking it:
  // the callback may schedule (reallocating arena_) or cancel re-entrantly,
  // so no reference into the arena survives past this point.
  auto fn = std::move(arena_[slot].fn);
  heap_remove(heap_of(slot), 0);
  slot_of_[window_index(id)] = kNoSlot;
  release_slot(slot);
  // Kernel invariants: virtual time never rewinds, and equal-time events
  // fire in issue order (the determinism contract the trained models and
  // every regression figure rely on).
  ACIC_CHECK(t >= now_,
             "event queue yielded a past event: t=" << t << " now=" << now_);
  ACIC_DCHECK(t > last_fired_t_ || (t == last_fired_t_ && id > last_fired_id_),
              "FIFO tie-break violated at t=" << t << " id=" << id);
  last_fired_t_ = t;
  last_fired_id_ = id;
  now_ = t;
  ++executed_;
  fn();
}

void Simulator::run() {
  while (step()) {
  }
  check_spawned_exceptions();
}

void Simulator::run_until_processes_done() {
  while (!all_processes_done() && step()) {
  }
  check_spawned_exceptions();
  ACIC_CHECK_MSG(all_processes_done(),
                 "event queue drained with processes still suspended "
                 "(deadlock)");
}

bool Simulator::run_until_processes_done_or(SimTime deadline) {
  ACIC_EXPECTS(deadline >= now_, "watchdog deadline " << deadline
                                                      << " is already past ("
                                                      << now_ << ")");
  while (!all_processes_done()) {
    const std::uint32_t next = next_slot();
    if (next == kNoSlot) break;              // stalled: nothing left to fire
    if (arena_[next].t > deadline) break;    // watchdog: out of simulated time
    fire(next);
  }
  check_spawned_exceptions();
  return all_processes_done();
}

void Simulator::run_until(SimTime deadline) {
  ACIC_EXPECTS(deadline >= now_, "run_until(" << deadline
                                              << ") would rewind the clock from "
                                              << now_);
  // Both heap heads are always live (cancel unlinks eagerly), so this
  // check is exact: no event past the deadline can fire.
  for (std::uint32_t next = next_slot();
       next != kNoSlot && arena_[next].t <= deadline; next = next_slot()) {
    fire(next);
  }
  now_ = std::max(now_, deadline);
  check_spawned_exceptions();
}

bool Simulator::all_processes_done() const {
  // Early-out on the first unfinished process; together with compaction
  // this keeps the per-event check O(1) amortised.
  for (const auto& p : processes_) {
    if (!p.done()) return false;
  }
  return true;
}

void Simulator::check_spawned_exceptions() {
  for (const auto& p : processes_) p.rethrow_if_failed();
}

}  // namespace acic::sim
