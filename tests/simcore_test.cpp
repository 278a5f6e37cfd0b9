// Unit tests for the discrete-event kernel, coroutine tasks and sync
// primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/common/rng.hpp"
#include "acic/simcore/join.hpp"
#include "acic/simcore/simulator.hpp"
#include "acic/simcore/sync.hpp"

namespace acic::sim {
namespace {

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.at(3.0, [&] { order.push_back(3); });
  s.at(1.0, [&] { order.push_back(1); });
  s.at(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulator, TiesFireFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.at(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RejectsPastEvents) {
  Simulator s;
  s.at(5.0, [] {});
  s.run();
  EXPECT_THROW(s.at(1.0, [] {}), Error);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const auto id = s.at(1.0, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsHarmless) {
  Simulator s;
  int fired = 0;
  const auto id = s.at(1.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  // The id was issued, so the late cancel is accepted — and must not
  // affect any event scheduled afterwards.
  s.cancel(id);
  s.at(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelOfUnissuedIdIsRejected) {
  Simulator s;
  EXPECT_THROW(s.cancel(42), Error);
  EXPECT_THROW(s.cancel(0), Error);
}

TEST(Simulator, CancelInsideFiringCallbackAtSameTimestamp) {
  Simulator s;
  bool b_fired = false, c_fired = false;
  EventId b_id = 0;
  // A fires first (FIFO at t=1) and cancels B, which shares its timestamp
  // and is already sitting in the heap.
  s.at(1.0, [&] { s.cancel(b_id); });
  b_id = s.at(1.0, [&] { b_fired = true; });
  s.at(1.0, [&] { c_fired = true; });
  s.run();
  EXPECT_FALSE(b_fired);
  EXPECT_TRUE(c_fired);
  EXPECT_EQ(s.events_executed(), 2u);
}

TEST(Simulator, CancelInsideFiringCallbackForLaterEvent) {
  Simulator s;
  bool fired = false;
  const auto id = s.at(5.0, [&] { fired = true; });
  s.at(1.0, [&] { s.cancel(id); });
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  double inner_time = -1.0;
  s.at(1.0, [&] { s.in(2.0, [&] { inner_time = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(inner_time, 3.0);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int count = 0;
  s.at(1.0, [&] { ++count; });
  s.at(10.0, [&] { ++count; });
  s.run_until(5.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunUntilDeadlineExactlyOnEventTimestamp) {
  Simulator s;
  std::vector<double> fired_at;
  s.at(5.0, [&] { fired_at.push_back(s.now()); });
  s.at(5.0, [&] { fired_at.push_back(s.now()); });
  s.at(5.0 + 1e-9, [&] { fired_at.push_back(s.now()); });
  // A deadline equal to an event timestamp is inclusive: both t=5 events
  // fire, the one an epsilon later stays queued.
  s.run_until(5.0);
  EXPECT_EQ(fired_at.size(), 2u);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  s.run();
  EXPECT_EQ(fired_at.size(), 3u);
}

TEST(Simulator, RunUntilRefusesToRewindTheClock) {
  Simulator s;
  s.at(1.0, [] {});
  s.run_until(5.0);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_THROW(s.run_until(3.0), Error);
  s.run_until(5.0);  // equal deadline is a legal no-op
}

TEST(Simulator, CancelInsideCallbackCancellingItselfIsHarmless) {
  // An event cancelling its own (already-popped) id must not disturb
  // later events: the stale id simply sits in the cancelled list.
  Simulator s;
  EventId self = 0;
  bool later_fired = false;
  self = s.at(1.0, [&] { s.cancel(self); });
  s.at(2.0, [&] { later_fired = true; });
  s.run();
  EXPECT_TRUE(later_fired);
  EXPECT_EQ(s.events_executed(), 2u);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.at(static_cast<double>(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(Simulator, RunUntilWithCancelledEventsDoesNotOvershootDeadline) {
  // Regression: the tombstone-based queue used to pop cancelled entries
  // inside run_until's step loop, so a cancelled event below the
  // deadline could advance the scan past a live event *beyond* it —
  // firing work the deadline should have fenced off.  With the
  // intrusive heap the head is always live, so the deadline comparison
  // is exact.
  Simulator s;
  bool live_fired = false;
  const auto doomed = s.at(1.0, [] {});
  s.at(5.0, [&] { live_fired = true; });
  s.cancel(doomed);
  s.run_until(2.0);
  EXPECT_FALSE(live_fired);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_EQ(s.events_executed(), 0u);
  s.run();
  EXPECT_TRUE(live_fired);
}

TEST(Simulator, CancelLeavesNoQueueResidue) {
  // Regression: cancel() used to append the id to a `cancelled_` vector
  // that was only drained when the event's timestamp came up, so a
  // workload cancelling far-future events (failure injection under the
  // 24h horizon) accumulated unbounded tombstones.  Now a cancel
  // removes the heap entry immediately and recycles its arena slot.
  Simulator s;
  const auto id = s.at(100.0, [] {});
  EXPECT_EQ(s.pending_events(), 1u);
  s.cancel(id);
  EXPECT_EQ(s.pending_events(), 0u);

  // Schedule/cancel churn must reuse slots, not grow the arena.
  for (int i = 0; i < 10000; ++i) {
    s.cancel(s.at(100.0 + i, [] {}));
  }
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_LE(s.event_arena_slots(), 8u);
}

TEST(Simulator, DoubleCancelOfPendingEventIsHarmless) {
  Simulator s;
  bool doomed_fired = false;
  bool live_fired = false;
  const auto id = s.at(1.0, [&] { doomed_fired = true; });
  s.at(2.0, [&] { live_fired = true; });
  s.cancel(id);
  s.cancel(id);  // second cancel of the same pending id: a no-op
  s.run();
  EXPECT_FALSE(doomed_fired);
  EXPECT_TRUE(live_fired);
}

TEST(Simulator, HeapSurvivesInterleavedScheduleCancelChurn) {
  // Deterministic stress over the intrusive-heap invariants: interleave
  // schedules and cancels (including middle-of-heap removals), then
  // verify everything left fires in exact (time, id) order.
  Simulator s;
  std::vector<double> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    const double t = static_cast<double>((i * 37) % 101) + 1.0;
    ids.push_back(s.at(t, [&fired, &s] { fired.push_back(s.now()); }));
    if (i % 3 == 0) {
      s.cancel(ids[static_cast<std::size_t>(i) * 2 / 3]);
    }
  }
  s.run();
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired.size(), s.events_executed());
  EXPECT_EQ(s.pending_events(), 0u);
}

// Events due more than a second past now() sit in a second heap.  A far
// event and a near one due at the same instant can only have been issued
// in that order (the near one was scheduled later, closer to the
// instant), and the far one fires first, as one heap would fire it.
TEST(Simulator, FarEventIssuedFirstFiresBeforeANearOneAtTheSameInstant) {
  Simulator s;
  std::vector<int> order;
  s.at(5.0, [&] { order.push_back(1); });  // 5 s ahead: the far heap
  s.at(4.5, [&] {
    s.at(5.0, [&] { order.push_back(2); });  // 0.5 s ahead: the near heap
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, RunUntilFiresAnEventWaitingOnlyInTheFarHeap) {
  Simulator s;
  bool fired = false;
  s.at(10.0, [&] { fired = true; });  // the far heap; the near one is empty
  s.run_until(9.0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_DOUBLE_EQ(s.now(), 9.0);
  s.run_until(10.0);  // now 1 s short of it, but the event stays far
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
}

TEST(Simulator, FarCancelsLeaveBothHeapsCountedAndTheArenaBounded) {
  Simulator s;
  std::vector<EventId> far;
  for (int i = 0; i < 8; ++i) {
    s.at(0.25 * i, [] {});               // near
    far.push_back(s.at(30.0 + i, [] {}));  // far
  }
  EXPECT_EQ(s.pending_events(), 16u);
  EXPECT_EQ(s.event_arena_slots(), 16u);
  for (const EventId id : far) s.cancel(id);
  EXPECT_EQ(s.pending_events(), 8u);
  // Far schedule/cancel churn (a request's deadline timer, cancelled by
  // its completion) reuses the cancelled slots.
  for (int i = 0; i < 10000; ++i) s.cancel(s.at(20.0 + i, [] {}));
  EXPECT_EQ(s.pending_events(), 8u);
  EXPECT_EQ(s.event_arena_slots(), 16u);
  s.run();
  EXPECT_EQ(s.events_executed(), 8u);
  EXPECT_DOUBLE_EQ(s.now(), 1.75);
}

// Seeded churn over both heaps against a multimap keyed by (t, id):
// 20,000 operations, each a schedule (a delay on either side of the
// horizon, or an instant already pending), a cancel (of a pending or a
// stale id), a step or a run_until.  Every firing must be the multimap's
// first entry.
TEST(Simulator, TwoHeapsFireExactlyInTimeThenIssueOrder) {
  Simulator s;
  Rng rng(20261021);
  std::multimap<std::pair<SimTime, EventId>, int> pending;
  std::vector<std::pair<SimTime, EventId>> issued;  // by tag
  std::size_t fired = 0;
  std::size_t mismatches = 0;
  auto on_fire = [&](int tag) {
    ++fired;
    if (pending.empty() || pending.begin()->second != tag ||
        pending.begin()->first.first != s.now()) {
      ++mismatches;
      return;
    }
    pending.erase(pending.begin());
  };
  std::size_t near = 0;
  std::size_t far = 0;
  for (int op = 0; op < 20000; ++op) {
    const double r = rng.uniform();
    if (r < 0.45) {
      SimTime t = s.now();
      const double kind = rng.uniform();
      if (kind < 0.35) {
        t = s.now() + rng.uniform(0.0, 0.9);
      } else if (kind < 0.70) {
        t = s.now() + rng.uniform(1.1, 30.0);
      } else if (kind < 0.90 && !pending.empty()) {
        // An instant already pending, in either heap.
        const auto& key = std::next(pending.begin(),
                                    static_cast<std::ptrdiff_t>(
                                        rng.uniform_index(pending.size())))
                              ->first;
        t = key.first;
      }
      const int tag = static_cast<int>(issued.size());
      const EventId id = s.at(t, [&on_fire, tag] { on_fire(tag); });
      issued.emplace_back(t, id);
      pending.emplace(std::make_pair(t, id), tag);
      (t - s.now() > 1.0 ? far : near) += 1;
    } else if (r < 0.70) {
      if (issued.empty()) continue;
      const auto& key = issued[rng.uniform_index(issued.size())];
      s.cancel(key.second);
      if (auto it = pending.find(key); it != pending.end()) pending.erase(it);
    } else if (r < 0.90) {
      const bool any_pending = !pending.empty();
      EXPECT_EQ(s.step(), any_pending);
    } else {
      const SimTime deadline = s.now() + rng.uniform(0.0, 3.0);
      s.run_until(deadline);
      EXPECT_DOUBLE_EQ(s.now(), deadline);
      if (!pending.empty()) {
        EXPECT_GT(pending.begin()->first.first, deadline);
      }
    }
    EXPECT_EQ(s.pending_events(), pending.size());
  }
  s.run();
  EXPECT_EQ(mismatches, 0u);
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(fired, s.events_executed());
  // Both sides of the horizon were exercised.
  EXPECT_GT(near, 2000u);
  EXPECT_GT(far, 2000u);
}

Task delayed_append(Simulator& s, std::vector<int>& out, SimTime dt, int tag) {
  co_await s.delay(dt);
  out.push_back(tag);
}

TEST(TaskTest, SpawnedProcessesInterleaveByTime) {
  Simulator s;
  std::vector<int> out;
  s.spawn(delayed_append(s, out, 2.0, 2));
  s.spawn(delayed_append(s, out, 1.0, 1));
  s.spawn(delayed_append(s, out, 3.0, 3));
  s.run();
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(s.all_processes_done());
}

Task parent_task(Simulator& s, std::vector<std::string>& log) {
  log.push_back("parent-start");
  co_await [](Simulator& sim, std::vector<std::string>& l) -> Task {
    l.push_back("child-start");
    co_await sim.delay(1.0);
    l.push_back("child-end");
  }(s, log);
  log.push_back("parent-end");
}

TEST(TaskTest, AwaitingChildRunsToCompletion) {
  Simulator s;
  std::vector<std::string> log;
  s.spawn(parent_task(s, log));
  s.run();
  EXPECT_EQ(log, (std::vector<std::string>{"parent-start", "child-start",
                                           "child-end", "parent-end"}));
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
}

Task throwing_task(Simulator& s) {
  co_await s.delay(1.0);
  throw Error("boom");
}

TEST(TaskTest, SpawnedExceptionSurfacesFromRun) {
  Simulator s;
  s.spawn(throwing_task(s));
  EXPECT_THROW(s.run(), Error);
}

Task await_throwing_child(Simulator& s, bool& caught) {
  try {
    co_await throwing_task(s);
  } catch (const Error&) {
    caught = true;
  }
}

TEST(TaskTest, ChildExceptionPropagatesToParent) {
  Simulator s;
  bool caught = false;
  s.spawn(await_throwing_child(s, caught));
  s.run();
  EXPECT_TRUE(caught);
}

Task fused_and_stepwise(Simulator& s, std::vector<SimTime>& times,
                        std::vector<std::uint64_t>& events) {
  // Step by step: three delays, three events.
  co_await s.delay(0.1);
  co_await s.delay(0.2);
  co_await s.delay(0.3);
  times.push_back(s.now());
  events.push_back(s.events_executed());
  // Fused: the same additions in the same order, one event.
  SimTime t = s.now() + 0.1;
  t = t + 0.2;
  t = t + 0.3;
  co_await s.until(t);
  times.push_back(s.now());
  events.push_back(s.events_executed());
  // An instant that is not in the future resumes at once.
  co_await s.until(s.now());
  co_await s.until(0.25);
  times.push_back(s.now());
  events.push_back(s.events_executed());
}

TEST(Simulator, UntilResumesOnTheInstantTheDelaysItFusesEnd) {
  Simulator s;
  std::vector<SimTime> times;
  std::vector<std::uint64_t> events;
  s.spawn(fused_and_stepwise(s, times, events));
  s.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], (0.1 + 0.2) + 0.3);
  EXPECT_EQ(times[1], ((times[0] + 0.1) + 0.2) + 0.3);
  EXPECT_EQ(times[2], times[1]);
  EXPECT_EQ(events, (std::vector<std::uint64_t>{3, 4, 4}));
}

Task wait_on(Condition& c, int& wakeups) {
  co_await c.wait();
  ++wakeups;
}

TEST(SyncTest, ConditionNotifyAllWakesEveryWaiter) {
  Simulator s;
  Condition c(s);
  int wakeups = 0;
  for (int i = 0; i < 4; ++i) s.spawn(wait_on(c, wakeups));
  s.at(1.0, [&] { c.notify_all(); });
  s.run();
  EXPECT_EQ(wakeups, 4);
}

Task wait_and_log(Simulator& s, Condition& c, SimTime arrive, int id,
                  std::vector<int>& woke) {
  co_await s.delay(arrive);
  co_await c.wait();
  woke.push_back(id);
}

TEST(SyncTest, ConditionNotifyOneWakesOldest) {
  Simulator s;
  Condition c(s);
  std::vector<int> woke;
  // Spawned as 0, 1, 2 but waiting from 0.3, 0.1 and 0.2 s: the oldest
  // waiter is 1, then 2, then 0.
  s.spawn(wait_and_log(s, c, 0.3, 0, woke));
  s.spawn(wait_and_log(s, c, 0.1, 1, woke));
  s.spawn(wait_and_log(s, c, 0.2, 2, woke));
  s.at(1.0, [&] { c.notify_one(); });
  s.run_until(2.0);
  EXPECT_EQ(woke, (std::vector<int>{1}));
  EXPECT_EQ(c.waiter_count(), 2u);
  c.notify_one();
  s.run_until(3.0);
  EXPECT_EQ(woke, (std::vector<int>{1, 2}));
  EXPECT_EQ(c.waiter_count(), 1u);
  c.notify_all();
  s.run();
  EXPECT_EQ(woke, (std::vector<int>{1, 2, 0}));
}

Task use_semaphore(Simulator& s, Semaphore& sem, SimTime hold, int& active,
                   int& peak) {
  co_await sem.acquire();
  ++active;
  peak = std::max(peak, active);
  co_await s.delay(hold);
  --active;
  sem.release();
}

TEST(SyncTest, SemaphoreLimitsConcurrency) {
  Simulator s;
  Semaphore sem(s, 2);
  int active = 0, peak = 0;
  for (int i = 0; i < 6; ++i) s.spawn(use_semaphore(s, sem, 1.0, active, peak));
  s.run();
  EXPECT_EQ(peak, 2);
  // 6 holders of 1s each through 2 permits -> 3 serial rounds.
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_EQ(sem.available(), 2u);
}

Task hold_in_turn(Simulator& s, Semaphore& sem, SimTime arrive, int id,
                  std::vector<int>& order) {
  co_await s.delay(arrive);
  co_await sem.acquire();
  order.push_back(id);
  co_await s.delay(1.0);
  sem.release();
}

TEST(SyncTest, SemaphoreHandsPermitsOverInArrivalOrder) {
  // One permit, held 1 s at a time.  Holder `id` arrives at 0.375 x id s,
  // so from the second arrival on the queue never drains: it grows to
  // ~25 waiters while the oldest are served, wrapping its storage.  The
  // holders are spawned in a scrambled order and must still get the
  // permit in arrival order.
  Simulator s;
  Semaphore sem(s, 1);
  constexpr int kHolders = 40;
  std::vector<int> order;
  for (int k = 0; k < kHolders; ++k) {
    const int id = (k * 17) % kHolders;  // a permutation: gcd(17, 40) = 1
    s.spawn(hold_in_turn(s, sem, 0.375 * id, id, order));
  }
  s.run();
  std::vector<int> arrival_order(kHolders);
  for (int id = 0; id < kHolders; ++id) arrival_order[id] = id;
  EXPECT_EQ(order, arrival_order);
  EXPECT_DOUBLE_EQ(s.now(), static_cast<double>(kHolders));
  EXPECT_EQ(sem.available(), 1u);
}

/// Arrives at `arrive`, holds the semaphore for `service` and releases
/// it at once, logging (id, resume time) and the events run by then.
Task hold_and_release(Simulator& s, Semaphore& sem, SimTime arrive,
                      SimTime service, int id,
                      std::vector<std::pair<int, SimTime>>& resumed,
                      std::vector<std::uint64_t>* events = nullptr) {
  co_await s.until(arrive);
  co_await sem.hold(service);
  resumed.emplace_back(id, s.now());
  if (events) events->push_back(s.events_executed());
  sem.release();
}

TEST(SyncTest, SemaphoreHoldUncontendedIsOneEventAtNowPlusService) {
  Simulator s;
  Semaphore sem(s, 1);
  std::vector<std::pair<int, SimTime>> resumed;
  std::vector<std::uint64_t> events;
  s.spawn(hold_and_release(s, sem, 0.0, 0.75, 0, resumed, &events));
  EXPECT_EQ(sem.available(), 0u);  // held from the acquire on
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(resumed, (std::vector<std::pair<int, SimTime>>{{0, 0.75}}));
  EXPECT_EQ(events, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(sem.available(), 1u);
}

TEST(SyncTest, SemaphoreHoldContendedResumesAtReleasePlusServiceFifo) {
  // One permit.  Holder 0 takes it at 0 for 1 s; 2 queues at 0.25 s for
  // 2 s and 1 at 0.5 s for 0.5 s (spawned out of arrival order).  Each
  // resumes its service time after the release that hands it the
  // permit, in arrival order, through one event per hold.
  Simulator s;
  Semaphore sem(s, 1);
  std::vector<std::pair<int, SimTime>> resumed;
  std::vector<std::uint64_t> events;
  s.spawn(hold_and_release(s, sem, 0.5, 0.5, 1, resumed, &events));
  s.spawn(hold_and_release(s, sem, 0.0, 1.0, 0, resumed, &events));
  s.spawn(hold_and_release(s, sem, 0.25, 2.0, 2, resumed, &events));
  s.run();
  const std::vector<std::pair<int, SimTime>> want = {
      {0, 1.0}, {2, 1.0 + 2.0}, {1, (1.0 + 2.0) + 0.5}};
  EXPECT_EQ(resumed, want);
  // Two arrivals after t=0, then one event per hold.
  EXPECT_EQ(events, (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(sem.available(), 1u);
}

TEST(SyncTest, SemaphoreHoldOfZeroServiceIsAnAcquire) {
  Simulator s;
  Semaphore sem(s, 1);
  std::vector<std::pair<int, SimTime>> resumed;
  // Uncontended: no suspension and no event.
  s.spawn(hold_and_release(s, sem, 0.0, 0.0, 0, resumed));
  EXPECT_EQ(resumed, (std::vector<std::pair<int, SimTime>>{{0, 0.0}}));
  EXPECT_EQ(s.pending_events(), 0u);
  // Contended: queued, then woken at the release's own time.
  s.spawn(hold_and_release(s, sem, 1.0, 2.0, 1, resumed));
  s.spawn(hold_and_release(s, sem, 1.5, 0.0, 2, resumed));
  s.run();
  const std::vector<std::pair<int, SimTime>> want = {
      {0, 0.0}, {1, 3.0}, {2, 3.0}};
  EXPECT_EQ(resumed, want);
  // Two arrivals, holder 1's service and holder 2's wake.
  EXPECT_EQ(s.events_executed(), 4u);
}

Task barrier_participant(Simulator& s, Barrier& b, SimTime arrive_at,
                         std::vector<SimTime>& exit_times) {
  co_await s.delay(arrive_at);
  co_await b.arrive_and_wait();
  exit_times.push_back(s.now());
}

TEST(SyncTest, BarrierReleasesAllAtLastArrival) {
  Simulator s;
  Barrier b(s, 3);
  std::vector<SimTime> exits;
  s.spawn(barrier_participant(s, b, 1.0, exits));
  s.spawn(barrier_participant(s, b, 5.0, exits));
  s.spawn(barrier_participant(s, b, 3.0, exits));
  s.run();
  ASSERT_EQ(exits.size(), 3u);
  for (SimTime t : exits) EXPECT_DOUBLE_EQ(t, 5.0);
}

Task barrier_with_latency(Simulator& s, Barrier& b, SimTime arrive_at,
                          int id, std::vector<std::pair<int, SimTime>>& out) {
  co_await s.until(arrive_at);
  co_await b.arrive_and_wait(0.25);
  out.emplace_back(id, s.now());
}

TEST(SyncTest, BarrierLatencyResumesLastArriverFirstThenInArrivalOrder) {
  Simulator s;
  Barrier b(s, 3);
  std::vector<std::pair<int, SimTime>> out;
  s.spawn(barrier_with_latency(s, b, 1.0, 0, out));
  s.spawn(barrier_with_latency(s, b, 5.0, 1, out));
  s.spawn(barrier_with_latency(s, b, 3.0, 2, out));
  s.run();
  // Everyone resumes 0.25 s after the last arrival at 5 s: the last
  // arriver (1) first, then 0 and 2 in the order they arrived.
  const std::vector<std::pair<int, SimTime>> want = {
      {1, 5.25}, {0, 5.25}, {2, 5.25}};
  EXPECT_EQ(out, want);
  // Three arrivals and one resume each: no wake-then-delay pairs.
  EXPECT_EQ(s.events_executed(), 6u);
}

Task barrier_twice(Simulator& s, Barrier& b, SimTime d, int& phase_counter) {
  co_await s.delay(d);
  co_await b.arrive_and_wait();
  ++phase_counter;
  co_await s.delay(d);
  co_await b.arrive_and_wait();
  ++phase_counter;
}

TEST(SyncTest, BarrierIsReusable) {
  Simulator s;
  Barrier b(s, 2);
  int phases = 0;
  s.spawn(barrier_twice(s, b, 1.0, phases));
  s.spawn(barrier_twice(s, b, 2.0, phases));
  s.run();
  EXPECT_EQ(phases, 4);
  EXPECT_TRUE(s.all_processes_done());
}

/// Counts the destruction of the coroutine frame that holds it.  A
/// by-value coroutine parameter is moved into the frame and lives as long
/// as the frame; the caller's moved-from argument counts nothing.
class FrameProbe {
 public:
  explicit FrameProbe(int* destroyed) : destroyed_(destroyed) {}
  FrameProbe(FrameProbe&& other) noexcept
      : destroyed_(std::exchange(other.destroyed_, nullptr)) {}
  FrameProbe(const FrameProbe&) = delete;
  FrameProbe& operator=(const FrameProbe&) = delete;
  FrameProbe& operator=(FrameProbe&&) = delete;
  ~FrameProbe() {
    if (destroyed_ != nullptr) ++*destroyed_;
  }

 private:
  int* destroyed_;
};

Task probed_child(Simulator& s, SimTime dt, [[maybe_unused]] FrameProbe probe,
                  bool fail = false) {
  if (dt > 0.0) co_await s.delay(dt);
  if (fail) throw Error("child failed");
}

/// Starts children that finish after 1, 2, ... `width` seconds, then
/// records, on resuming, how many child frames are gone and how many
/// events have run.
Task join_children(Simulator& s, int width, int* destroyed,
                   int* destroyed_at_resume,
                   std::uint64_t* events_at_resume) {
  Join join(s);
  for (int i = 0; i < width; ++i) {
    join.start(probed_child(s, 1.0 + i, FrameProbe(destroyed)));
  }
  co_await join;
  *destroyed_at_resume = *destroyed;
  *events_at_resume = s.events_executed();
}

// Finished children keep their frames until the parent resumes; the join
// destroys them then.  Three children end at 1, 2 and 3 s; the last one
// wakes the parent through one more event at 3 s.
TEST(JoinTest, ChildFramesAreDestroyedWhenTheJoinCompletes) {
  Simulator s;
  int destroyed = 0;
  int destroyed_at_resume = -1;
  std::uint64_t events_at_resume = 0;
  s.spawn(join_children(s, 3, &destroyed, &destroyed_at_resume,
                        &events_at_resume));
  s.run_until(2.5);
  EXPECT_EQ(destroyed, 0);  // two children done, their frames still owned
  s.run();
  EXPECT_EQ(destroyed_at_resume, 3);
  EXPECT_EQ(events_at_resume, 4u);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_TRUE(s.all_processes_done());
}

Task join_same_instant(Simulator& s, int width, int* destroyed,
                       std::uint64_t* events_at_resume) {
  Join join(s);
  for (int i = 0; i < width; ++i) {
    join.start(probed_child(s, 1.0, FrameProbe(destroyed)));
  }
  co_await join;
  *events_at_resume = s.events_executed();
}

Task join_finished_children(Simulator& s, int* destroyed, bool* resumed) {
  Join join(s);
  for (int i = 0; i < 3; ++i) {
    join.start(probed_child(s, 0.0, FrameProbe(destroyed)));
  }
  EXPECT_EQ(*destroyed, 0);  // finished, but still owned by the join
  co_await join;  // every child already finished: no suspension
  *resumed = true;
}

TEST(JoinTest, LastChildWakesTheParentThroughExactlyOneEvent) {
  Simulator s;
  int destroyed = 0;
  std::uint64_t events_at_resume = 0;
  s.spawn(join_same_instant(s, 4, &destroyed, &events_at_resume));
  s.run();
  // Four child delays at 1 s, then the wake.
  EXPECT_EQ(events_at_resume, 5u);
  EXPECT_EQ(s.events_executed(), 5u);
  EXPECT_EQ(destroyed, 4);

  // Children that finish inside start() leave nothing to wait for.
  Simulator t;
  bool resumed = false;
  destroyed = 0;
  t.spawn(join_finished_children(t, &destroyed, &resumed));
  EXPECT_TRUE(resumed);
  EXPECT_EQ(destroyed, 3);
  EXPECT_EQ(t.pending_events(), 0u);
  t.run();
  EXPECT_EQ(t.events_executed(), 0u);
}

Task join_failing_child(Simulator& s, int* destroyed, bool catch_it,
                        bool* caught) {
  Join join(s);
  join.start(probed_child(s, 1.0, FrameProbe(destroyed)));
  join.start(probed_child(s, 2.0, FrameProbe(destroyed), /*fail=*/true));
  join.start(probed_child(s, 3.0, FrameProbe(destroyed)));
  if (!catch_it) {
    co_await join;
    co_return;
  }
  try {
    co_await join;
  } catch (const Error&) {
    *caught = true;
  }
}

TEST(JoinTest, ChildExceptionSurfacesFromRun) {
  Simulator s;
  int destroyed = 0;
  s.spawn(join_failing_child(s, &destroyed, /*catch_it=*/false, nullptr));
  EXPECT_THROW(s.run(), Error);
  // The parent waited for every child before rethrowing.
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_EQ(destroyed, 3);

  // ...and the parent can catch it at the join.
  Simulator t;
  bool caught = false;
  destroyed = 0;
  t.spawn(join_failing_child(t, &destroyed, /*catch_it=*/true, &caught));
  t.run();
  EXPECT_TRUE(caught);
  EXPECT_EQ(destroyed, 3);
}

TEST(JoinTest, ParentDestroyedMidJoinDestroysItsChildren) {
  int destroyed = 0;
  int destroyed_at_resume = -1;
  std::uint64_t events_at_resume = 0;
  {
    Simulator s;
    s.spawn(join_children(s, 3, &destroyed, &destroyed_at_resume,
                          &events_at_resume));
    s.run_until(1.5);  // one child finished, two suspended in delays
    EXPECT_EQ(destroyed, 0);
  }  // tearing the simulator down destroys the parent mid-join
  EXPECT_EQ(destroyed, 3);
  EXPECT_EQ(destroyed_at_resume, -1);  // the parent never resumed
}

}  // namespace
}  // namespace acic::sim
