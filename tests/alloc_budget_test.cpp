// Allocation budget of the simulation's data path.  This file replaces the
// test binary's global operator new and delete with forwarders to malloc
// and free that count calls while the calling thread has armed them, so a
// test can assert that a warm path makes no heap allocation at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "acic/cloud/ioconfig.hpp"
#include "acic/io/runner.hpp"
#include "acic/io/workload.hpp"
#include "acic/simcore/flow.hpp"
#include "acic/simcore/join.hpp"
#include "acic/simcore/simulator.hpp"
#include "acic/simcore/sync.hpp"
#include "acic/simcore/task.hpp"

namespace {

thread_local bool counting = false;
thread_local std::size_t allocations = 0;

void* allocate(std::size_t n) {
  if (counting) ++allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

/// Start counting this thread's allocations from zero.
void arm() {
  allocations = 0;
  counting = true;
}

/// Stop counting; returns the allocations made since arm().
std::size_t disarm() {
  counting = false;
  return allocations;
}

}  // namespace

// Every unaligned form is replaced, so no block allocated by one
// allocator is freed by another (AddressSanitizer's runtime provides the
// forms left out).  Aligned forms stay the library's: they pair only with
// each other.
void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace acic::sim {
namespace {

Task back_to_back_transfers(FlowNetwork& net, FlowPath path, int warm,
                            int counted, std::size_t* allocs) {
  // Sizes cycle through 0, 500, 1000 and 1500 bytes: a zero-byte transfer
  // completes through one event instead of entering the solver.
  for (int i = 0; i < warm; ++i) co_await net.transfer(path, (i % 4) * 500.0);
  arm();
  for (int i = 0; i < counted; ++i) {
    co_await net.transfer(path, (i % 4) * 500.0);
  }
  *allocs = disarm();
}

// Once the network's and the simulator's tables have grown, a transfer
// needs no coroutine frame, shared state or heap-stored callback.
TEST(FlowNetwork, WarmTransfersAllocateNothing) {
  Simulator s;
  FlowNetwork net(s);
  const FlowPath path{net.add_resource("nic", 100.0),
                      net.add_resource("disk", 50.0)};
  std::size_t allocs = 1;
  s.spawn(back_to_back_transfers(net, path, 200, 1000, &allocs));
  s.run();
  EXPECT_TRUE(s.all_processes_done());
  EXPECT_EQ(allocs, 0u);
  EXPECT_NEAR(net.bytes_delivered(), 1200 * 750.0, 1e-3);
}

Task back_to_back_timed_transfers(FlowNetwork& net, FlowPath path, int warm,
                                  int counted, std::size_t* allocs,
                                  int* timeouts) {
  // 0, 500, 1000 and 1500 bytes at 50 B/s against a 25 s deadline: the
  // 1500-byte transfers time out, the rest complete and cancel the timer.
  for (int i = 0; i < warm; ++i) {
    co_await net.transfer_within(path, (i % 4) * 500.0, 25.0);
  }
  arm();
  for (int i = 0; i < counted; ++i) {
    if (!co_await net.transfer_within(path, (i % 4) * 500.0, 25.0)) {
      ++*timeouts;
    }
  }
  *allocs = disarm();
}

// A deadline-bounded transfer keeps its state in the awaiter, and both the
// flow's callback and the timer capture only a pointer to it, so warm
// timed transfers, completing or timing out, allocate nothing either.
TEST(FlowNetwork, WarmTimedTransfersAllocateNothing) {
  Simulator s;
  FlowNetwork net(s);
  const FlowPath path{net.add_resource("nic", 100.0),
                      net.add_resource("disk", 50.0)};
  std::size_t allocs = 1;
  int timeouts = 0;
  s.spawn(back_to_back_timed_transfers(net, path, 200, 1000, &allocs,
                                       &timeouts));
  s.run();
  EXPECT_TRUE(s.all_processes_done());
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(timeouts, 250);
  EXPECT_EQ(net.active_flows(), 0u);
}

Task wait_rounds(Condition& c, int rounds, int* wakeups) {
  for (int k = 0; k < rounds; ++k) {
    co_await c.wait();
    ++*wakeups;
  }
}

// Waking every waiter, and every waiter waiting again, reuses the
// condition's waiter storage and the simulator's event slots.
TEST(SyncTest, WarmNotifyAllAllocatesNothing) {
  Simulator s;
  Condition c(s);
  constexpr int kWaiters = 16;
  constexpr int kRounds = 40;
  int wakeups = 0;
  for (int i = 0; i < kWaiters; ++i) s.spawn(wait_rounds(c, kRounds, &wakeups));
  std::size_t notify_allocs = 0;
  std::size_t cycle_allocs = 0;
  for (int round = 0; round < kRounds; ++round) {
    // The first half warms the storage up.
    const bool counted = round >= kRounds / 2;
    if (counted) arm();
    c.notify_all();
    if (counted) notify_allocs += disarm();
    if (counted) arm();
    s.run();
    if (counted) cycle_allocs += disarm();
  }
  EXPECT_EQ(notify_allocs, 0u);
  EXPECT_EQ(cycle_allocs, 0u);
  EXPECT_EQ(wakeups, kWaiters * kRounds);
  EXPECT_TRUE(s.all_processes_done());
}

Task leaf(Simulator& s) { co_await s.delay(1.0); }

Task fan_out(Simulator& s, int width) {
  Join join(s);
  for (int i = 0; i < width; ++i) join.start(leaf(s));
  co_await join;
}

Task fan_outs(Simulator& s, int warm, int counted, std::size_t* allocs) {
  for (int i = 0; i < warm; ++i) co_await fan_out(s, 4);
  arm();
  for (int i = 0; i < counted; ++i) co_await fan_out(s, 4);
  *allocs = disarm();
}

// A fan-out's frames (the joining parent's and its children's) come from
// the thread's frame pool, and the join keeps its children in their own
// promises, so a warm fan-out allocates nothing.
TEST(JoinTest, WarmFanOutsAllocateNothing) {
  if (!kFramePool) {
    GTEST_SKIP() << "the frame pool is compiled out under AddressSanitizer";
  }
  Simulator s;
  std::size_t allocs = 1;
  s.spawn(fan_outs(s, 100, 1000, &allocs));
  s.run();
  EXPECT_TRUE(s.all_processes_done());
  EXPECT_EQ(allocs, 0u);
  EXPECT_DOUBLE_EQ(s.now(), 1100.0);
}

}  // namespace
}  // namespace acic::sim

namespace acic::io {
namespace {

cloud::IoConfig labelled(const std::string& label) {
  const auto& grid = cloud::IoConfig::enumerate_candidates();
  const auto it =
      std::find_if(grid.begin(), grid.end(),
                   [&](const cloud::IoConfig& c) { return c.label() == label; });
  EXPECT_NE(it, grid.end()) << label;
  return it == grid.end() ? cloud::IoConfig::baseline() : *it;
}

Workload iterated(int iterations) {
  Workload w;
  w.name = "alloc-budget";
  w.num_processes = 64;
  w.num_io_processes = 64;
  w.interface = IoInterface::kPosix;
  w.iterations = iterations;
  w.data_size = 16.0 * MiB;
  w.request_size = 8.0 * MiB;  // two stripes or more: striped fan-outs
  w.op = OpMix::kReadWrite;
  w.file_shared = true;
  return w;
}

struct Counted {
  std::size_t allocations;
  std::uint64_t events;
};

Counted counted_run(const Workload& w, const cloud::IoConfig& config,
                    const RunOptions& options) {
  arm();
  const RunResult r = run_workload(w, config, options);
  return {disarm(), r.sim_events};
}

// What a run allocates must not grow with its simulated length: a warm
// run_workload at 100 iterations makes at most a handful more
// allocations than at 10, on an NFS server and on striped PVFS2 fan-outs,
// with retry (a deadline timer per transfer) off and on.
TEST(RunAllocBudget, LongerRunsAllocateNoMore) {
  if (!sim::kFramePool) {
    GTEST_SKIP() << "the frame pool is compiled out under AddressSanitizer";
  }
  for (const char* label :
       {"pvfs.4.D.eph.4M", "pvfs.4.P.ebs.64K.cc1", "nfs.D.ebs"}) {
    const cloud::IoConfig config = labelled(label);
    for (const bool retry : {false, true}) {
      RunOptions options;
      options.tuning.retry.enabled = retry;
      run_workload(iterated(10), config, options);  // warm the frame pool
      const Counted short_run = counted_run(iterated(10), config, options);
      const Counted long_run = counted_run(iterated(100), config, options);
      EXPECT_LE(long_run.allocations, short_run.allocations + 8)
          << label << (retry ? " with retry: " : ": ")
          << short_run.allocations << " allocations at 10 iterations, "
          << long_run.allocations << " at 100";
      EXPECT_GT(long_run.events, 9 * short_run.events) << label;
    }
  }
}

}  // namespace
}  // namespace acic::io
