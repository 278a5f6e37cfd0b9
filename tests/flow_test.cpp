// Unit and property tests for the max-min fair-share flow network.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/common/rng.hpp"
#include "acic/simcore/flow.hpp"
#include "acic/simcore/simulator.hpp"

namespace acic::sim {
namespace {

TEST(FlowNetwork, SingleFlowUsesFullCapacity) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);  // 100 B/s
  SimTime done_at = -1.0;
  net.start_flow({link}, 1000.0, [&] { done_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_NEAR(net.bytes_delivered(), 1000.0, 1e-6);
}

TEST(FlowNetwork, BytesAreConservedAcrossContendedTransfers) {
  Simulator s;
  FlowNetwork net(s);
  Rng rng(99);
  const auto a = net.add_resource("a", 80.0);
  const auto b = net.add_resource("b", 120.0);
  const auto c = net.add_resource("c", 50.0);
  Bytes injected = 0.0;
  for (int i = 0; i < 40; ++i) {
    const Bytes bytes = 1.0 + rng.uniform() * 5000.0;
    injected += bytes;
    FlowPath path;
    if (i % 3 == 0) path = {a, c};
    else if (i % 3 == 1) path = {b};
    else path = {a, b, c};
    const SimTime when = rng.uniform() * 30.0;
    s.at(when, [&net, path, bytes] { net.start_flow(path, bytes, nullptr); });
  }
  s.run();
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_DOUBLE_EQ(net.bytes_injected(), injected);
  // Conservation: once everything completed, delivered == injected up to
  // fp integration noise.
  EXPECT_NEAR(net.bytes_delivered(), injected, 1e-6 * injected);
}

TEST(FlowNetwork, RejectsDegenerateFlows) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  EXPECT_THROW(net.start_flow({}, 10.0, nullptr), Error);
  EXPECT_THROW(net.start_flow({link + 7}, 10.0, nullptr), Error);
  EXPECT_THROW(net.start_flow({link}, -1.0, nullptr), Error);
  EXPECT_THROW(net.set_capacity(link, -5.0), Error);
}

// An infinite capacity offers no finite fair share, so a flow crossing
// only such resources would never be scheduled: both entry points refuse
// it, and NaN, before any flow can depend on it.
TEST(FlowNetwork, RejectsNonFiniteCapacities) {
  Simulator s;
  FlowNetwork net(s);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, -inf, nan}) {
    try {
      net.add_resource("fast", bad);
      ADD_FAILURE() << "capacity " << bad << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("non-finite capacity"), std::string::npos) << what;
      EXPECT_NE(what.find("for fast"), std::string::npos) << what;
    }
  }
  const auto link = net.add_resource("link", 100.0);
  SimTime done_at = -1.0;
  net.start_flow({link}, 1000.0, [&] { done_at = s.now(); });
  for (const double bad : {inf, nan}) {
    try {
      net.set_capacity(link, bad);
      ADD_FAILURE() << "capacity " << bad << " was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("non-finite capacity"), std::string::npos) << what;
      EXPECT_NE(what.find("for link"), std::string::npos) << what;
    }
  }
  EXPECT_EQ(net.capacity(link), 100.0);
  s.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);
  EXPECT_EQ(net.active_flows(), 0u);
}

// A path of five hops cannot be built, so it never reaches the network.
TEST(FlowNetwork, RejectsPathsLongerThanFourHops) {
  Simulator s;
  FlowNetwork net(s);
  std::vector<ResourceId> hops;
  for (int i = 0; i < 5; ++i) {
    hops.push_back(net.add_resource("hop" + std::to_string(i), 100.0));
  }
  EXPECT_EQ(kMaxPathHops, 4u);
  FlowPath path;
  for (int i = 0; i < 4; ++i) path.push_back(hops[i]);
  try {
    path.push_back(hops[4]);
    ADD_FAILURE() << "a fifth hop was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("flow path of 5 hops exceeds the 4-hop limit"),
              std::string::npos)
        << what;
  }
  EXPECT_THROW((FlowPath{hops[0], hops[1], hops[2], hops[3], hops[4]}),
               Error);
  EXPECT_EQ(path.size(), 4u);  // the rejected hop left the path as it was
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_EQ(net.bytes_injected(), 0.0);
  // Four hops is the limit, not past it.
  SimTime done_at = -1.0;
  net.start_flow(path, 1000.0, [&] { done_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);
}

TEST(FlowNetwork, TwoFlowsShareEqually) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  SimTime a_done = -1, b_done = -1;
  net.start_flow({link}, 1000.0, [&] { a_done = s.now(); });
  net.start_flow({link}, 1000.0, [&] { b_done = s.now(); });
  s.run();
  // Both run at 50 B/s -> 20 s each.
  EXPECT_NEAR(a_done, 20.0, 1e-9);
  EXPECT_NEAR(b_done, 20.0, 1e-9);
}

TEST(FlowNetwork, ShortFlowFinishesThenLongSpeedsUp) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  SimTime small_done = -1, big_done = -1;
  net.start_flow({link}, 500.0, [&] { small_done = s.now(); });
  net.start_flow({link}, 1500.0, [&] { big_done = s.now(); });
  s.run();
  // Phase 1: both at 50 B/s until small ends at t=10 (500 B each).
  // Phase 2: big alone at 100 B/s for remaining 1000 B -> ends t=20.
  EXPECT_NEAR(small_done, 10.0, 1e-9);
  EXPECT_NEAR(big_done, 20.0, 1e-9);
}

TEST(FlowNetwork, LateArrivalSlowsExistingFlow) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  SimTime first_done = -1;
  net.start_flow({link}, 1000.0, [&] { first_done = s.now(); });
  s.at(5.0, [&] { net.start_flow({link}, 10000.0, nullptr); });
  s.run();
  // 500 B in first 5 s, then 50 B/s -> 10 more seconds.
  EXPECT_NEAR(first_done, 15.0, 1e-9);
}

TEST(FlowNetwork, BottleneckOnSharedMiddleResource) {
  Simulator s;
  FlowNetwork net(s);
  const auto a = net.add_resource("nic-a", 1000.0);
  const auto b = net.add_resource("nic-b", 1000.0);
  const auto shared = net.add_resource("server", 100.0);
  SimTime done_a = -1, done_b = -1;
  net.start_flow({a, shared}, 500.0, [&] { done_a = s.now(); });
  net.start_flow({b, shared}, 500.0, [&] { done_b = s.now(); });
  s.run();
  // Server capacity 100 split two ways -> 50 B/s each -> 10 s.
  EXPECT_NEAR(done_a, 10.0, 1e-9);
  EXPECT_NEAR(done_b, 10.0, 1e-9);
}

TEST(FlowNetwork, MaxMinGivesUnbottleneckedFlowTheRest) {
  Simulator s;
  FlowNetwork net(s);
  const auto wide = net.add_resource("wide", 100.0);
  const auto narrow = net.add_resource("narrow", 10.0);
  // Flow A crosses only the wide link; flow B crosses both.
  net.start_flow({wide}, 1e9, nullptr);
  net.start_flow({wide, narrow}, 1e9, nullptr);
  s.at(0.0, [&] {});
  s.step();
  // B is capped at 10 by the narrow link; A gets the remaining 90.
  // (Rates are observable immediately after the initial solve.)
  EXPECT_EQ(net.active_flows(), 2u);
  double ra = net.flow_rate(1), rb = net.flow_rate(2);
  EXPECT_NEAR(rb, 10.0, 1e-9);
  EXPECT_NEAR(ra, 90.0, 1e-9);
}

TEST(FlowNetwork, ZeroByteFlowCompletesImmediately) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  bool done = false;
  net.start_flow({link}, 0.0, [&] { done = true; });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
}

TEST(FlowNetwork, CapacityDropStallsAndRecovers) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  SimTime done = -1;
  net.start_flow({link}, 1000.0, [&] { done = s.now(); });
  s.at(5.0, [&] { net.set_capacity(link, 0.0); });   // failure
  s.at(25.0, [&] { net.set_capacity(link, 100.0); });  // recovery
  s.run();
  // 500 B before failure, 20 s stall, 5 s to finish the rest.
  EXPECT_NEAR(done, 30.0, 1e-9);
}

TEST(FlowNetwork, RejectsEmptyPathAndBadResource) {
  Simulator s;
  FlowNetwork net(s);
  EXPECT_THROW(net.start_flow({}, 10.0, nullptr), Error);
  EXPECT_THROW(net.start_flow({99}, 10.0, nullptr), Error);
}

Task transfer_and_mark(FlowNetwork& net, FlowPath path, Bytes bytes,
                       Simulator& s, SimTime& done_at) {
  co_await net.transfer(path, bytes);
  done_at = s.now();
}

TEST(FlowNetwork, CoroutineTransferAwaitsCompletion) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  SimTime done_at = -1;
  s.spawn(transfer_and_mark(net, {link}, 250.0, s, done_at));
  s.run();
  EXPECT_NEAR(done_at, 2.5, 1e-9);
}

TEST(FlowNetwork, CancelFlowDropsRemainingBytes) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  bool completed = false;
  const FlowId id = net.start_flow({link}, 1000.0, [&] { completed = true; });
  s.at(5.0, [&] { net.cancel_flow(id); });
  s.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(net.active_flows(), 0u);
  // 500 B moved before the cancel; the other 500 were abandoned.
  EXPECT_NEAR(net.bytes_delivered(), 500.0, 1e-6);
  EXPECT_NEAR(net.bytes_cancelled(), 500.0, 1e-6);
  // Cancelling again (or an unknown flow) is a harmless no-op.
  net.cancel_flow(id);
  net.cancel_flow(12345);
  EXPECT_NEAR(net.bytes_cancelled(), 500.0, 1e-6);
}

TEST(FlowNetwork, CancelFreesCapacityForSurvivors) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  SimTime done = -1;
  net.start_flow({link}, 1000.0, [&] { done = s.now(); });
  const FlowId hog = net.start_flow({link}, 1e9, nullptr);
  s.at(10.0, [&] { net.cancel_flow(hog); });
  s.run();
  // Shared 50 B/s for 10 s (500 B), then alone at 100 B/s for the rest.
  EXPECT_NEAR(done, 15.0, 1e-9);
}

Task timed_transfer(FlowNetwork& net, FlowPath path, Bytes bytes,
                    SimTime timeout, bool* completed, Simulator& s,
                    SimTime* finished_at) {
  *completed = co_await net.transfer_within(path, bytes, timeout);
  *finished_at = s.now();
}

TEST(FlowNetwork, TransferWithinCompletesAndCancelsTheTimer) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  bool completed = false;
  SimTime finished = -1;
  s.spawn(timed_transfer(net, {link}, 250.0, /*timeout=*/60.0, &completed,
                         s, &finished));
  s.run();
  EXPECT_TRUE(completed);
  EXPECT_NEAR(finished, 2.5, 1e-9);
  // The timeout timer must be cancelled on completion: the queue drains
  // at the completion time, not at t=60.
  EXPECT_NEAR(s.now(), 2.5, 1e-9);
}

TEST(FlowNetwork, TransferWithinTimesOutAndAbandonsTheFlow) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  bool completed = true;
  SimTime finished = -1;
  s.spawn(timed_transfer(net, {link}, 1000.0, /*timeout=*/5.0, &completed,
                         s, &finished));
  s.at(2.0, [&] { net.set_capacity(link, 0.0); });  // outage, never healed
  s.run();
  EXPECT_FALSE(completed);
  EXPECT_NEAR(finished, 5.0, 1e-9);
  EXPECT_EQ(net.active_flows(), 0u);  // the payload was cancelled
  EXPECT_NEAR(net.bytes_delivered(), 200.0, 1e-6);
  EXPECT_NEAR(net.bytes_cancelled(), 800.0, 1e-6);
}

// A flow that finishes on its deadline's own instant times out, even
// when the completion event fires before the timer (the timer was armed
// after the flow, and nothing re-solved since): the timer still fires
// first within the instant and finds nothing left to cancel.
TEST(FlowNetwork, TransferWithinTimesOutWhenTheFlowEndsOnTheDeadline) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 100.0);
  bool completed = true;
  SimTime finished = -1;
  s.spawn(timed_transfer(net, {link}, 250.0, /*timeout=*/2.5, &completed, s,
                         &finished));
  s.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(finished, 2.5);
  EXPECT_EQ(net.bytes_delivered(), 250.0);  // every byte arrived
  EXPECT_EQ(net.bytes_cancelled(), 0.0);
  EXPECT_EQ(s.events_executed(), 2u);  // the completion and the timer
}

// Completion callbacks run inside the completion event, once the network
// has retired the finished flows and re-solved.  Three flows on two paths
// finish at t=1; the first one's callback starts a flow and cancels
// another, the second sees the network those calls left, and the third
// starts one more.  The three still run in admission order, and each
// completion costs one event however many callbacks it runs.
TEST(FlowNetwork, CallbacksStartAndCancelFlowsReentrantlyInAdmissionOrder) {
  Simulator s;
  FlowNetwork net(s);
  const auto link = net.add_resource("link", 200.0);
  const auto aux = net.add_resource("aux", 50.0);
  const auto other = net.add_resource("other", 100.0);
  std::vector<std::pair<std::string, SimTime>> log;
  const auto logger = [&](std::string name) {
    return [&log, &s, name] { log.emplace_back(name, s.now()); };
  };
  FlowId late = kInvalidFlow;
  const FlowId victim = net.start_flow({other}, 1000.0, logger("victim"));
  net.start_flow({link}, 100.0, [&] {
    log.emplace_back("a", s.now());
    late = net.start_flow({link}, 200.0, logger("late"));
    net.cancel_flow(victim);
  });
  net.start_flow({aux}, 50.0, [&] {
    log.emplace_back("b", s.now());
    EXPECT_EQ(net.active_flows(), 1u);
    EXPECT_EQ(net.flow_rate(late), 200.0);  // alone on the link
    EXPECT_EQ(net.flow_rate(victim), 0.0);  // cancelled
  });
  net.start_flow({link}, 100.0, [&] {
    log.emplace_back("c", s.now());
    net.start_flow({link}, 100.0, logger("last"));
  });
  s.run();
  // `late` and `last` share the link from t=1: `last` is done at 2, and
  // `late` has 100 B left, alone at 200 B/s.
  const std::vector<std::pair<std::string, SimTime>> want = {
      {"a", 1.0}, {"b", 1.0}, {"c", 1.0}, {"last", 2.0}, {"late", 2.5}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(s.events_executed(), 3u);
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_EQ(net.bytes_cancelled(), 900.0);
  EXPECT_EQ(net.bytes_delivered(), 100.0 + 50.0 + 100.0 + 200.0 + 100.0 +
                                       100.0);
}

TEST(FlowNetwork, ConservationHoldsWithCancellations) {
  Simulator s;
  FlowNetwork net(s);
  Rng rng(7);
  const auto a = net.add_resource("a", 90.0);
  const auto b = net.add_resource("b", 60.0);
  Bytes injected = 0.0;
  std::vector<FlowId> ids;
  for (int i = 0; i < 30; ++i) {
    const Bytes bytes = 50.0 + rng.uniform() * 3000.0;
    injected += bytes;
    const FlowPath path = i % 2 == 0 ? FlowPath{a} : FlowPath{a, b};
    s.at(rng.uniform() * 10.0, [&net, &ids, path, bytes] {
      ids.push_back(net.start_flow(path, bytes, nullptr));
    });
  }
  // Cancel a scattering of flows mid-stream (whatever is active then).
  for (const SimTime when : {4.0, 9.0, 14.0}) {
    s.at(when, [&net, &ids] {
      for (std::size_t i = 0; i < ids.size(); i += 3) net.cancel_flow(ids[i]);
    });
  }
  s.run();
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_GT(net.bytes_cancelled(), 0.0);
  // Conservation with the cancelled term included.
  EXPECT_NEAR(net.bytes_delivered() + net.bytes_cancelled(), injected,
              1e-6 * injected);
}

// Property: total goodput through a single resource never exceeds its
// capacity, and all bytes are delivered, for random flow sets.
class FlowConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowConservationTest, AllBytesDeliveredAndMakespanBounded) {
  Rng rng(GetParam());
  Simulator s;
  FlowNetwork net(s);
  const double cap = 100.0;
  const auto link = net.add_resource("link", cap);
  std::vector<ResourceId> nics;
  for (int i = 0; i < 4; ++i) {
    nics.push_back(net.add_resource("nic" + std::to_string(i), 60.0));
  }
  double total_bytes = 0.0;
  int completed = 0;
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    const double bytes = rng.uniform(10.0, 500.0);
    total_bytes += bytes;
    const auto nic = nics[rng.uniform_index(nics.size())];
    const double start = rng.uniform(0.0, 5.0);
    s.at(start, [&net, nic, link, bytes, &completed] {
      net.start_flow({nic, link}, bytes, [&completed] { ++completed; });
    });
  }
  s.run();
  EXPECT_EQ(completed, n);
  EXPECT_NEAR(net.bytes_delivered(), total_bytes, 1e-5);
  // The shared link is the binding constraint: makespan >= bytes/cap.
  EXPECT_GE(s.now() + 1e-9, total_bytes / cap);
  // And it cannot be worse than fully serialized through the slowest NIC.
  EXPECT_LE(s.now(), 5.0 + total_bytes / 60.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FlowConservationTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: with k parallel servers, aggregate completion time of evenly
// spread flows improves ~k× over a single server.
class StripingSpeedupTest : public ::testing::TestWithParam<int> {};

TEST_P(StripingSpeedupTest, ParallelServersScaleThroughput) {
  const int k = GetParam();
  Simulator s;
  FlowNetwork net(s);
  std::vector<ResourceId> servers;
  for (int i = 0; i < k; ++i) {
    servers.push_back(net.add_resource("srv" + std::to_string(i), 100.0));
  }
  const double total = 12000.0;
  for (int i = 0; i < k; ++i) {
    net.start_flow({servers[static_cast<std::size_t>(i)]}, total / k, nullptr);
  }
  s.run();
  EXPECT_NEAR(s.now(), total / (100.0 * k), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, StripingSpeedupTest,
                         ::testing::Values(1, 2, 3, 4, 6));

}  // namespace
}  // namespace acic::sim
