// Tests for the query service: protocol parsing, responses, error
// handling, concurrent serving from the immutable engine, and the
// request metrics it reports.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "acic/common/error.hpp"
#include "acic/common/parallel.hpp"
#include "acic/obs/metrics.hpp"
#include "acic/service/query_service.hpp"
#include "service_fixture.hpp"

namespace acic::service {
namespace {

QueryService make_service() {
  return QueryService(synthetic_db(), synthetic_ranking());
}

TEST(ParseSize, AcceptsCommonUnits) {
  EXPECT_DOUBLE_EQ(parse_size("2048"), 2048.0);
  EXPECT_DOUBLE_EQ(parse_size("4MiB"), 4.0 * MiB);
  EXPECT_DOUBLE_EQ(parse_size("256KiB"), 256.0 * KiB);
  EXPECT_DOUBLE_EQ(parse_size("1.5GiB"), 1.5 * GiB);
  EXPECT_DOUBLE_EQ(parse_size("2gb"), 2.0 * GiB);
  EXPECT_THROW(parse_size("10parsecs"), Error);
  EXPECT_THROW(parse_size(""), Error);
}

// Regression: "-4MiB" used to flow a negative Bytes into workloads, and a
// bare unit ("MiB") escaped as an unhelpful std::stod "stod" exception.
TEST(ParseSize, RejectsNonPositiveAndNonFiniteValues) {
  EXPECT_THROW(parse_size("-4MiB"), Error);
  EXPECT_THROW(parse_size("-1"), Error);
  EXPECT_THROW(parse_size("0"), Error);
  EXPECT_THROW(parse_size("0MiB"), Error);
  EXPECT_THROW(parse_size("nan"), Error);
  EXPECT_THROW(parse_size("inf"), Error);
  EXPECT_THROW(parse_size("1e999"), Error);  // stod out_of_range
  // Finite before the unit multiply, +inf after it.
  EXPECT_THROW(parse_size("1e300TiB"), Error);
  EXPECT_THROW(parse_workload_query("predict np=1 io_procs=1 "
                                    "data=1e300TiB request=1e300TiB"),
               Error);
  const auto sim = make_service().handle(
      "simulate config=nfs.D.ebs np=1 io_procs=1 interface=POSIX "
      "iterations=1 data=1e300TiB request=1e300TiB op=write shared=no");
  EXPECT_EQ(sim.rfind("error ", 0), 0u) << sim;
}

TEST(ParseSize, ErrorsNameTheOffendingText) {
  try {
    parse_size("MiB");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("MiB"), std::string::npos)
        << e.what();
  }
  try {
    parse_size("-4MiB");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("-4MiB"), std::string::npos)
        << e.what();
  }
}

TEST(ParseCount, AcceptsPlainNonNegativeIntegers) {
  EXPECT_EQ(parse_count("top_k", "0"), 0u);
  EXPECT_EQ(parse_count("top_k", "12"), 12u);
  EXPECT_EQ(parse_count("np", "4096"), 4096u);
}

// Regression: raw std::stoul wrapped "top_k=-1" to a huge count and
// surfaced "top_k=abc" as "error stoul".
TEST(ParseCount, RejectsSignsGarbageAndOverflow) {
  EXPECT_THROW(parse_count("top_k", "-1"), Error);
  EXPECT_THROW(parse_count("top_k", "abc"), Error);
  EXPECT_THROW(parse_count("top_k", "1.5"), Error);
  EXPECT_THROW(parse_count("top_k", "+3"), Error);
  EXPECT_THROW(parse_count("top_k", ""), Error);
  EXPECT_THROW(parse_count("top_k", "99999999999999999999999999"), Error);
  // An explicit bound: the largest value passes, one more does not.
  EXPECT_EQ(parse_count("np", "2147483647", 2147483647), 2147483647u);
  EXPECT_THROW(parse_count("np", "2147483648", 2147483647), Error);
  EXPECT_THROW(parse_workload_query("predict np=2147483648"), Error);
  try {
    parse_count("top_k", "abc");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("top_k"), std::string::npos) << what;
    EXPECT_NE(what.find("abc"), std::string::npos) << what;
  }
}

TEST(ParseWorkload, FillsFieldsAndValidates) {
  const auto w = parse_workload_query(
      "recommend np=128 io_procs=64 interface=POSIX iterations=5 "
      "data=64MiB request=1MiB op=read shared=no");
  EXPECT_EQ(w.num_processes, 128);
  EXPECT_EQ(w.num_io_processes, 64);
  EXPECT_EQ(w.interface, io::IoInterface::kPosix);
  EXPECT_EQ(w.iterations, 5);
  EXPECT_DOUBLE_EQ(w.data_size, 64.0 * MiB);
  EXPECT_EQ(w.op, io::OpMix::kRead);
  EXPECT_FALSE(w.file_shared);
}

TEST(ParseWorkload, RejectsUnknownKeys) {
  EXPECT_THROW(parse_workload_query("recommend warp_factor=9"), Error);
}

TEST(QueryServiceTest, RecommendPrefersThePlantedOptimum) {
  auto svc = make_service();
  const auto resp = svc.handle(
      "recommend objective=performance top_k=3 np=64 data=128MiB "
      "request=4MiB op=write");
  EXPECT_EQ(resp.rfind("ok 3 recommendations", 0), 0u) << resp;
  // The best predicted config must be a pvfs.4 ephemeral one.
  const auto first = resp.find("pvfs.4");
  ASSERT_NE(first, std::string::npos) << resp;
  EXPECT_LT(first, resp.find('\n', resp.find('\n') + 1) + 80);
}

TEST(QueryServiceTest, PredictReturnsNumericImprovement) {
  auto svc = make_service();
  const auto resp = svc.handle(
      "predict config=pvfs.4.D.eph.4M np=64 data=128MiB op=write");
  EXPECT_EQ(resp.rfind("ok predicted_improvement=", 0), 0u) << resp;
  const double v = std::stod(resp.substr(resp.find('=') + 1));
  EXPECT_GT(v, 1.5);  // planted: ~4x better than baseline
}

TEST(QueryServiceTest, RankListsDimensions) {
  auto svc = make_service();
  const auto resp = svc.handle("rank top=3");
  EXPECT_NE(resp.find("1. Disk device"), std::string::npos) << resp;
  EXPECT_EQ(std::count(resp.begin(), resp.end(), '\n'), 4);
}

TEST(QueryServiceTest, StatsAndHelp) {
  auto svc = make_service();
  EXPECT_NE(svc.handle("stats").find("ok database="), std::string::npos);
  EXPECT_NE(svc.handle("help").find("recommend"), std::string::npos);
}

TEST(QueryServiceTest, ErrorsAreReportedNotThrown) {
  auto svc = make_service();
  EXPECT_EQ(svc.handle("frobnicate").rfind("error", 0), 0u);
  EXPECT_EQ(svc.handle("recommend objective=speed").rfind("error", 0), 0u);
  EXPECT_EQ(svc.handle("predict np=4").rfind("error", 0), 0u);
  EXPECT_EQ(svc.handle("recommend data=banana").rfind("error", 0), 0u);
}

TEST(QueryServiceTest, ReportsErrorsOnBadCounts) {
  auto svc = make_service();
  const auto bad_k = svc.handle(
      "recommend top_k=abc np=64 data=4MiB op=write");
  EXPECT_EQ(bad_k.rfind("error", 0), 0u) << bad_k;
  EXPECT_NE(bad_k.find("top_k"), std::string::npos) << bad_k;
  const auto negative = svc.handle("rank top=-1");
  EXPECT_EQ(negative.rfind("error", 0), 0u) << negative;
  EXPECT_NE(negative.find("top"), std::string::npos) << negative;
  const auto bad_np = svc.handle("predict config=pvfs.4.D.eph.4M np=-8");
  EXPECT_EQ(bad_np.rfind("error", 0), 0u) << bad_np;
}

TEST(QueryServiceTest, StatsReportsPerVerbMetrics) {
  auto svc = make_service();
  const std::vector<std::string> mixed = {
      "recommend objective=performance top_k=2 np=64 data=4MiB op=write",
      "predict config=pvfs.4.D.eph.4M np=64 data=128MiB op=write",
      "rank top=2",
      "recommend objective=cost top_k=1 np=64 data=4MiB op=read",
  };
  parallel_for(
      mixed.size(), [&](std::size_t i) { svc.handle(mixed[i]); }, 2);

  const auto snap = obs::MetricsRegistry::global().snapshot();
  for (const char* verb : {"recommend", "predict", "rank"}) {
    const auto* count =
        snap.counter(std::string("service.requests.") + verb);
    ASSERT_NE(count, nullptr) << verb;
    EXPECT_GT(*count, 0.0) << verb;
    const auto* latency =
        snap.histogram(std::string("service.latency_us.") + verb);
    ASSERT_NE(latency, nullptr) << verb;
    EXPECT_GT(latency->count, 0u) << verb;
    EXPECT_GT(latency->sum, 0.0) << verb;
  }

  const auto stats = svc.handle("stats");
  EXPECT_EQ(stats.rfind("ok database=", 0), 0u) << stats;
  EXPECT_NE(stats.find("service.requests.recommend"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("service.latency_us.recommend count="),
            std::string::npos)
      << stats;
  // Construction trained the engine and timed it.
  const auto* train = snap.histogram("service.train_latency_us");
  ASSERT_NE(train, nullptr);
  EXPECT_GE(train->count, 1u);
}

/// A stats answer up to its last plugin line: the part the metrics
/// block after it (which moves with every request) does not touch.
std::string stats_head(const std::string& stats) {
  const auto last_plugin = stats.rfind("\n  plugin ");
  if (last_plugin == std::string::npos) return stats;
  return stats.substr(0, stats.find('\n', last_plugin + 1) + 1);
}

// N reader threads hammer handle() with mixed verbs at once: every
// request must answer cleanly from the shared immutable engine, with
// exactly the answer a single thread gets for the same line (for stats,
// everything before its metrics block).  Run under the tsan preset in
// CI.
TEST(QueryServiceConcurrency, ConcurrentMixedVerbsAnswerCleanly) {
  auto svc = make_service();
  constexpr int kReaders = 8;
  constexpr int kRequestsPerReader = 24;

  const std::vector<std::string> requests = {
      "recommend objective=performance top_k=2 np=64 data=4MiB op=write",
      "predict config=pvfs.4.D.eph.4M np=64 data=128MiB op=write",
      "rank top=3 model=yes objective=cost np=32 data=16MiB op=read",
      "stats",
      "recommend objective=cost top_k=0 fs=pvfs2 chaos=spot-preempt np=128",
      "predict config=nfs.P.eph.cc1 objective=cost np=32 np=64",
      "recommend top_k=abc",
  };
  std::vector<std::string> expected;
  for (const auto& req : requests) {
    const auto resp = svc.handle(req);
    expected.push_back(req == "stats" ? stats_head(resp) : resp);
  }
  EXPECT_EQ(expected.back().rfind("error", 0), 0u) << expected.back();

  std::atomic<int> failures{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kRequestsPerReader; ++i) {
        const std::size_t k = (t + i) % requests.size();
        const auto resp = svc.handle(requests[k]);
        const auto& want = expected[k];
        if ((requests[k] == "stats" ? stats_head(resp) : resp) != want) {
          failures.fetch_add(1);
        }
      }
    });
  }

  go.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  // The hammering must be visible in the request metrics.
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto* recommends = snap.counter("service.requests.recommend");
  ASSERT_NE(recommends, nullptr);
  EXPECT_GE(*recommends, double(kReaders * kRequestsPerReader) /
                             double(requests.size()));
}

// --- Graceful degradation -----------------------------------------------

TEST(ServiceDegradation, EmptyDatabaseComesUpInFallbackMode) {
  QueryService svc(core::TrainingDatabase{}, synthetic_ranking());
  EXPECT_TRUE(svc.degraded());
  const auto stats = svc.handle("stats");
  EXPECT_NE(stats.find("mode=fallback"), std::string::npos) << stats;

  // recommend degrades to the PB-ranking prior instead of erroring.
  const auto rec = svc.handle(
      "recommend objective=performance top_k=3 np=64 data=4MiB op=write");
  EXPECT_EQ(rec.rfind("ok", 0), 0u) << rec;
  EXPECT_NE(rec.find("fallback=pb-ranking"), std::string::npos) << rec;

  // predict has no fallback semantics: a typed error naming the cause.
  const auto pred = svc.handle(
      "predict config=pvfs.4.D.eph.4M np=64 data=4MiB op=write");
  EXPECT_EQ(pred.rfind("error", 0), 0u) << pred;
  EXPECT_NE(pred.find("no trained model"), std::string::npos) << pred;

  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto* fallback = snap.counter("service.fallback_answers");
  ASSERT_NE(fallback, nullptr);
  EXPECT_GT(*fallback, 0.0);
  const auto* failures = snap.counter("service.engine_build_failures");
  ASSERT_NE(failures, nullptr);
  EXPECT_GT(*failures, 0.0);
}

TEST(ServiceDegradation, DeadlineExceededGetsTypedTimeout) {
  ServiceOptions options;
  options.deadline_us = 1e-3;  // one nanosecond: every request blows it
  QueryService svc(synthetic_db(), synthetic_ranking(), options);
  const auto resp = svc.handle("rank top=1");
  EXPECT_EQ(resp.rfind("timeout", 0), 0u) << resp;
  EXPECT_NE(resp.find("deadline"), std::string::npos) << resp;
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto* count = snap.counter("service.deadline_exceeded");
  ASSERT_NE(count, nullptr);
  EXPECT_GT(*count, 0.0);
}

// Satellite regression for the network front end: the admitted_at
// overload starts the deadline clock at frame arrival, so time spent in
// the server's dispatch queue counts.  A request that is already over
// budget when it reaches compute is refused without doing the work.
TEST(ServiceDegradation, QueueWaitCountsAgainstDeadlineViaAdmittedAt) {
  ServiceOptions options;
  options.deadline_us = 1000.0;  // 1ms budget...
  QueryService svc(synthetic_db(), synthetic_ranking(), options);
  // ...but the frame "arrived" 50ms ago: the pre-dispatch gate fires.
  const auto admitted_at =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(50);
  const auto resp = svc.handle("rank top=1", admitted_at);
  EXPECT_EQ(resp.rfind("timeout", 0), 0u) << resp;
  EXPECT_NE(resp.find("phase=queue"), std::string::npos) << resp;
  // The same request with a fresh clock is fine — proof the gate keyed
  // off admitted_at, not off anything ambient.
  const auto fresh =
      svc.handle("rank top=1", std::chrono::steady_clock::now());
  EXPECT_EQ(fresh.rfind("ok", 0), 0u) << fresh;
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto* count = snap.counter("service.deadline_exceeded");
  ASSERT_NE(count, nullptr);
  EXPECT_GT(*count, 0.0);
}

// A deliberately slow verb (a full chaos simulation, ~tens of ms) under
// a deadline generous enough to clear the queue gate: the deadline is
// re-checked *after* dispatch, the completed-but-late response is marked
// degraded, and the miss is counted.
TEST(ServiceDegradation, DeadlineBlownDuringComputeIsMarkedDegraded) {
  ServiceOptions options;
  options.deadline_us = 10'000.0;  // 10ms: compute below takes ~50ms
  QueryService svc(synthetic_db(), synthetic_ranking(), options);
  const auto before_snap = obs::MetricsRegistry::global().snapshot();
  const auto* before = before_snap.counter("service.deadline_exceeded");
  const double base = before != nullptr ? *before : 0.0;
  const auto resp = svc.handle(
      "simulate config=pvfs.4.D.eph.4M np=64 io_procs=64 data=24MiB "
      "request=1MiB op=read+write iterations=4 seed=3 failures=80 "
      "brownouts=40 stragglers=50 retry=yes timeout=5 attempts=3");
  EXPECT_EQ(resp.rfind("timeout", 0), 0u) << resp;
  EXPECT_NE(resp.find("phase=compute"), std::string::npos) << resp;
  EXPECT_NE(resp.find("degraded=yes"), std::string::npos) << resp;
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto* count = snap.counter("service.deadline_exceeded");
  ASSERT_NE(count, nullptr);
  EXPECT_GT(*count, base);
}

TEST(ServiceDegradation, SimulateVerbRunsSeededChaos) {
  auto svc = make_service();
  const auto resp = svc.handle(
      "simulate config=nfs.D.ebs np=16 io_procs=16 data=8MiB request=1MiB "
      "op=write seed=7 failures=60 brownouts=30 retry=yes timeout=5 "
      "attempts=3");
  EXPECT_EQ(resp.rfind("ok time=", 0), 0u) << resp;
  EXPECT_NE(resp.find("outcome="), std::string::npos) << resp;
  EXPECT_NE(resp.find("retries="), std::string::npos) << resp;
  // Same seed, same chaos: the simulate verb is reproducible.
  const auto again = svc.handle(
      "simulate config=nfs.D.ebs np=16 io_procs=16 data=8MiB request=1MiB "
      "op=write seed=7 failures=60 brownouts=30 retry=yes timeout=5 "
      "attempts=3");
  EXPECT_EQ(resp, again);
  // Bad knobs are typed errors, not crashes.
  const auto bad = svc.handle(
      "simulate config=nfs.D.ebs brownouts=5 brownout_fraction=2.0");
  EXPECT_EQ(bad.rfind("error", 0), 0u) << bad;
  // A rate above the per-hour ceiling is rejected before any fault of the
  // 24 h horizon is scheduled.
  const auto flood = svc.handle("simulate config=nfs.D.ebs failures=100000");
  EXPECT_EQ(flood.rfind("error", 0), 0u) << flood;
  EXPECT_NE(flood.find("invalid fault model"), std::string::npos) << flood;
}

// --- Preemption / checkpoint / spot knobs ----------------------------

TEST(ServiceDegradation, SimulateVerbRunsPreemptionChaos) {
  auto svc = make_service();
  const std::string query =
      "simulate config=pvfs.4.D.eph.4M np=16 io_procs=16 data=32MiB "
      "request=1MiB op=write iterations=4 seed=3 preemptions=240 notice=5 "
      "checkpoint_interval=15 checkpoint_bytes=8MiB spot=yes";
  const auto resp = svc.handle(query);
  EXPECT_EQ(resp.rfind("ok time=", 0), 0u) << resp;
  EXPECT_NE(resp.find("preemptions="), std::string::npos) << resp;
  EXPECT_NE(resp.find("restarts="), std::string::npos) << resp;
  EXPECT_NE(resp.find("lost_time="), std::string::npos) << resp;
  EXPECT_NE(resp.find("checkpoint_bytes="), std::string::npos) << resp;
  // Same seed, same reclamation schedule: reproducible.
  EXPECT_EQ(resp, svc.handle(query));
  // An invalid checkpoint policy is a typed error, not a crash.
  const auto bad = svc.handle(
      "simulate config=nfs.D.ebs checkpoint_interval=0 checkpoint_bytes=1MiB");
  EXPECT_EQ(bad.rfind("error", 0), 0u) << bad;
  // Each tick re-arms at now + interval, so a vanishing interval would
  // pin the worker forever: below 1 s is an error answered at once.
  const auto tiny = svc.handle(
      "simulate config=nfs.D.ebs checkpoint_interval=1e-300 "
      "checkpoint_bytes=1GiB");
  EXPECT_EQ(tiny.rfind("error", 0), 0u) << tiny;
  EXPECT_NE(tiny.find("invalid checkpoint policy"), std::string::npos)
      << tiny;
}

TEST(QueryServiceTest, RecommendAdjustsForPreemptions) {
  auto svc = make_service();
  const auto plain = svc.handle(
      "recommend objective=performance top_k=2 np=64 data=4MiB op=write");
  EXPECT_EQ(plain.rfind("ok", 0), 0u) << plain;
  EXPECT_EQ(plain.find("preemption_adjusted"), std::string::npos) << plain;
  const auto spot = svc.handle(
      "recommend objective=performance top_k=2 np=64 data=4MiB op=write "
      "chaos=spot-preempt checkpoint_bytes=1GiB checkpoint_interval=300");
  EXPECT_EQ(spot.rfind("ok", 0), 0u) << spot;
  EXPECT_NE(spot.find("preemption_adjusted=yes"), std::string::npos) << spot;
}

// --- Plugin-registry protocol surface --------------------------------

TEST(QueryServiceTest, UnknownPluginNamesAreTypedErrorsListingWhatExists) {
  auto svc = make_service();
  const auto bad_fs = svc.handle(
      "recommend objective=performance top_k=2 np=64 data=4MiB op=write "
      "fs=zfs");
  EXPECT_EQ(bad_fs.rfind("error unknown filesystem 'zfs'", 0), 0u) << bad_fs;
  EXPECT_NE(bad_fs.find("lustre, nfs, pvfs2"), std::string::npos) << bad_fs;
  const auto bad_learner = svc.handle(
      "recommend objective=performance top_k=2 np=64 data=4MiB op=write "
      "learner=perceptron");
  EXPECT_EQ(bad_learner.rfind("error unknown learner 'perceptron'", 0), 0u)
      << bad_learner;
  EXPECT_NE(bad_learner.find("cart, forest, knn, linear"), std::string::npos)
      << bad_learner;
  const auto bad_chaos = svc.handle(
      "simulate config=nfs.D.ebs np=16 data=8MiB chaos=mayhem");
  EXPECT_EQ(bad_chaos.rfind("error unknown fault-model 'mayhem'", 0), 0u)
      << bad_chaos;
}

TEST(QueryServiceTest, FsFilterRestrictsCandidates) {
  auto svc = make_service();
  const auto nfs_only = svc.handle(
      "recommend objective=performance top_k=3 np=64 data=128MiB "
      "request=4MiB op=write fs=nfs");
  EXPECT_EQ(nfs_only.rfind("ok", 0), 0u) << nfs_only;
  EXPECT_NE(nfs_only.find("fs=nfs"), std::string::npos) << nfs_only;
  EXPECT_EQ(nfs_only.find("pvfs."), std::string::npos) << nfs_only;
  // Registered but outside the default grid: a distinct, precise error.
  const auto lustre = svc.handle(
      "recommend objective=performance top_k=3 np=64 data=4MiB op=write "
      "fs=lustre");
  EXPECT_EQ(lustre.rfind("error", 0), 0u) << lustre;
  EXPECT_NE(lustre.find("not in the default grid"), std::string::npos)
      << lustre;
}

TEST(QueryServiceTest, ExplicitLearnerSelectsThatModel) {
  ServiceOptions options;
  options.learners = {"cart", "forest"};
  QueryService svc(synthetic_db(), synthetic_ranking(), options);
  const auto resp = svc.handle(
      "recommend objective=performance top_k=3 np=64 data=128MiB "
      "request=4MiB op=write learner=forest");
  EXPECT_EQ(resp.rfind("ok 3 recommendations", 0), 0u) << resp;
  EXPECT_NE(resp.find("learner=forest"), std::string::npos) << resp;
  EXPECT_NE(resp.find("pvfs.4"), std::string::npos) << resp;
  const auto pred = svc.handle(
      "predict config=pvfs.4.D.eph.4M np=64 data=128MiB op=write "
      "learner=forest");
  EXPECT_EQ(pred.rfind("ok predicted_improvement=", 0), 0u) << pred;
  EXPECT_NE(pred.find("learner=forest"), std::string::npos) << pred;
  // A registered learner this snapshot did not train is a distinct
  // error from an unknown name.
  const auto untrained = svc.handle(
      "predict config=pvfs.4.D.eph.4M np=64 data=128MiB op=write "
      "learner=knn");
  EXPECT_EQ(untrained.rfind("error learner 'knn' is not trained", 0), 0u)
      << untrained;
  EXPECT_NE(untrained.find("cart, forest"), std::string::npos) << untrained;
}

TEST(QueryServiceTest, UnknownLearnerNameFailsServiceStartup) {
  ServiceOptions options;
  options.learners = {"perceptron"};
  EXPECT_THROW(QueryService(synthetic_db(), synthetic_ranking(), options),
               Error);
}

TEST(QueryServiceTest, PluginsVerbListsEverySeedSubstrate) {
  auto svc = make_service();
  const auto resp = svc.handle("plugins");
  EXPECT_EQ(resp.rfind("ok 13 plugins registered\n", 0), 0u) << resp;
  for (const char* line :
       {"filesystem lustre", "filesystem nfs", "filesystem pvfs2",
        "learner cart", "learner forest", "learner knn", "learner linear",
        "fault-model brownouts", "fault-model lossy-az", "fault-model none",
        "fault-model outages", "fault-model spot-preempt",
        "fault-model stragglers"}) {
    EXPECT_NE(resp.find(std::string("\n  ") + line + "\n"), std::string::npos)
        << "missing " << line << " in:\n" << resp;
  }
  // Deterministic: two calls render byte-identically.
  EXPECT_EQ(resp, svc.handle("plugins"));
  // stats carries the same inventory plus the trained-learner line.
  const auto stats = svc.handle("stats");
  EXPECT_NE(stats.find("learners=cart primary=cart"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("plugin filesystem nfs"), std::string::npos) << stats;
}

TEST(ServiceDegradation, SimulateChaosPresetMatchesExplicitKnobs) {
  auto svc = make_service();
  // The outages preset is 4/h; spelling the same rate field-by-field
  // must produce the identical seeded run.
  const auto preset = svc.handle(
      "simulate config=nfs.D.ebs np=16 io_procs=16 data=8MiB request=1MiB "
      "op=write seed=7 chaos=outages");
  const auto explicit_rate = svc.handle(
      "simulate config=nfs.D.ebs np=16 io_procs=16 data=8MiB request=1MiB "
      "op=write seed=7 failures=4");
  EXPECT_EQ(preset.rfind("ok time=", 0), 0u) << preset;
  EXPECT_EQ(preset, explicit_rate);
  // Field overrides still apply on top of a preset.
  const auto overridden = svc.handle(
      "simulate config=nfs.D.ebs np=16 io_procs=16 data=8MiB request=1MiB "
      "op=write seed=7 chaos=outages failures=60");
  EXPECT_EQ(overridden.rfind("ok time=", 0), 0u) << overridden;
  EXPECT_NE(overridden, preset);
}

}  // namespace
}  // namespace acic::service
