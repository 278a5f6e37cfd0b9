// One iteration of one end-to-end benchmark workload, in a fresh process.
//
//   acic_perfbench <sweep|chaos|serve> --seed N [--verify] [--smoke]
//                  [--setup-only] [--serve-seconds S]
//                  [--trace-out PATH]
//
// perfbench/run.py spawns this binary once per iteration, repeats it for
// the measured time and reduces the samples to metrics.  A fresh process
// per iteration is what keeps iterations independent: PB screening runs
// through the process-wide exec::Executor, whose memo would otherwise
// answer the second iteration's screening from cache.
//
// The harness drives and times the library strictly from outside, through
// seams that already exist:
//   * exec::ExecutorOptions::run_fn wraps every io::run_workload of the
//     sweep's training runs, the chaos batch and the serve database sweep;
//   * the net::Handler closure times QueryService::handle, and the queue
//     wait from net::Request::received_at;
//   * deltas of acic::obs counters count work, cache hits and faults.
// With --trace-out it also keeps spans (name, layer, start, end, cause) in
// per-thread memory and writes them as one Chrome trace-event file when
// the iteration ends; run.py reads the same file back.
//
// The last line of stdout is one JSON object holding the raw samples;
// progress and errors go to stderr.  Exit status 0 means the iteration
// ran; whether its outputs are correct is judged by run.py.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "acic/apps/apps.hpp"
#include "acic/common/mutex.hpp"
#include "acic/common/rng.hpp"
#include "acic/core/paramspace.hpp"
#include "acic/core/predictor.hpp"
#include "acic/core/ranking.hpp"
#include "acic/core/training.hpp"
#include "acic/exec/executor.hpp"
#include "acic/io/runner.hpp"
#include "acic/net/client.hpp"
#include "acic/net/server.hpp"
#include "acic/obs/metrics.hpp"
#include "acic/plugin/substrates.hpp"
#include "acic/service/query_service.hpp"

namespace {

using namespace acic;

std::int64_t to_ns(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// steady_clock is CLOCK_MONOTONIC on Linux, so these timestamps compare
// directly with run.py's time.monotonic_ns() taken before the spawn.
std::int64_t now_ns() { return to_ns(std::chrono::steady_clock::now()); }

// ---------------------------------------------------------------------
// In-memory recording: spans, simulated runs, requests
// ---------------------------------------------------------------------

struct Span {
  const char* name = "";
  const char* layer = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< the span that caused this one (0 = root)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string arg;
};

/// One io::run_workload call as seen through ExecutorOptions::run_fn.
struct RunRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string fs;   ///< filesystem of the config ("nfs", "pvfs2", ...)
  std::string tag;  ///< chaos preset name; empty elsewhere
  io::RunResult result;
};

/// One request as the serve client saw it.
struct RequestRecord {
  int mix_index = 0;
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
  std::size_t bytes = 0;
  bool ok = false;
  /// Which trace slice the request was sent in (see kTraceSliceNs).
  std::int64_t slice = 0;
};

/// One QueryService::handle call as the net::Handler saw it.  The verb
/// and line length match it to the client request it answers.
struct HandleRecord {
  int verb = 0;
  std::size_t line_bytes = 0;
  std::int64_t received_ns = 0;
  std::int64_t entry_ns = 0;
  std::int64_t exit_ns = 0;
};

/// One call of the speed probe: when it started and how long it took.
struct ProbeRecord {
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

struct ThreadLog {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
  std::vector<RunRecord> runs;
  std::vector<RequestRecord> requests;
  std::vector<HandleRecord> handles;
  std::vector<ProbeRecord> probes;
};

/// Per-thread logs: appends never lock; only a thread's first record
/// registers its log.  Logs outlive their threads and are read after
/// every worker has been joined.
class Recorder {
 public:
  ThreadLog& local() {
    thread_local ThreadLog* log = nullptr;
    if (log == nullptr) {
      MutexLock lock(&mutex_);
      logs_.push_back(std::make_unique<ThreadLog>());
      log = logs_.back().get();
      log->tid = static_cast<std::uint32_t>(logs_.size());
    }
    return *log;
  }

  template <class Fn>
  void for_each(Fn&& fn) {
    MutexLock lock(&mutex_);
    for (const auto& log : logs_) fn(*log);
  }

  std::uint64_t next_span_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  Mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_ ACIC_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> next_id_{1};
};

Recorder g_recorder;
bool g_tracing = false;

// ---------------------------------------------------------------------
// Speed probe
// ---------------------------------------------------------------------
//
// A shared host changes how fast one core runs by a quarter and more
// over minutes, as other tenants come and go.  To tell that apart from a
// change in the program, the harness runs a fixed kernel of its own on
// the core the measured work runs on and records when each call started
// and how long it took, in thread CPU time.  run.py scales the time
// around each call by the kernel's reference time over its time there
// (metrics.speed_warp).  The kernel is the benchmark's own code, so a
// change to the program does not move it.  It mimics the simulator's
// inner loop: pops and pushes on a binary heap of (time, id) pairs, a
// table update and a division, on 40 KiB of fresh state.
//
// Single-threaded phases (all simulation) pin themselves and a probe
// thread to one CPU (ProbeThread); serve's client threads call the
// kernel between requests instead.

double probe_kernel() {
  constexpr std::uint32_t kHeap = 512;
  constexpr std::uint64_t kTable = 4096;
  constexpr int kSteps = 8000;
  // Fresh state on every call, so a call right after a simulated run
  // and one in a burst start alike.
  std::vector<std::pair<double, std::uint32_t>> heap;
  heap.reserve(kHeap);
  for (std::uint32_t i = 0; i < kHeap; ++i) heap.emplace_back(i, i);
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  std::vector<double> table(kTable, 0.0);
  std::uint64_t x = 88172645463325252ULL;
  double acc = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const double t = heap.back().first;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    double& v = table[x % kTable];
    v += t * 1e-9;
    acc += v / (1.0 + t);
    heap.back().first = t + static_cast<double>(x % 1000) * 1e-3;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  return acc;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Runs the kernel `times` times on this thread and logs each call.
void speed_probe(int times = 1) {
  auto& log = g_recorder.local();
  for (int i = 0; i < times; ++i) {
    const std::int64_t start = now_ns();
    const std::int64_t cpu = thread_cpu_ns();
    volatile double sink = probe_kernel();  // keeps the kernel's work
    static_cast<void>(sink);
    log.probes.push_back({start, thread_cpu_ns() - cpu});
  }
}

/// Probe calls of a set-up-only process, back to back.
constexpr int kProbeBurst = 16;

/// While alive: the calling thread, and every thread it starts, runs on
/// the one CPU it was on, and a probe thread on that CPU calls the
/// kernel every 100 ms.  A woken probe preempts the work for one call
/// (~0.6 ms), so the work runs ~0.6 % longer; the kernel's CPU time is
/// the core's speed at that moment, whatever the work was doing.
class ProbeThread {
 public:
  ProbeThread() {
    sched_getaffinity(0, sizeof(saved_), &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(std::max(sched_getcpu(), 0), &one);
    sched_setaffinity(0, sizeof(one), &one);  // this thread; inherited
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_) {
        lock.unlock();
        speed_probe();
        lock.lock();
        wake_.wait_for(lock, std::chrono::milliseconds(100),
                       [this] { return stop_; });
      }
    });
  }
  ProbeThread(const ProbeThread&) = delete;
  ProbeThread& operator=(const ProbeThread&) = delete;
  ~ProbeThread() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
    sched_setaffinity(0, sizeof(saved_), &saved_);
  }

 private:
  cpu_set_t saved_{};
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;
};
/// The phase span simulated runs are attributed to (their cause).
std::atomic<std::uint64_t> g_phase_span{0};

/// A span around a call into one layer; records only when tracing.  Its
/// id exists from the start so the work it causes can name it.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, std::uint64_t parent,
             std::string arg = {})
      : start_ns_(now_ns()) {
    if (!g_tracing) return;
    span_.name = name;
    span_.layer = layer;
    span_.id = g_recorder.next_span_id();
    span_.parent = parent;
    span_.arg = std::move(arg);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { finish(); }

  /// Ends the span now (once); returns its duration in nanoseconds.
  std::int64_t finish() {
    const std::int64_t end = now_ns();
    if (g_tracing && !finished_) {
      span_.start_ns = start_ns_;
      span_.end_ns = end;
      g_recorder.local().spans.push_back(std::move(span_));
    }
    finished_ = true;
    return end - start_ns_;
  }

  std::uint64_t id() const { return span_.id; }
  std::int64_t start() const { return start_ns_; }

 private:
  std::int64_t start_ns_;
  Span span_;
  bool finished_ = false;
};

void record_span(const char* name, const char* layer, std::uint64_t parent,
                 std::int64_t start_ns, std::int64_t end_ns,
                 std::string arg = {}) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.id = g_recorder.next_span_id();
  s.parent = parent;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.arg = std::move(arg);
  g_recorder.local().spans.push_back(std::move(s));
}

/// [start, end] of a timed piece of work, in steady-clock ns.  The
/// harness reports absolute times, never durations: run.py maps every
/// timestamp to the reference speed and then takes differences.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Ends `span` and returns the interval it covered.
Interval finish(ScopedSpan& span) {
  const std::int64_t start = span.start();
  return {start, start + span.finish()};
}

/// Names the group a run belongs to (the chaos preset); may be empty.
using RunTagger = std::function<std::string(const exec::RunRequest&)>;

/// A fresh, store-less executor whose every simulation is timed.  The
/// run span's cause is the phase span current when the run started.
std::unique_ptr<exec::Executor> timed_executor(unsigned threads,
                                               RunTagger tag_of = nullptr) {
  exec::ExecutorOptions options;
  options.threads = threads;
  options.run_fn = [tag_of](const exec::RunRequest& r) {
    RunRecord rec;
    rec.start_ns = now_ns();
    rec.result = io::run_workload(r.workload, r.config, r.options);
    rec.end_ns = now_ns();
    rec.fs = plugin::filesystem_for(r.config.fs).name;
    if (tag_of) rec.tag = tag_of(r);
    if (g_tracing) {
      record_span("io.run_workload", "io", g_phase_span.load(), rec.start_ns,
                  rec.end_ns, rec.fs);
    }
    auto result = rec.result;
    g_recorder.local().runs.push_back(std::move(rec));
    return result;
  };
  return std::make_unique<exec::Executor>(std::move(options));
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

class Json {
 public:
  Json& key(const std::string& k) {
    comma();
    os_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    comma();
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      os_ << buf;
    } else {
      os_ << "null";
    }
    return *this;
  }
  Json& integer(std::int64_t v) {
    comma();
    os_ << v;
    return *this;
  }
  Json& str(const std::string& s) {
    comma();
    os_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        os_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        os_ << ' ';
      } else {
        os_ << c;
      }
    }
    os_ << '"';
    return *this;
  }
  Json& boolean(bool b) {
    comma();
    os_ << (b ? "true" : "false");
    return *this;
  }
  Json& open(char bracket) {
    comma();
    os_ << bracket;
    fresh_ = true;
    return *this;
  }
  Json& close(char bracket) {
    os_ << bracket;
    fresh_ = false;
    return *this;
  }
  std::string text() const { return os_.str(); }

 private:
  void comma() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Simulation threads.  One: on a shared host every extra thread adds
  /// the scheduler and the neighbours' load to what is measured.
  unsigned threads = 1;
  bool verify = false;
  bool smoke = false;
  bool setup_only = false;
  double serve_seconds = 3.0;
  std::string trace_out;
};

/// The obs counters the benchmark reads as deltas over a phase.
const std::vector<std::string>& watched_counters() {
  static const std::vector<std::string> kNames = {
      "exec.runs_executed",   "exec.cache_hits",  "exec.store_hits",
      "sim.events",           "cloud.faults.injected", "io.retries",
      "io.timeouts",          "io.preempt.restarts",   "io.checkpoint.writes",
      "io.runs_degraded",     "io.runs_failed",   "net.queue_shed",
      "net.backpressure_pauses", "service.errors"};
  return kNames;
}

std::map<std::string, double> read_counters() {
  auto& registry = obs::MetricsRegistry::global();
  std::map<std::string, double> out;
  for (const auto& name : watched_counters()) {
    out[name] = registry.counter(name).value();
  }
  return out;
}

void write_counter_deltas(Json& j, const char* key,
                          const std::map<std::string, double>& before,
                          const std::map<std::string, double>& after) {
  j.key(key).open('{');
  for (const auto& [name, value] : after) {
    j.key(name).num(value - before.at(name));
  }
  j.close('}');
}

/// Peak RSS so far.  Read right after the measured work, before any
/// output is built: the serve request log serialises to megabytes.
/// VmHWM, not getrusage's ru_maxrss: Linux carries the high-water mark
/// of the address space replaced by exec into ru_maxrss, so a process
/// spawned by run.py would report run.py's own size.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw Error("no VmHWM in /proc/self/status");
}

void write_runs(Json& j) {
  j.key("runs").open('[');
  g_recorder.for_each([&](const ThreadLog& log) {
    for (const auto& r : log.runs) {
      j.open('[')
          .integer(r.start_ns)
          .integer(r.end_ns)
          .integer(log.tid)
          .str(r.fs)
          .str(r.tag)
          .integer(static_cast<std::int64_t>(r.result.sim_events))
          .integer(static_cast<std::int64_t>(r.result.fs_requests))
          .num(r.result.fs_bytes)
          .num(r.result.total_time)
          .str(io::to_string(r.result.outcome))
          .close(']');
    }
  });
  j.close(']');
}

void write_interval(Json& j, const char* key, Interval at) {
  j.key(key).open('[').integer(at.start).integer(at.end).close(']');
}

void write_intervals(Json& j, const char* key, const std::vector<Interval>& v) {
  j.key(key).open('[');
  for (const auto& at : v) {
    j.open('[').integer(at.start).integer(at.end).close(']');
  }
  j.close(']');
}

void write_probes(Json& j) {
  j.key("probes").open('[');
  g_recorder.for_each([&](const ThreadLog& log) {
    for (const auto& p : log.probes) {
      j.open('[').integer(p.start_ns).integer(p.dur_ns).close(']');
    }
  });
  j.close(']');
}

/// One complete ("X") Chrome trace event; times in microseconds.
void trace_event(Json& j, const char* name, const char* cat,
                 std::uint32_t tid, std::int64_t start_ns, std::int64_t end_ns,
                 std::uint64_t id, std::uint64_t parent,
                 const std::string& arg) {
  j.open('{')
      .key("name").str(name)
      .key("cat").str(cat)
      .key("ph").str("X")
      .key("pid").integer(1)
      .key("tid").integer(tid)
      .key("ts").num(static_cast<double>(start_ns) / 1e3)
      .key("dur").num(static_cast<double>(end_ns - start_ns) / 1e3)
      .key("args").open('{')
      .key("id").integer(static_cast<std::int64_t>(id))
      .key("parent").integer(static_cast<std::int64_t>(parent))
      .key("arg").str(arg)
      .close('}')
      .close('}');
}

/// Writes the recorded spans as a Chrome trace-event file (open it in
/// chrome://tracing or ui.perfetto.dev).  Serve's client calls and
/// handler calls are added for the first requests only, so the file
/// stays small enough to view.
void write_trace(const std::string& path) {
  if (path.empty()) return;
  constexpr std::size_t kMaxCalls = 5000;
  Json j;
  j.open('{').key("traceEvents").open('[');
  g_recorder.for_each([&](const ThreadLog& log) {
    for (const auto& s : log.spans) {
      trace_event(j, s.name, s.layer, log.tid, s.start_ns, s.end_ns, s.id,
                  s.parent, s.arg);
    }
    for (std::size_t i = 0; i < std::min(kMaxCalls, log.requests.size());
         ++i) {
      const auto& r = log.requests[i];
      trace_event(j, "client.call", "client", log.tid, r.send_ns, r.recv_ns,
                  0, 0, std::to_string(r.mix_index));
    }
    for (std::size_t i = 0; i < std::min(kMaxCalls, log.handles.size());
         ++i) {
      const auto& h = log.handles[i];
      trace_event(j, "net.queue_wait", "net", log.tid, h.received_ns,
                  h.entry_ns, 0, 0, {});
      trace_event(j, "service.handle", "service", log.tid, h.entry_ns,
                  h.exit_ns, 0, 0, {});
    }
  });
  j.close(']').close('}');
  std::ofstream out(path);
  out << j.text() << '\n';
  if (!out) throw Error("cannot write trace file " + path);
}

std::string app_id(const apps::AppRun& run) {
  return run.app + "-" + std::to_string(run.scale);
}

/// Baseline vs pick, run untimed on a fresh store-less executor with the
/// quickstart's verification protocol (default RunOptions).
struct PickCheck {
  std::string app;
  std::string pick;
  double pick_time = 0.0;
  double baseline_time = 0.0;
};

std::vector<PickCheck> verify_picks(
    const std::vector<apps::AppRun>& suite,
    const std::vector<cloud::IoConfig>& picks, unsigned threads) {
  exec::ExecutorOptions options;
  options.threads = threads;
  exec::Executor engine(std::move(options));
  std::vector<exec::RunRequest> requests;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    requests.push_back({suite[i].workload, picks[i], io::RunOptions{}});
    requests.push_back(
        {suite[i].workload, cloud::IoConfig::baseline(), io::RunOptions{}});
  }
  const auto results = engine.run_batch(requests);
  std::vector<PickCheck> out;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    PickCheck c;
    c.app = app_id(suite[i]);
    c.pick = picks[i].label();
    c.pick_time = results[2 * i].total_time;
    c.baseline_time = results[2 * i + 1].total_time;
    out.push_back(c);
  }
  return out;
}

void write_picks(Json& j, const std::vector<PickCheck>& picks) {
  j.key("verified").open('[');
  for (const auto& p : picks) {
    j.open('{')
        .key("app").str(p.app)
        .key("pick").str(p.pick)
        .key("pick_time").num(p.pick_time)
        .key("baseline_time").num(p.baseline_time)
        .close('}');
  }
  j.close(']');
}

/// The pipeline's training plan: a pinned prefix of the quickstart plan
/// (same dimensions, seed and sub-sampling order; fewer samples).
core::TrainingPlan pipeline_plan(const core::PbRankingResult& ranking,
                                 std::size_t samples, unsigned threads,
                                 exec::Executor* executor) {
  core::TrainingPlan plan;
  plan.dim_order = ranking.importance;
  plan.top_dims = 12;
  plan.max_samples = samples;
  plan.seed = 1;
  plan.threads = threads;
  plan.executor = executor;
  return plan;
}

// ---------------------------------------------------------------------
// sweep: PB -> training slice -> CART x2 -> recommend x9 apps
// ---------------------------------------------------------------------

void run_sweep(const Args& args, Json& j) {
  // At 84 samples the models answer the nine apps differently (three
  // performance picks, four cost picks at the reference seed); at 72 CART
  // picked one config for every app.
  const std::size_t samples = args.smoke ? 12 : 84;
  const auto suite = apps::evaluation_suite();
  auto engine = timed_executor(args.threads);
  core::PbRankingOptions pb_options;
  pb_options.seed = args.seed;
  pb_options.threads = args.threads;
  const std::int64_t ready = now_ns();
  j.key("ready_ns").integer(ready);
  if (args.setup_only) {
    speed_probe(kProbeBurst);
    return;
  }
  const auto before = read_counters();
  std::optional<ProbeThread> probe(std::in_place);

  ScopedSpan root("sweep", "bench", 0);
  core::PbRankingResult ranking;
  Interval pb_at;
  {
    ScopedSpan span("core.run_pb_ranking", "core", root.id());
    g_phase_span = span.id();
    ranking = core::run_pb_ranking(pb_options);
    pb_at = finish(span);
  }
  core::TrainingDatabase db;
  core::TrainingStats stats;
  Interval training_at;
  {
    ScopedSpan span("core.collect_training_data", "core", root.id());
    g_phase_span = span.id();
    stats = core::collect_training_data(
        db, pipeline_plan(ranking, samples, args.threads, engine.get()));
    training_at = finish(span);
  }
  std::vector<Interval> train_at;
  std::optional<core::Acic> models[2];
  const core::Objective objectives[2] = {core::Objective::kPerformance,
                                         core::Objective::kCost};
  for (int o = 0; o < 2; ++o) {
    ScopedSpan span("ml.train", "ml", root.id(),
                    core::to_string(objectives[o]));
    models[o].emplace(db, objectives[o]);
    train_at.push_back(finish(span));
  }
  std::vector<Interval> recommend_at;
  std::vector<cloud::IoConfig> picks[2];
  for (const auto& app : suite) {
    for (int o = 0; o < 2; ++o) {
      ScopedSpan span("core.recommend", "core", root.id(), app_id(app));
      const auto recs = models[o]->recommend(app.workload, 1);
      recommend_at.push_back(finish(span));
      picks[o].push_back(recs.front().config);
    }
  }
  const Interval ttr_at = finish(root);
  probe.reset();
  const auto after = read_counters();
  j.key("peak_rss_mb").num(peak_rss_mb());

  double sample_time_sum = 0.0;
  for (const auto& s : db.samples()) sample_time_sum += s.time;
  // Every PB row and every training measurement must be a fresh
  // simulation: nothing may answer from a cache.
  const auto runs = static_cast<std::int64_t>(ranking.design.size() +
                                              stats.runs);

  write_interval(j, "ttr_at", ttr_at);
  write_interval(j, "pb_at", pb_at);
  write_interval(j, "training_at", training_at);
  j.key("sim_runs").integer(runs);
  j.key("planned_runs").integer(runs);
  j.key("training_runs").integer(static_cast<std::int64_t>(stats.runs));
  j.key("samples").integer(static_cast<std::int64_t>(db.size()));
  j.key("quarantined").integer(static_cast<std::int64_t>(stats.quarantined));
  j.key("sample_time_sum").num(sample_time_sum);
  write_intervals(j, "train_at", train_at);
  write_intervals(j, "recommend_at", recommend_at);
  j.key("importance").open('[');
  for (int d : ranking.importance) j.integer(d);
  j.close(']');
  j.key("top1").open('{');
  for (std::size_t i = 0; i < suite.size(); ++i) {
    j.key(app_id(suite[i]))
        .open('[')
        .str(picks[0][i].label())
        .str(picks[1][i].label())
        .close(']');
  }
  j.close('}');
  write_counter_deltas(j, "counters", before, after);
  write_runs(j);
  if (args.verify) write_picks(j, verify_picks(suite, picks[0], args.threads));
}

// ---------------------------------------------------------------------
// chaos: fault presets x filesystems x checkpointing, one run_batch
// ---------------------------------------------------------------------

/// The evaluation apps whose runs last long enough in simulated time for
/// the presets' per-hour fault rates (1 to 6 an hour) to strike: mpiBLAST
/// (250-1130 s on the three configs) and MADbench2 (60-700 s).  BTIO and
/// FLASHIO finish in 15-70 simulated seconds, where a fault would strike
/// one run in tens, so they would only repeat the sweep's plain runs.
std::vector<apps::AppRun> chaos_jobs() {
  std::vector<apps::AppRun> jobs;
  for (auto& app : apps::evaluation_suite()) {
    if (app.app == "mpiBLAST" || app.app == "MADbench2") {
      jobs.push_back(std::move(app));
    }
  }
  return jobs;
}

std::vector<cloud::IoConfig> chaos_configs() {
  cloud::IoConfig pvfs;
  pvfs.fs = cloud::FileSystemType::kPvfs2;
  pvfs.device = storage::DeviceType::kEphemeral;
  pvfs.io_servers = 4;
  cloud::IoConfig lustre = pvfs;
  lustre.fs = cloud::FileSystemType::kLustre;
  return {cloud::IoConfig::baseline(), pvfs, lustre};
}

const std::vector<std::string>& chaos_presets() {
  static const std::vector<std::string> kPresets = {
      "outages", "brownouts", "stragglers", "lossy-az", "spot-preempt"};
  return kPresets;
}

void run_chaos(const Args& args, Json& j) {
  // Eight fault draws per preset, config and job.  The median run sits
  // where mpiBLAST-64 runs give way to mpiBLAST-128 ones, and how many
  // of each a seed's faults push past it swung the median by 15 % from
  // seed to seed with four draws; eight halve that.
  const int variants = args.smoke ? 2 : 8;
  const auto configs = chaos_configs();
  const auto jobs = chaos_jobs();
  std::vector<exec::RunRequest> requests;
  std::vector<std::string> tags;
  std::vector<std::string> job_ids;
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 0xc4a05ULL);
  for (const auto& preset : chaos_presets()) {
    const auto& model = plugin::fault_models().lookup(preset).model;
    for (const auto& config : configs) {
      for (const auto& job : jobs) {
        for (int v = 0; v < variants; ++v) {
          io::RunOptions options;
          options.seed = rng.next_u64();
          options.fault_model = model;
          options.tuning.retry.enabled = true;
          // Odd variants checkpoint; spot reclaims then restart from the
          // last dump instead of from scratch.
          if (v % 2 == 1) {
            options.checkpoint.enabled = true;
            options.checkpoint.interval = 300.0;
            options.checkpoint.bytes = 2.0 * GiB;
          }
          requests.push_back({job.workload, config, options});
          tags.push_back(preset);
          job_ids.push_back(app_id(job));
        }
      }
    }
  }
  // Run seeds are unique draws, so a run's seed names its preset.
  std::unordered_map<std::uint64_t, std::string> preset_of_seed;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    preset_of_seed.emplace(requests[i].options.seed, tags[i]);
  }
  auto engine = timed_executor(args.threads, [&](const exec::RunRequest& r) {
    return preset_of_seed.at(r.options.seed);
  });
  const std::int64_t ready = now_ns();
  j.key("ready_ns").integer(ready);
  if (args.setup_only) {
    speed_probe(kProbeBurst);
    return;
  }
  const auto before = read_counters();

  std::optional<ProbeThread> probe(std::in_place);
  ScopedSpan root("chaos", "bench", 0);
  std::vector<io::RunResult> results;
  {
    ScopedSpan span("exec.run_batch", "exec", root.id());
    g_phase_span = span.id();
    results = engine->run_batch(requests);
  }
  const Interval batch_at = finish(root);
  probe.reset();
  const auto after = read_counters();
  j.key("peak_rss_mb").num(peak_rss_mb());

  write_interval(j, "batch_at", batch_at);
  j.key("sim_runs").integer(static_cast<std::int64_t>(requests.size()));
  j.key("planned_runs").integer(static_cast<std::int64_t>(requests.size()));
  j.key("baseline_label").str(cloud::IoConfig::baseline().label());
  j.key("results").open('[');
  for (std::size_t i = 0; i < results.size(); ++i) {
    j.open('[')
        .str(tags[i])
        .str(job_ids[i])
        .str(requests[i].config.label())
        .num(results[i].total_time)
        .str(io::to_string(results[i].outcome))
        .close(']');
  }
  j.close(']');
  write_counter_deltas(j, "counters", before, after);
  write_runs(j);
}

// ---------------------------------------------------------------------
// serve: in-process net::Server over a QueryService, closed-loop client
// ---------------------------------------------------------------------

std::string yes_no(bool b) { return b ? "yes" : "no"; }

std::string size_literal(double bytes) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", bytes);
  return buf;
}

std::string workload_keys(const io::Workload& w) {
  std::ostringstream os;
  os << "np=" << w.num_processes << " io_procs=" << w.num_io_processes
     << " interface=" << io::to_string(w.interface)
     << " iterations=" << w.iterations << " data=" << size_literal(w.data_size)
     << " request=" << size_literal(w.request_size)
     << " op=" << io::to_string(w.op) << " collective=" << yes_no(w.collective)
     << " shared=" << yes_no(w.file_shared);
  return os.str();
}

struct MixEntry {
  std::string line;
  /// 0 recommend, 1 predict, 2 rank, 3 stats (run.py's SERVE_VERBS).
  int verb = 0;
};

/// MixEntry::verb of a request line, from its first two letters.
int verb_of(const std::string& line) {
  switch (line.empty() ? ' ' : line[0]) {
    case 'p':
      return 1;
    case 's':
      return 3;
    default:
      return line.size() > 1 && line[1] == 'a' ? 2 : 0;
  }
}

/// The seeded request mix.  Its shares are those of the mixed burst
/// `examples/acic_serve.cpp --demo` sends: recommend performance,
/// recommend cost, predict and rank in turn, eight times over, then one
/// stats (8/33 each, 1/33 stats); rank asks for the model section.  The
/// workload keys are drawn from the paper's Table 1 value grids.
std::vector<MixEntry> make_mix(std::uint64_t seed, std::size_t size) {
  constexpr std::size_t kBurst = 33;  // 8 x 4 request kinds, then stats
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 0x5e77eULL);
  const auto candidates = cloud::IoConfig::enumerate_candidates();
  auto pick = [&rng](const std::vector<double>& values) {
    return values[rng.uniform_index(values.size())];
  };
  auto dim = [](core::Dim d) {
    return core::ParamSpace::dimension(d).values;
  };
  std::vector<MixEntry> mix;
  while (mix.size() < size) {
    io::Workload w;
    w.num_processes = static_cast<int>(pick(dim(core::kNumProcs)));
    w.num_io_processes = static_cast<int>(pick(dim(core::kNumIoProcs)));
    w.interface = pick(dim(core::kInterface)) > 0.5 ? io::IoInterface::kMpiIo
                                                   : io::IoInterface::kPosix;
    w.iterations = static_cast<int>(pick(dim(core::kIterations)));
    w.data_size = pick(dim(core::kDataSize));
    w.request_size = pick(dim(core::kRequestSize));
    const double op = pick(dim(core::kOpType));
    w.op = op < 0.25 ? io::OpMix::kRead
                     : (op < 0.75 ? io::OpMix::kReadWrite : io::OpMix::kWrite);
    w.collective = pick(dim(core::kCollective)) > 0.5;
    w.file_shared = pick(dim(core::kFileSharing)) > 0.5;
    w.normalize();
    const std::string keys = workload_keys(w);
    const std::size_t slot = mix.size() % kBurst;
    MixEntry e;
    if (slot == kBurst - 1) {
      e = {"stats", 3};
    } else if (slot % 4 == 0) {
      e = {"recommend objective=performance top_k=3 " + keys, 0};
    } else if (slot % 4 == 1) {
      e = {"recommend objective=cost top_k=3 " + keys, 0};
    } else if (slot % 4 == 2) {
      const auto& c = candidates[rng.uniform_index(candidates.size())];
      e = {"predict config=" + c.label() + " " + keys, 1};
    } else {
      e = {std::string("rank top=5 model=yes objective=") +
               (rng.uniform() < 0.5 ? "performance " : "cost ") + keys,
           2};
    }
    mix.push_back(std::move(e));
  }
  return mix;
}

/// Top-1 config label of an "ok N recommendations ..." response.
std::string top1_label(const std::string& response) {
  const auto nl = response.find('\n');
  if (response.rfind("ok ", 0) != 0 || nl == std::string::npos) return "";
  std::istringstream is(response.substr(nl + 1));
  std::string label;
  is >> label;
  return label;
}

void run_serve(const Args& args, Json& j) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned conns = std::min(2u, hw);
  const std::size_t samples = args.smoke ? 12 : 48;
  const auto suite = apps::evaluation_suite();

  // Set-up: the database sweep and engine build behind the service.  The
  // PB ranking is the sweep workload's result at the reference seed,
  // pinned here: one screening costs 15-25 s on a 4-vCPU host, which the
  // run budget cannot pay for every set-up, and the sweep measures it.
  const std::int64_t setup_start = now_ns();
  std::optional<ProbeThread> probe(std::in_place);
  core::PbRankingResult ranking;
  ranking.importance = {10, 9, 11, 6, 7, 12, 3, 1, 13, 0, 4, 14, 2, 8, 5};
  ranking.effects.assign(ranking.importance.size(), 0.0);
  ranking.rank_of_each.resize(ranking.importance.size());
  for (std::size_t i = 0; i < ranking.importance.size(); ++i) {
    ranking.rank_of_each[static_cast<std::size_t>(ranking.importance[i])] =
        static_cast<int>(i) + 1;
  }
  core::TrainingDatabase db;
  auto engine = timed_executor(args.threads);
  core::TrainingStats stats;
  Interval training_at;
  {
    ScopedSpan span("core.collect_training_data", "core", 0);
    g_phase_span = span.id();
    stats = core::collect_training_data(
        db, pipeline_plan(ranking, samples, args.threads, engine.get()));
    training_at = finish(span);
  }
  const Interval sim_at{setup_start, now_ns()};
  std::optional<service::QueryService> built;
  Interval engine_at;
  {
    ScopedSpan span("service.build", "ml", 0);
    built.emplace(std::move(db), ranking);
    engine_at = finish(span);
  }
  service::QueryService& service = *built;
  probe.reset();  // serving runs on every CPU; its clients probe

  // 100 bursts: enough that the share of costly requests (large np,
  // many iterations) hardly differs from one seed to the next.
  const auto mix = make_mix(args.seed, 3300);
  // Room for well above the closed loop's rate: a growing log would copy
  // itself and put the benchmark's own memory into peak_rss_mb.
  // Untouched reserved pages cost no resident memory.
  const auto log_capacity =
      static_cast<std::size_t>(args.serve_seconds * 200000.0);
  // Traced iterations record handler calls in every other slice of
  // serving time only, so the untraced slices between them measure the
  // recording's overhead in the same process, pair by pair.
  constexpr std::int64_t kTraceSliceNs = 250'000'000;
  std::atomic<std::int64_t> ready{0};
  net::ServerOptions options;
  options.workers = conns;
  net::Server server(options, [&](const net::Request& req) {
    const std::int64_t entry = now_ns();
    std::string response = service.handle(req.line, req.received_at);
    if (g_tracing && (entry - ready) / kTraceSliceNs % 2 == 0) {
      HandleRecord h;
      h.verb = verb_of(req.line);
      h.line_bytes = req.line.size();
      h.received_ns = to_ns(req.received_at);
      h.entry_ns = entry;
      h.exit_ns = now_ns();
      auto& log = g_recorder.local();
      if (log.handles.capacity() == 0) log.handles.reserve(log_capacity);
      log.handles.push_back(h);
    }
    return response;
  });
  std::thread loop([&server] { server.run(); });
  ready = now_ns();
  const auto before = read_counters();

  // Closed loop: each connection sends its next request only after the
  // previous answer arrived.  Connection c walks the mix from offset c.
  const std::int64_t deadline =
      ready + static_cast<std::int64_t>(args.serve_seconds * 1e9);
  std::atomic<std::int64_t> first_recommend_ns{0};
  std::atomic<bool> client_failed{false};
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < conns; ++c) {
    clients.emplace_back([&, c] {
      net::BlockingClient client;
      if (!client.connect("127.0.0.1", server.port())) {
        client_failed = true;
        return;
      }
      auto& log = g_recorder.local();
      log.requests.reserve(log_capacity);
      // The probe runs between requests, outside their timing.
      constexpr std::size_t kProbeEvery = 1024;
      std::size_t k = c * mix.size() / conns;
      while (now_ns() < deadline) {
        const auto& entry = mix[k % mix.size()];
        RequestRecord rec;
        rec.mix_index = static_cast<int>(k % mix.size());
        rec.send_ns = now_ns();
        rec.slice = (rec.send_ns - ready) / kTraceSliceNs;
        const auto response = client.call(entry.line);
        rec.recv_ns = now_ns();
        if (!response) {
          client_failed = true;
          return;
        }
        rec.bytes = response->size();
        rec.ok = response->rfind("ok", 0) == 0;
        if (entry.verb == 0) {
          std::int64_t unset = 0;
          first_recommend_ns.compare_exchange_strong(unset, rec.recv_ns);
        }
        log.requests.push_back(rec);
        if (++k % kProbeEvery == 0) speed_probe();
      }
    });
  }
  for (auto& t : clients) t.join();
  const std::int64_t serve_done = now_ns();
  const auto after = read_counters();
  j.key("peak_rss_mb").num(peak_rss_mb());

  // Pinned subset: the evaluation apps' performance recommendations.
  std::vector<std::string> app_labels;
  {
    net::BlockingClient client;
    if (client.connect("127.0.0.1", server.port())) {
      for (const auto& app : suite) {
        const auto response = client.call(
            "recommend objective=performance top_k=1 " +
            workload_keys(app.workload));
        app_labels.push_back(response ? top1_label(*response) : "");
      }
    }
  }
  server.request_drain();
  loop.join();

  j.key("ready_ns").integer(ready);
  write_interval(j, "ttr_at", {setup_start, first_recommend_ns});
  write_interval(j, "training_at", training_at);
  write_interval(j, "engine_at", engine_at);
  write_interval(j, "sim_at", sim_at);
  j.key("sim_runs").integer(static_cast<std::int64_t>(stats.runs));
  write_interval(j, "serve_at", {ready, serve_done});
  j.key("client_failed").boolean(client_failed);
  j.key("mix").open('[');
  for (const auto& e : mix) {
    j.open('[')
        .integer(e.verb)
        .integer(static_cast<std::int64_t>(e.line.size()))
        .close(']');
  }
  j.close(']');
  j.key("requests").open('[');
  g_recorder.for_each([&](const ThreadLog& log) {
    for (const auto& r : log.requests) {
      j.open('[')
          .integer(r.mix_index)
          .integer(r.send_ns)
          .integer(r.recv_ns)
          .integer(static_cast<std::int64_t>(r.bytes))
          .boolean(r.ok)
          .integer(r.slice)
          .close(']');
    }
  });
  j.close(']');
  j.key("handles").open('[');
  g_recorder.for_each([&](const ThreadLog& log) {
    for (const auto& h : log.handles) {
      j.open('[')
          .integer(h.verb)
          .integer(static_cast<std::int64_t>(h.line_bytes))
          .integer(h.received_ns)
          .integer(h.entry_ns)
          .integer(h.exit_ns)
          .close(']');
    }
  });
  j.close(']');
  j.key("top1").open('{');
  for (std::size_t i = 0; i < suite.size(); ++i) {
    j.key(app_id(suite[i])).open('[')
        .str(i < app_labels.size() ? app_labels[i] : "")
        .close(']');
  }
  j.close('}');
  write_counter_deltas(j, "counters", before, after);
  if (args.verify) {
    std::vector<cloud::IoConfig> picks;
    const auto candidates = cloud::IoConfig::enumerate_candidates();
    for (const auto& label : app_labels) {
      const auto it = std::find_if(
          candidates.begin(), candidates.end(),
          [&](const cloud::IoConfig& c) { return c.label() == label; });
      if (it == candidates.end()) throw Error("unknown pick '" + label + "'");
      picks.push_back(*it);
    }
    write_picks(j, verify_picks(suite, picks, args.threads));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The run store must never answer a timed simulation: drop it before
  // anything can touch Executor::global() (PB screening routes through
  // the process-wide executor, which arms its store from this variable).
  unsetenv("ACIC_CACHE_DIR");
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--serve-seconds" && has_value) {
      args.serve_seconds = std::atof(argv[++i]);
    } else if (a == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (a == "--verify") {
      args.verify = true;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--setup-only") {
      args.setup_only = true;
    } else if (args.workload.empty() && a[0] != '-') {
      args.workload = a;
    } else {
      std::fprintf(stderr, "acic_perfbench: bad argument '%s'\n", a.c_str());
      return 2;
    }
  }
  g_tracing = !args.trace_out.empty();

  Json j;
  j.open('{');
  j.key("workload").str(args.workload);
  j.key("seed").integer(static_cast<std::int64_t>(args.seed));
  j.key("threads").integer(args.threads);
  try {
    if (args.workload == "sweep") {
      run_sweep(args, j);
    } else if (args.workload == "chaos") {
      run_chaos(args, j);
    } else if (args.workload == "serve") {
      run_serve(args, j);
    } else {
      std::fprintf(stderr, "acic_perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    write_probes(j);
    write_trace(args.trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acic_perfbench: %s\n", e.what());
    return 1;
  }
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}
