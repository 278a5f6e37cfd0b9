#include "acic/exec/executor.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "acic/common/check.hpp"
#include "acic/common/parallel.hpp"
#include "acic/obs/metrics.hpp"

namespace acic::exec {

const char* to_string(RunSource source) {
  switch (source) {
    case RunSource::kExecuted:
      return "executed";
    case RunSource::kMemo:
      return "memo";
    case RunSource::kStore:
      return "store";
    case RunSource::kCoalesced:
      return "coalesced";
    case RunSource::kDeduped:
      return "deduped";
    case RunSource::kUncacheable:
      return "uncacheable";
  }
  return "unknown";
}

Executor::Executor(ExecutorOptions options) : options_(std::move(options)) {
  auto& registry = obs::MetricsRegistry::global();
  cache_hits_ = &registry.counter("exec.cache_hits");
  memo_hits_ = &registry.counter("exec.memo_hits");
  store_hits_ = &registry.counter("exec.store_hits");
  misses_ = &registry.counter("exec.cache_misses");
  runs_executed_ = &registry.counter("exec.runs_executed");
  coalesced_waits_ = &registry.counter("exec.coalesced_waits");
  dedup_collapsed_ = &registry.counter("exec.dedup_collapsed");
  uncacheable_ = &registry.counter("exec.uncacheable_runs");
  memo_entries_ = &registry.gauge("exec.memo_entries");
  memo_bytes_ = &registry.gauge("exec.memo_bytes");
  store_bytes_ = &registry.gauge("exec.store_bytes");
  store_degraded_ = &registry.gauge("exec.store.degraded");
  if (!options_.run_fn) {
    options_.run_fn = [](const RunRequest& r) {
      return io::run_workload(r.workload, r.config, r.options);
    };
  }
  if (options_.cache && !options_.store_dir.empty()) {
    // No other thread can see a half-constructed executor, but the
    // degrade helper's lock contract is unconditional — take the
    // (uncontended) lock rather than carve out a constructor exception.
    MutexLock lock(&mutex_);
    try {
      store_ = std::make_shared<RunStore>(options_.store_dir);
      store_bytes_->set(static_cast<double>(store_->bytes_on_disk()));
    } catch (const std::exception& e) {
      degrade_store_locked(e.what());
    }
  }
}

Executor& Executor::global() {
  static Executor* instance = [] {
    ExecutorOptions options;
    if (const char* dir = std::getenv("ACIC_CACHE_DIR"); dir && *dir) {
      options.store_dir = dir;
    }
    return new Executor(std::move(options));
  }();
  return *instance;
}

void Executor::arm_store(const std::string& dir) {
  MutexLock lock(&mutex_);
  if (!options_.cache || store_ || dir.empty()) return;
  try {
    // options_ stays untouched: it is immutable after construction so
    // run() may read it without the lock.  The armed directory is
    // recorded on the store itself (store_->dir()).
    store_ = std::make_shared<RunStore>(dir);
    store_bytes_->set(static_cast<double>(store_->bytes_on_disk()));
  } catch (const std::exception& e) {
    degrade_store_locked(e.what());
  }
}

void Executor::degrade_store_locked(const char* why) {
  // Graceful degradation: a store that cannot be opened or written
  // (read-only cache dir, ENOSPC, yanked directory) must cost us the
  // persistent tier, not the run — the memo tier keeps serving and
  // every simulation still completes.  Dropping our reference does not
  // destroy the store while peer threads hold a pinned shared_ptr and
  // are still inside put()/lookup(); the last pin frees it.
  store_.reset();
  degraded_ = true;
  store_degraded_->set(1.0);
  if (!store_degradation_warned_.exchange(true)) {
    std::fprintf(stderr,
                 "acic: run store degraded to memo-only (%s); results from "
                 "this process will not persist\n",
                 why);
  }
}

bool Executor::has_store() const {
  MutexLock lock(&mutex_);
  return store_ != nullptr;
}

bool Executor::store_degraded() const {
  MutexLock lock(&mutex_);
  return degraded_;
}

std::size_t Executor::memo_size() const {
  MutexLock lock(&mutex_);
  return memo_.size();
}

io::RunResult Executor::execute(const RunRequest& request) {
  runs_executed_->inc();
  return options_.run_fn(request);
}

const io::RunResult* Executor::memo_probe_locked(const RunKey& key,
                                                 RunInfo* info) {
  const auto it = memo_.find(key);
  if (it == memo_.end()) return nullptr;
  cache_hits_->inc();
  memo_hits_->inc();
  if (info) info->source = RunSource::kMemo;
  return &it->second;
}

void Executor::join_or_claim_locked(const RunKey& key,
                                    std::shared_ptr<InFlight>& wait_on,
                                    std::shared_ptr<InFlight>& owned) {
  if (const auto it = inflight_.find(key); it != inflight_.end()) {
    wait_on = it->second;
  } else {
    owned = std::make_shared<InFlight>();
    owned->future = owned->promise.get_future().share();
    inflight_.emplace(key, owned);
  }
}

void Executor::note_memo_footprint_locked() {
  // Approximate: the memo holds flat structs, so entries * entry size is
  // within a small factor of the truth (hash-table overhead excluded).
  memo_entries_->set(static_cast<double>(memo_.size()));
  memo_bytes_->set(static_cast<double>(
      memo_.size() * (sizeof(RunKey) + sizeof(io::RunResult))));
}

io::RunResult Executor::run(const RunRequest& request, RunInfo* info) {
  // Reject what the simulator rejects before any cache tier can answer
  // it, with the simulator's texts: RunKey hashes a disabled retry
  // policy's fields not at all, so a warm cache would otherwise answer a
  // request that fails cold.
  ACIC_CHECK_MSG(request.options.fault_model.valid(), "invalid fault model");
  ACIC_CHECK_MSG(request.options.checkpoint.valid(),
                 "invalid checkpoint policy");
  ACIC_CHECK_MSG(request.options.tuning.retry.valid(), "invalid retry policy");

  // A traced run's value is the trace itself; answering it from cache
  // would silently skip the tap.  Cache-disabled executors pass through.
  if (!options_.cache || request.options.tracer != nullptr) {
    if (info) info->source = RunSource::kUncacheable;
    uncacheable_->inc();
    return options_.run_fn(request);
  }

  const RunKey key = run_key(request.workload, request.config,
                             request.options);
  if (info) info->key = key;

  std::shared_ptr<InFlight> wait_on;
  std::shared_ptr<InFlight> owned;
  std::shared_ptr<RunStore> store;
  {
    MutexLock lock(&mutex_);
    if (const auto* hit = memo_probe_locked(key, info)) return *hit;
    // Pin the store by value: a concurrent degradation drops store_,
    // and this reference is what keeps the object alive while we probe.
    store = store_;
    if (!store) join_or_claim_locked(key, wait_on, owned);
  }

  if (store) {
    // Probe the persistent tier outside mutex_: lookup() takes a
    // blocking shared flock and may replay the whole file, so holding
    // the executor lock here would stall every thread — including pure
    // memo hits — behind another process's compaction.  lookup() never
    // throws by contract (replay of other writers' rows is best-effort),
    // so the probe cannot degrade the store.
    const auto hit = store->lookup(key);
    MutexLock lock(&mutex_);
    // Re-check the memo: another thread may have installed the result
    // while we were probing without the lock.
    if (const auto* memo_hit = memo_probe_locked(key, info)) return *memo_hit;
    if (hit) {
      memo_.emplace(key, *hit);
      note_memo_footprint_locked();
      cache_hits_->inc();
      store_hits_->inc();
      if (info) info->source = RunSource::kStore;
      return *hit;
    }
    join_or_claim_locked(key, wait_on, owned);
  }

  if (wait_on) {
    // Someone else is already simulating this key: share their result
    // (or their exception) instead of burning a second simulation.
    coalesced_waits_->inc();
    if (info) info->source = RunSource::kCoalesced;
    return wait_on->future.get();
  }

  misses_->inc();
  io::RunResult result;
  try {
    result = execute(request);
  } catch (...) {
    {
      MutexLock lock(&mutex_);
      inflight_.erase(key);
    }
    owned->promise.set_exception(std::current_exception());
    throw;
  }

  {
    MutexLock lock(&mutex_);
    // Failed runs are cached *as failures*: the full result including
    // its RunOutcome grade goes in, so a warm hit can never pass a
    // meaningless timing off as a measurement.
    memo_.emplace(key, result);
    inflight_.erase(key);
    note_memo_footprint_locked();
    // Re-pin under the lock: arm_store may have armed the tier since
    // the probe, and a peer's degradation may have dropped it.  The
    // shared_ptr keeps the store alive through the put even if a peer
    // degrades (store_.reset()) while we are inside it.
    store = store_;
  }
  if (store) {
    try {
      store->put(key, result);
      store_bytes_->set(static_cast<double>(store->bytes_on_disk()));
    } catch (const std::exception& e) {
      // The result is already acknowledged in the memo tier; losing the
      // persistent copy demotes the store, never the caller's run.
      MutexLock lock(&mutex_);
      if (store_ == store) degrade_store_locked(e.what());
    }
  }
  owned->promise.set_value(result);
  if (info) info->source = RunSource::kExecuted;
  return result;
}

std::vector<io::RunResult> Executor::run_batch(
    std::span<const RunRequest> requests, std::vector<RunInfo>* infos) {
  return run_batch(requests, options_.threads, infos);
}

std::vector<io::RunResult> Executor::run_batch(
    std::span<const RunRequest> requests, unsigned threads,
    std::vector<RunInfo>* infos) {
  std::vector<io::RunResult> results(requests.size());
  std::vector<RunInfo> local_infos(requests.size());

  // Collapse duplicate keys before dispatch: the first index holding a
  // key becomes its representative; the rest share its result below.
  // Traced / cache-disabled requests are never collapsed (each tap must
  // actually run).
  std::vector<std::size_t> unique;
  unique.reserve(requests.size());
  std::unordered_map<RunKey, std::size_t, RunKeyHash> representative;
  std::vector<std::size_t> duplicate_of(requests.size(), SIZE_MAX);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!options_.cache || requests[i].options.tracer != nullptr) {
      unique.push_back(i);
      continue;
    }
    const RunKey key = run_key(requests[i].workload, requests[i].config,
                               requests[i].options);
    local_infos[i].key = key;
    const auto [it, inserted] = representative.emplace(key, i);
    if (inserted) {
      unique.push_back(i);
    } else {
      duplicate_of[i] = it->second;
    }
  }
  const std::size_t collapsed = requests.size() - unique.size();
  if (collapsed > 0) dedup_collapsed_->add(static_cast<double>(collapsed));

  parallel_for(
      unique.size(),
      [&](std::size_t j) {
        const std::size_t i = unique[j];
        results[i] = run(requests[i], &local_infos[i]);
      },
      threads);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (duplicate_of[i] == SIZE_MAX) continue;
    results[i] = results[duplicate_of[i]];
    local_infos[i].source = RunSource::kDeduped;
  }
  if (infos) *infos = std::move(local_infos);
  return results;
}

}  // namespace acic::exec
