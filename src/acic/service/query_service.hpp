// Configuration query service — the paper's §8 future work ("web-based
// ACIC query service") realised as a transport-agnostic request/response
// engine: a line-oriented text protocol any front end (CLI, web gateway,
// batch script) can speak.
//
// Protocol (one request per line, key=value pairs, order-free):
//
//   recommend objective=performance top_k=3 np=256 io_procs=256
//             interface=MPI-IO iterations=40 data=4MiB request=4MiB
//             op=write collective=yes shared=yes
//   predict   config=pvfs.4.D.eph <same workload keys>
//   rank      [top=N] [model=yes objective=... <workload keys>]
//                                         — PB dimension ranking; model=yes
//                                           appends the trained model's
//                                           workload-specific dimension
//                                           spreads (one batch prediction)
//   simulate  config=<label> <workload keys> [seed= failures= brownouts=
//             brownout_fraction= stragglers= straggler_factor= correlated=
//             permanent= retry= timeout= attempts= watchdog=]
//                                         — one chaos run, reproducible
//   stats                                 — database + request metrics
//   plugins                               — substrate inventory, one
//                                           "<kind> <name>" line each
//   help
//
// recommend/predict additionally accept learner=<name> (any registered
// learner plugin the service trained) and recommend accepts
// fs=<name> to restrict candidates to one registered filesystem;
// simulate accepts chaos=<preset> (a registered fault-model plugin,
// overridable field by field).  Unknown names answer with a typed
// error listing what is registered.
//
// Responses are "ok ..." / "error ..." lines followed by indented detail
// rows, so they stay greppable and machine-parseable.  A request that
// misses its deadline is answered "timeout ..." instead — clients can
// branch on the first token alone.  (Overload shedding is the front
// end's job: acic::net answers "shed ..." when its work queue is full.)
//
// Concurrency model: the service is immutable after construction.  The
// constructor builds the one `Engine` (training database + ranking + a
// trained model pair per learner) before any request can arrive, so
// `handle()` reads it from any number of threads without a lock and the
// hot path never trains.  A new training database means a new service.
// What no request changes is built once — the candidate grid and its
// labels, label index and encoded columns (core::CandidateGrid), and
// the PB fallback ranking — so a request pays for one tokenization
// (RequestPairs), one batch prediction and one answer string.
// Every request is counted and timed into the process-wide `acic::obs`
// registry under `service.requests.<verb>` / `service.latency_us.<verb>`.
#pragma once

#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "acic/core/predictor.hpp"
#include "acic/core/ranking.hpp"
#include "acic/core/training.hpp"
#include "acic/obs/metrics.hpp"

namespace acic::service {

/// Parse a size literal: "4MiB", "256KiB", "1.5GiB", "2048" (bytes).
/// The value must be a positive, finite number; anything else (including
/// "-4MiB", "nan", or a bare unit) throws acic::Error naming the input.
Bytes parse_size(std::string_view text);

/// Parse a non-negative, finite number (failures=…, timeout=…, and the
/// examples' rate and deadline flags).  Trailing junk ("4junk"),
/// negative values, nan and inf throw acic::Error naming the key and text.
double parse_nonneg_double(std::string_view key, std::string_view text);

/// Parse a non-negative integer protocol field (top_k=…, np=…).  Signs,
/// non-digit characters, and values above `max` throw acic::Error with
/// the offending key and text (std::stoul would happily wrap "-1").
std::size_t parse_count(
    std::string_view key, std::string_view text,
    std::size_t max = std::numeric_limits<std::size_t>::max());

/// The key=value tokens of one protocol line, after its verb, tokenized
/// once: tokens are separated by the characters `std::istream >>`
/// skips (space, \t, \n, \v, \f, \r), split at their first '=', and
/// kept as views into the line, which must outlive them.  Iteration is
/// in key order and a repeated key keeps its last value — a
/// std::map<std::string, std::string> filled token by token, without
/// the copies.  A token with no '=' or an empty key throws, naming the
/// first such token in line order.
class RequestPairs {
 public:
  using Pair = std::pair<std::string_view, std::string_view>;
  using const_iterator = std::vector<Pair>::const_iterator;

  explicit RequestPairs(std::string_view line);

  const_iterator begin() const { return pairs_.begin(); }
  const_iterator end() const { return pairs_.end(); }
  /// The pair with this key, or end().
  const_iterator find(std::string_view key) const;

 private:
  std::vector<Pair> pairs_;
};

/// Parse one protocol line into a workload description.  Unknown keys
/// throw; missing keys keep the defaults below.
io::Workload parse_workload_query(std::string_view line);
/// The same, from a line already tokenized.
io::Workload parse_workload_query(const RequestPairs& kv);

/// Service settings, fixed for the service's lifetime.
struct ServiceOptions {
  /// Per-request compute deadline in microseconds; a request that blows
  /// it gets a typed "timeout ..." response (0 = none).
  double deadline_us = 0.0;
  /// Registered learner plugins to train; the first entry is the
  /// primary (answers requests without a learner= key).
  /// Every name is validated against the plugin registry at
  /// construction, so a typo fails service startup with a typed error
  /// instead of surfacing per-request.
  std::vector<std::string> learners = {"cart"};
};

class QueryService {
 public:
  /// Builds the engine: trains one model per objective and learner
  /// before returning, so `handle()` never observes a half-trained
  /// model.  If training is impossible (e.g. an empty database), the
  /// service still comes up in fallback mode: recommend answers from the
  /// PB ranking, predict reports the model as unavailable.
  QueryService(core::TrainingDatabase database, core::PbRankingResult ranking,
               ServiceOptions options = {});
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Handle one protocol line; never throws — malformed input yields an
  /// "error ..." response.  Safe to call from any number of threads
  /// concurrently; concurrent serving is acic::net's job (or
  /// `parallel_for` over this).
  ///
  /// The deadline clock starts at `admitted_at` — a network front end
  /// passes the frame-arrival time so queue wait counts against
  /// `deadline_us`.  The deadline is enforced on both sides of the verb
  /// dispatch: a request that is already over budget when it reaches
  /// compute is answered `timeout ... phase=queue` without doing the
  /// work, and one that blows the budget *during* compute is answered
  /// `timeout ... phase=compute degraded=yes` — both count into
  /// `service.deadline_exceeded`.
  std::string handle(const std::string& request_line,
                     std::chrono::steady_clock::time_point admitted_at =
                         std::chrono::steady_clock::now());

  /// True when the service answers from the PB-ranking fallback instead
  /// of trained models.
  bool degraded() const { return engine_.degraded(); }

 private:
  /// Both objectives' models for one learner plugin.  Only complete
  /// pairs enter the engine's model map.
  struct ModelSet {
    std::optional<core::Acic> perf;
    std::optional<core::Acic> cost;
  };

  /// Immutable service state; shared read-only by concurrent requests.
  /// Models are optional: an engine whose training failed (empty or
  /// corrupt database) still serves rank/stats and fallback recommends.
  struct Engine {
    /// Validates the learner names, then trains each learner's pair.
    Engine(core::TrainingDatabase db, core::PbRankingResult rank,
           std::vector<std::string> learner_names);

    /// A candidate-grid row scored by the PB effects alone.
    struct PbPick {
      std::size_t row = 0;
      double score = 0.0;
    };

    core::TrainingDatabase database;
    core::PbRankingResult ranking;
    /// Requested learner plugin names; front() is the primary.
    std::vector<std::string> learners;
    /// Trained models per learner; a learner whose training threw is
    /// simply absent (per-learner failure isolation).
    std::map<std::string, ModelSet, std::less<>> models;
    /// Every candidate-grid row ranked by the PB-effects prior, best
    /// first: the fallback recommend's answer, workload-independent and
    /// so computed once.
    std::vector<PbPick> pb_ranked;

    const std::string& primary_learner() const { return learners.front(); }
    bool degraded() const { return model_set(primary_learner()) == nullptr; }
    const ModelSet* model_set(std::string_view learner) const {
      const auto it = models.find(learner);
      return it == models.end() ? nullptr : &it->second;
    }
    const core::Acic* model_for(core::Objective objective) const {
      return model_for(objective, primary_learner());
    }
    const core::Acic* model_for(core::Objective objective,
                                std::string_view learner) const {
      const ModelSet* set = model_set(learner);
      if (set == nullptr) return nullptr;
      const auto& m = objective == core::Objective::kPerformance ? set->perf
                                                                 : set->cost;
      return m ? &*m : nullptr;
    }
  };

  std::string handle_recommend(const Engine& engine, const RequestPairs& kv);
  static std::string handle_predict(const Engine& engine,
                                    const RequestPairs& kv);
  static std::string handle_rank(const Engine& engine, const RequestPairs& kv);
  static std::string handle_simulate(const RequestPairs& kv);
  static std::string handle_stats(const Engine& engine);
  static std::string handle_plugins();
  static std::string help_text();
  /// The registered-but-untrained learner error (distinct from the
  /// unknown-name PluginError the registry itself throws): lists the
  /// learners the engine actually trained.
  static Error untrained_learner_error(const Engine& engine,
                                       std::string_view learner);
  /// PB-effects fallback: the top_k of the engine's PB-ranked candidate
  /// grid (used when no trained model exists).
  static std::string fallback_recommend(const Engine& engine,
                                        core::Objective objective,
                                        std::size_t top_k);
  std::string dispatch(std::string_view verb, const std::string& line);

  /// Per-verb instruments, resolved once at construction so the request
  /// path never takes the registry lock.
  struct VerbMetrics {
    obs::Counter* requests = nullptr;
    obs::Histogram* latency_us = nullptr;
  };
  const VerbMetrics& metrics_for(std::string_view verb) const;

  const Engine engine_;
  const double deadline_us_;
  VerbMetrics recommend_metrics_;
  VerbMetrics predict_metrics_;
  VerbMetrics rank_metrics_;
  VerbMetrics simulate_metrics_;
  VerbMetrics stats_metrics_;
  VerbMetrics plugins_metrics_;
  VerbMetrics other_metrics_;
  obs::Counter* errors_ = nullptr;
  obs::Counter* deadline_exceeded_ = nullptr;
  obs::Counter* fallback_answers_ = nullptr;
};

}  // namespace acic::service
