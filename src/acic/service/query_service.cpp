#include "acic/service/query_service.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>

#include "acic/common/error.hpp"
#include "acic/common/text.hpp"
#include "acic/core/candidate_grid.hpp"
#include "acic/exec/executor.hpp"
#include "acic/io/runner.hpp"
#include "acic/plugin/substrates.hpp"

namespace acic::service {

namespace {

/// The characters `std::istream >>` skips in the classic locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// The whitespace-separated token at or after `pos`, advancing `pos`
/// past it; empty at the end of the line.
std::string_view next_token(std::string_view line, std::size_t& pos) {
  while (pos < line.size() && is_space(line[pos])) ++pos;
  const std::size_t begin = pos;
  while (pos < line.size() && !is_space(line[pos])) ++pos;
  return line.substr(begin, pos - begin);
}

std::string_view verb_of(std::string_view line) {
  std::size_t pos = 0;
  return next_token(line, pos);
}

bool parse_bool(std::string_view v) {
  if (v == "yes" || v == "true" || v == "1" || v == "on") return true;
  if (v == "no" || v == "false" || v == "0" || v == "off") return false;
  throw Error("expected yes/no, got '" + std::string(v) + "'");
}

core::Objective parse_objective(std::string_view v) {
  if (v == "performance" || v == "perf" || v == "time") {
    return core::Objective::kPerformance;
  }
  if (v == "cost" || v == "money") return core::Objective::kCost;
  throw Error("unknown objective '" + std::string(v) + "'");
}

/// Candidate-grid row of a config label.
std::size_t grid_row_of(std::string_view label) {
  if (const auto row = core::CandidateGrid::get().find(label)) return *row;
  throw Error("unknown config label '" + std::string(label) + "'");
}

/// parse_count, bounded to int for the workload fields.
int parse_int_field(std::string_view key, std::string_view text) {
  return static_cast<int>(
      parse_count(key, text, std::numeric_limits<int>::max()));
}

/// Keys of the simulate verb that are *not* workload keys.
bool is_simulate_key(std::string_view key) {
  static const char* kKeys[] = {
      "seed",       "failures", "brownouts", "brownout_fraction",
      "stragglers", "straggler_factor", "correlated", "permanent",
      "retry",      "timeout",  "attempts",  "watchdog",  "chaos",
      "preemptions", "notice",  "checkpoint", "checkpoint_interval",
      "checkpoint_bytes", "max_restarts", "spot", "spot_factor",
      "restart_cost"};
  for (const char* k : kKeys) {
    if (key == k) return true;
  }
  return false;
}

}  // namespace

RequestPairs::RequestPairs(std::string_view line) {
  pairs_.reserve(16);
  std::size_t pos = 0;
  next_token(line, pos);  // skip the verb
  for (std::string_view token = next_token(line, pos); !token.empty();
       token = next_token(line, pos)) {
    const auto eq = token.find('=');
    ACIC_CHECK_MSG(eq != std::string::npos && eq > 0,
                   "expected key=value, got '" << token << "'");
    pairs_.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  // Key order, a repeated key's tokens in line order (their views'
  // addresses), so only the last of them need survive.  std::sort takes
  // no allocation and stays O(n log n) on a hostile line.
  std::sort(pairs_.begin(), pairs_.end(), [](const Pair& a, const Pair& b) {
    return a.first < b.first ||
           (a.first == b.first && a.first.data() < b.first.data());
  });
  auto kept = pairs_.begin();
  for (auto it = pairs_.begin(); it != pairs_.end(); ++it) {
    const auto next = std::next(it);
    if (next != pairs_.end() && next->first == it->first) continue;
    *kept++ = *it;
  }
  pairs_.erase(kept, pairs_.end());
}

RequestPairs::const_iterator RequestPairs::find(std::string_view key) const {
  const auto it = std::lower_bound(
      pairs_.begin(), pairs_.end(), key,
      [](const Pair& p, std::string_view k) { return p.first < k; });
  return it != pairs_.end() && it->first == key ? it : pairs_.end();
}

Bytes parse_size(std::string_view text) {
  ACIC_CHECK_MSG(!text.empty(), "empty size literal");
  const std::string literal(text);
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(literal, &pos);
  } catch (const std::exception&) {
    // std::stod's "stod" message is useless to a protocol client; name
    // the offending input instead.
    throw Error("malformed size literal '" + literal + "'");
  }
  std::string unit = literal.substr(pos);
  std::transform(unit.begin(), unit.end(), unit.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  Bytes scale = 0.0;
  if (unit.empty() || unit == "b") {
    scale = 1.0;
  } else if (unit == "kib" || unit == "kb" || unit == "k") {
    scale = KiB;
  } else if (unit == "mib" || unit == "mb" || unit == "m") {
    scale = MiB;
  } else if (unit == "gib" || unit == "gb" || unit == "g") {
    scale = GiB;
  } else if (unit == "tib" || unit == "tb" || unit == "t") {
    scale = TiB;
  } else {
    throw Error("unknown size unit '" + unit + "'");
  }
  // Checked after the multiply: "1e300TiB" overflows to +inf only there.
  const Bytes bytes = value * scale;
  if (!std::isfinite(bytes) || bytes <= 0.0) {
    throw Error("size literal '" + literal + "' must be positive and finite");
  }
  return bytes;
}

double parse_nonneg_double(std::string_view key, std::string_view text) {
  const std::string literal(text);
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(literal, &pos);
  } catch (const std::exception&) {
    throw Error(std::string(key) + "='" + literal + "' is not a number");
  }
  if (pos != literal.size() || !std::isfinite(v) || v < 0.0) {
    throw Error(std::string(key) + "='" + literal +
                "' must be a non-negative number");
  }
  return v;
}

std::size_t parse_count(std::string_view key, std::string_view text,
                        std::size_t max) {
  const bool all_digits =
      !text.empty() &&
      std::all_of(text.begin(), text.end(),
                  [](unsigned char c) { return std::isdigit(c) != 0; });
  if (!all_digits) {
    throw Error(std::string(key) + " must be a non-negative integer, got '" +
                std::string(text) + "'");
  }
  std::size_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || value > max) {
    throw Error(std::string(key) + "='" + std::string(text) +
                "' is out of range");
  }
  return value;
}

io::Workload parse_workload_query(std::string_view line) {
  return parse_workload_query(RequestPairs(line));
}

io::Workload parse_workload_query(const RequestPairs& kv) {
  io::Workload w;
  w.name = "query";
  for (const auto& [key, value] : kv) {
    if (key == "objective" || key == "top_k" || key == "config") continue;
    if (key == "top" || key == "model") continue;  // rank verb controls
    if (key == "learner" || key == "fs") continue;  // plugin selectors
    if (is_simulate_key(key)) continue;
    if (key == "np") {
      w.num_processes = parse_int_field(key, value);
    } else if (key == "io_procs") {
      w.num_io_processes = parse_int_field(key, value);
    } else if (key == "interface") {
      w.interface = io::interface_from_string(value);
    } else if (key == "iterations") {
      w.iterations = parse_int_field(key, value);
    } else if (key == "data") {
      w.data_size = parse_size(value);
    } else if (key == "request") {
      w.request_size = parse_size(value);
    } else if (key == "op") {
      w.op = io::opmix_from_string(value);
    } else if (key == "collective") {
      w.collective = parse_bool(value);
    } else if (key == "shared") {
      w.file_shared = parse_bool(value);
    } else {
      throw Error("unknown workload key '" + std::string(key) + "'");
    }
  }
  w.normalize();
  ACIC_CHECK_MSG(w.valid(), "query describes an invalid workload");
  return w;
}

QueryService::Engine::Engine(core::TrainingDatabase db,
                             core::PbRankingResult rank,
                             std::vector<std::string> learner_names)
    : database(std::move(db)),
      ranking(std::move(rank)),
      learners(std::move(learner_names)) {
  ACIC_CHECK_MSG(!learners.empty(),
                 "ServiceOptions::learners must name at least one learner");
  // Validate the learner names against the plugin registry up front: a
  // typo fails startup with a PluginError listing what is registered,
  // instead of every future request erroring.
  for (const auto& name : learners) {
    plugin::learners().lookup(name);
  }
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& build_failures =
      registry.counter("service.engine_build_failures");
  obs::Timer train_timer(registry.histogram("service.train_latency_us"));
  // An engine whose models cannot be trained (empty or degenerate
  // database) still serves: recommend falls back to the PB ranking.
  // Each learner trains independently — one blowing up must not take
  // the others (or the fallback path) down with it.
  for (const auto& name : learners) {
    try {
      ModelSet set;
      set.perf.emplace(database, core::Objective::kPerformance,
                       std::string_view(name));
      set.cost.emplace(database, core::Objective::kCost,
                       std::string_view(name));
      models.emplace(name, std::move(set));
    } catch (const std::exception&) {
      // Absent from the map; requests naming it get a typed error.
    }
  }
  if (degraded()) build_failures.inc();

  // The fallback recommend's prior: each grid row scored by the PB
  // effects of its system levels.  The effects are signed impacts on
  // log(time) (positive = a higher level slows the job down), so a
  // candidate whose high-valued dimensions carry negative effects
  // scores well.  Workload traits play no role — this is a
  // workload-agnostic prior, which is exactly what the paper's
  // screening phase provides before any model exists.
  const auto& effects = ranking.effects;
  const core::CandidateGrid& grid = core::CandidateGrid::get();
  pb_ranked.reserve(grid.size());
  for (std::size_t row = 0; row < grid.size(); ++row) {
    const auto p = grid.system_columns(row);
    double score = 0.0;
    for (const auto& d : core::ParamSpace::dimensions()) {
      if (!d.is_system) continue;
      const auto dim = static_cast<std::size_t>(d.dim);
      if (dim >= effects.size()) continue;
      const double lo = core::ParamSpace::low(d.dim);
      const double hi = core::ParamSpace::high(d.dim);
      if (hi <= lo) continue;
      // Normalise the level to [-1, 1] (the PB design's coding).
      const double level = 2.0 * (p[dim] - lo) / (hi - lo) - 1.0;
      score += -effects[dim] * level;
    }
    pb_ranked.push_back({row, score});
  }
  std::stable_sort(pb_ranked.begin(), pb_ranked.end(),
                   [](const PbPick& a, const PbPick& b) {
                     return a.score > b.score;
                   });
}

QueryService::QueryService(core::TrainingDatabase database,
                           core::PbRankingResult ranking,
                           ServiceOptions options)
    : engine_(std::move(database), std::move(ranking),
              std::move(options.learners)),
      deadline_us_(options.deadline_us) {
  auto& registry = obs::MetricsRegistry::global();
  auto verb_metrics = [&registry](const char* verb) {
    VerbMetrics m;
    m.requests = &registry.counter(std::string("service.requests.") + verb);
    m.latency_us =
        &registry.histogram(std::string("service.latency_us.") + verb);
    return m;
  };
  recommend_metrics_ = verb_metrics("recommend");
  predict_metrics_ = verb_metrics("predict");
  rank_metrics_ = verb_metrics("rank");
  simulate_metrics_ = verb_metrics("simulate");
  stats_metrics_ = verb_metrics("stats");
  plugins_metrics_ = verb_metrics("plugins");
  other_metrics_ = verb_metrics("other");
  errors_ = &registry.counter("service.errors");
  deadline_exceeded_ = &registry.counter("service.deadline_exceeded");
  fallback_answers_ = &registry.counter("service.fallback_answers");
}

const QueryService::VerbMetrics& QueryService::metrics_for(
    std::string_view verb) const {
  if (verb == "recommend") return recommend_metrics_;
  if (verb == "predict") return predict_metrics_;
  if (verb == "rank") return rank_metrics_;
  if (verb == "simulate") return simulate_metrics_;
  if (verb == "stats") return stats_metrics_;
  if (verb == "plugins") return plugins_metrics_;
  return other_metrics_;
}

std::string QueryService::handle(
    const std::string& request_line,
    std::chrono::steady_clock::time_point admitted_at) {
  const std::string_view verb = verb_of(request_line);
  const VerbMetrics& vm = metrics_for(verb);
  vm.requests->inc();

  const auto elapsed_us_since = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t)
        .count();
  };
  // Deadline gate #1, before the verb runs: a request that burned its
  // whole budget waiting (in a socket-layer queue, or behind a slow
  // batch neighbour) is answered without doing the work — under
  // overload, computing an answer nobody is waiting for anymore only
  // deepens the overload.
  if (deadline_us_ > 0.0) {
    const double waited_us = elapsed_us_since(admitted_at);
    if (waited_us > deadline_us_) {
      deadline_exceeded_->inc();
      TextWriter os;
      os << "timeout request exceeded deadline (" << waited_us << "us > "
         << deadline_us_ << "us) phase=queue\n";
      return std::move(os).str();
    }
  }

  obs::Timer timer(*vm.latency_us);
  std::string response = dispatch(verb, request_line);
  // Deadline gate #2, re-checked after the verb dispatch: a request
  // that blows `deadline_us` *during* compute is counted too, and the
  // late answer is replaced by a typed, explicitly degraded response.
  if (deadline_us_ > 0.0) {
    const double elapsed_us = elapsed_us_since(admitted_at);
    if (elapsed_us > deadline_us_) {
      deadline_exceeded_->inc();
      TextWriter os;
      os << "timeout request exceeded deadline (" << elapsed_us << "us > "
         << deadline_us_ << "us) phase=compute degraded=yes\n";
      return std::move(os).str();
    }
  }
  return response;
}

std::string QueryService::dispatch(std::string_view verb,
                                   const std::string& request_line) {
  // Only the verbs that take key=value pairs tokenize the line (once),
  // so a malformed token cannot fail stats, plugins or help.
  try {
    if (verb == "recommend") {
      return handle_recommend(engine_, RequestPairs(request_line));
    }
    if (verb == "predict") {
      return handle_predict(engine_, RequestPairs(request_line));
    }
    if (verb == "rank") return handle_rank(engine_, RequestPairs(request_line));
    if (verb == "simulate") return handle_simulate(RequestPairs(request_line));
    if (verb == "stats") return handle_stats(engine_);
    if (verb == "plugins") return handle_plugins();
    if (verb == "help" || verb.empty()) return help_text();
    errors_->inc();
    return "error unknown verb '" + std::string(verb) + "' (try: help)\n";
  } catch (const std::exception& e) {
    errors_->inc();
    return std::string("error ") + e.what() + "\n";
  }
}

std::string QueryService::handle_recommend(const Engine& engine,
                                           const RequestPairs& kv) {
  const auto obj_it = kv.find("objective");
  const core::Objective objective =
      obj_it == kv.end() ? core::Objective::kPerformance
                         : parse_objective(obj_it->second);
  const auto k_it = kv.find("top_k");
  const std::size_t top_k =
      k_it == kv.end() ? 3 : parse_count("top_k", k_it->second);
  const auto traits = parse_workload_query(kv);

  // Optional fs= filter: restrict the candidate pool to one registered
  // filesystem's rows of the grid.  An unknown name throws the
  // registry's PluginError listing the registered filesystems.
  const core::CandidateGrid& grid = core::CandidateGrid::get();
  const auto fs_it = kv.find("fs");
  std::span<const std::size_t> rows;  // empty: the whole grid
  if (fs_it != kv.end()) {
    const auto& substrate = plugin::filesystem_named(fs_it->second);
    rows = grid.rows_on(substrate.type);
    if (rows.empty()) {
      throw Error("no candidate configs for filesystem '" + substrate.name +
                  "' (registered, but not in the default grid)");
    }
  }

  // Optional learner= selection; defaults to the engine's primary.
  // An unregistered name throws the registry's PluginError; a
  // registered name the engine did not train is a typed error
  // listing what *is* trained.
  const auto learner_it = kv.find("learner");
  const std::string_view learner = learner_it != kv.end()
                                       ? learner_it->second
                                       : engine.primary_learner();
  plugin::learners().lookup(learner);
  const core::Acic* model = engine.model_for(objective, learner);
  if (model == nullptr) {
    if (learner_it != kv.end()) throw untrained_learner_error(engine, learner);
    // No trained model: degrade gracefully to the PB screening
    // ranking instead of erroring out.
    fallback_answers_->inc();
    return fallback_recommend(engine, objective, top_k);
  }
  // Optional restart-aware ranking: chaos=<preset> (or an explicit
  // preemptions= rate) arms a PreemptionModel, so the ranking trades raw
  // bandwidth against checkpoint-dump and recovery economics under the
  // given spot terms.
  core::PreemptionModel preemption;
  if (const auto chaos_it = kv.find("chaos"); chaos_it != kv.end()) {
    preemption.preemptions_per_hour = plugin::fault_models()
                                          .lookup(chaos_it->second)
                                          .model.preemptions_per_hour;
  }
  if (const auto it = kv.find("preemptions"); it != kv.end()) {
    preemption.preemptions_per_hour =
        parse_nonneg_double("preemptions", it->second);
  }
  if (const auto it = kv.find("checkpoint_interval"); it != kv.end()) {
    preemption.checkpoint_interval =
        parse_nonneg_double("checkpoint_interval", it->second);
  }
  if (const auto it = kv.find("checkpoint_bytes"); it != kv.end()) {
    preemption.checkpoint_bytes = parse_size(it->second);
  }
  if (const auto it = kv.find("spot_factor"); it != kv.end()) {
    preemption.spot.price_factor =
        parse_nonneg_double("spot_factor", it->second);
  }
  if (const auto it = kv.find("restart_cost"); it != kv.end()) {
    preemption.spot.per_restart_cost =
        parse_nonneg_double("restart_cost", it->second);
  }
  const auto picks = model->rank_grid(traits, top_k, rows, preemption);
  TextWriter os(64 + 48 * picks.size());
  os << "ok " << picks.size() << " recommendations (objective="
     << core::to_string(objective);
  if (learner_it != kv.end()) os << ", learner=" << learner;
  if (fs_it != kv.end()) os << ", fs=" << fs_it->second;
  if (preemption.active()) os << ", preemption_adjusted=yes";
  os << ")\n";
  for (const auto& pick : picks) {
    os << "  " << grid.label(pick.row)
       << " predicted_improvement=" << pick.predicted_improvement << "\n";
  }
  return std::move(os).str();
}

Error QueryService::untrained_learner_error(const Engine& engine,
                                            std::string_view learner) {
  std::string trained;
  for (const auto& [name, set] : engine.models) {
    if (!trained.empty()) trained += ", ";
    trained += name;
  }
  return Error("learner '" + std::string(learner) +
               "' is not trained in this snapshot (trained: " +
               (trained.empty() ? "none" : trained) + ")");
}

std::string QueryService::fallback_recommend(const Engine& engine,
                                             core::Objective objective,
                                             std::size_t top_k) {
  const core::CandidateGrid& grid = core::CandidateGrid::get();
  const std::size_t n = std::min(top_k, engine.pb_ranked.size());
  TextWriter os(80 + 40 * n);
  os << "ok " << n << " recommendations (objective="
     << core::to_string(objective) << ", fallback=pb-ranking)\n";
  for (std::size_t i = 0; i < n; ++i) {
    os << "  " << grid.label(engine.pb_ranked[i].row)
       << " pb_score=" << engine.pb_ranked[i].score << "\n";
  }
  return std::move(os).str();
}

std::string QueryService::handle_predict(const Engine& engine,
                                         const RequestPairs& kv) {
  const auto cfg_it = kv.find("config");
  ACIC_CHECK_MSG(cfg_it != kv.end(), "predict needs config=<label>");
  const std::size_t row = grid_row_of(cfg_it->second);
  const auto obj_it = kv.find("objective");
  const core::Objective objective =
      obj_it == kv.end() ? core::Objective::kPerformance
                         : parse_objective(obj_it->second);
  const auto traits = parse_workload_query(kv);
  const auto learner_it = kv.find("learner");
  const std::string_view learner = learner_it != kv.end()
                                       ? learner_it->second
                                       : engine.primary_learner();
  plugin::learners().lookup(learner);  // typed unknown-learner error
  const core::Acic* model = engine.model_for(objective, learner);
  if (model == nullptr && learner_it != kv.end()) {
    throw untrained_learner_error(engine, learner);
  }
  ACIC_CHECK_MSG(model != nullptr,
                 "no trained model snapshot available (empty training "
                 "database?); try recommend for a PB-ranking fallback");
  const core::CandidateGrid& grid = core::CandidateGrid::get();
  const double improvement = model->predict(grid.configs()[row], traits);
  TextWriter os(128);
  os << "ok predicted_improvement=" << improvement
     << " config=" << grid.label(row)
     << " objective=" << core::to_string(objective);
  if (learner_it != kv.end()) os << " learner=" << learner;
  os << "\n";
  return std::move(os).str();
}

std::string QueryService::handle_simulate(const RequestPairs& kv) {
  const auto cfg_it = kv.find("config");
  ACIC_CHECK_MSG(cfg_it != kv.end(), "simulate needs config=<label>");
  const auto config =
      core::CandidateGrid::get().configs()[grid_row_of(cfg_it->second)];
  const auto traits = parse_workload_query(kv);

  io::RunOptions opts;
  const auto get = [&kv](const char* key) {
    const auto it = kv.find(key);
    return it == kv.end() ? static_cast<const std::string_view*>(nullptr)
                          : &it->second;
  };
  // chaos=<preset> seeds the whole fault model from a registered plugin
  // (unknown names throw the registry's PluginError listing the
  // presets); the explicit fields below still override per knob.
  if (const auto* v = get("chaos")) {
    opts.fault_model = plugin::fault_models().lookup(*v).model;
  }
  if (const auto* v = get("seed")) opts.seed = parse_count("seed", *v);
  if (const auto* v = get("failures")) {
    opts.fault_model.outages_per_hour = parse_nonneg_double("failures", *v);
  }
  if (const auto* v = get("brownouts")) {
    opts.fault_model.brownouts_per_hour =
        parse_nonneg_double("brownouts", *v);
  }
  if (const auto* v = get("brownout_fraction")) {
    opts.fault_model.brownout_fraction =
        parse_nonneg_double("brownout_fraction", *v);
  }
  if (const auto* v = get("stragglers")) {
    opts.fault_model.stragglers_per_hour =
        parse_nonneg_double("stragglers", *v);
  }
  if (const auto* v = get("straggler_factor")) {
    opts.fault_model.straggler_factor =
        parse_nonneg_double("straggler_factor", *v);
  }
  if (const auto* v = get("correlated")) {
    opts.fault_model.correlated_outage_probability =
        parse_nonneg_double("correlated", *v);
  }
  if (const auto* v = get("permanent")) {
    opts.fault_model.permanent_loss_probability =
        parse_nonneg_double("permanent", *v);
  }
  if (const auto* v = get("retry")) {
    opts.tuning.retry.enabled = parse_bool(*v);
  }
  if (const auto* v = get("timeout")) {
    opts.tuning.retry.request_timeout = parse_nonneg_double("timeout", *v);
  }
  if (const auto* v = get("attempts")) {
    opts.tuning.retry.max_attempts =
        parse_int_field("attempts", *v);
  }
  if (const auto* v = get("watchdog")) {
    opts.watchdog_sim_time = parse_nonneg_double("watchdog", *v);
  }
  if (const auto* v = get("preemptions")) {
    opts.fault_model.preemptions_per_hour =
        parse_nonneg_double("preemptions", *v);
  }
  if (const auto* v = get("notice")) {
    opts.fault_model.preemption_notice = parse_nonneg_double("notice", *v);
  }
  if (const auto* v = get("checkpoint")) {
    opts.checkpoint.enabled = parse_bool(*v);
  }
  if (const auto* v = get("checkpoint_interval")) {
    opts.checkpoint.interval =
        parse_nonneg_double("checkpoint_interval", *v);
  }
  if (const auto* v = get("checkpoint_bytes")) {
    opts.checkpoint.bytes = parse_size(*v);
    // Naming a dump size is opting into the periodic dumps.
    opts.checkpoint.enabled = true;
  }
  if (const auto* v = get("max_restarts")) {
    opts.checkpoint.max_restarts = parse_int_field("max_restarts", *v);
  }
  if (const auto* v = get("spot")) {
    if (parse_bool(*v)) opts.spot_pricing.emplace();
  }
  if (const auto* v = get("spot_factor")) {
    if (!opts.spot_pricing) opts.spot_pricing.emplace();
    opts.spot_pricing->price_factor = parse_nonneg_double("spot_factor", *v);
  }
  if (const auto* v = get("restart_cost")) {
    if (!opts.spot_pricing) opts.spot_pricing.emplace();
    opts.spot_pricing->per_restart_cost =
        parse_nonneg_double("restart_cost", *v);
  }
  ACIC_CHECK_MSG(opts.fault_model.valid(), "invalid fault model");
  ACIC_CHECK_MSG(opts.tuning.retry.valid(), "invalid retry policy");
  ACIC_CHECK_MSG(opts.checkpoint.valid(), "invalid checkpoint policy");

  // Through the engine: a simulate verb repeated with identical
  // parameters — or one matching a run a training sweep already did —
  // answers from the run cache instead of burning a fresh simulation.
  const auto r = exec::Executor::global().run(
      exec::RunRequest{traits, config, opts});
  TextWriter os;
  os << "ok time=" << r.total_time << " cost=" << r.cost
     << " outcome=" << io::to_string(r.outcome) << " retries=" << r.retries
     << " timeouts=" << r.timeouts << " failed_requests="
     << r.failed_requests << " cancelled_fault_events="
     << r.fault_events_cancelled << " preemptions=" << r.preemptions
     << " restarts=" << r.restarts << " lost_time=" << r.lost_sim_time
     << " checkpoint_bytes=" << r.checkpoint_bytes
     << " sim_events=" << r.sim_events << "\n";
  return std::move(os).str();
}

std::string QueryService::handle_rank(const Engine& engine,
                                      const RequestPairs& kv) {
  const auto top_it = kv.find("top");
  std::size_t top = top_it == kv.end()
                        ? engine.ranking.importance.size()
                        : parse_count("top", top_it->second);
  top = std::min(top, engine.ranking.importance.size());
  TextWriter os(512);
  os << "ok " << top << " dimensions by PB importance\n";
  for (std::size_t i = 0; i < top; ++i) {
    const auto dim = static_cast<core::Dim>(engine.ranking.importance[i]);
    os << "  " << (i + 1) << ". "
       << core::ParamSpace::dimension(dim).name << "\n";
  }

  // Opt-in model-side section: one batch prediction over every candidate
  // config ranks the *system* dimensions by how much the trained model
  // thinks they matter for the given workload (defaults if no workload
  // keys are supplied).  Opt-in keeps the default response stable for
  // existing clients.
  const auto model_it = kv.find("model");
  if (model_it != kv.end() && parse_bool(model_it->second)) {
    const auto obj_it = kv.find("objective");
    const core::Objective objective =
        obj_it == kv.end() ? core::Objective::kPerformance
                           : parse_objective(obj_it->second);
    const core::Acic* model = engine.model_for(objective);
    ACIC_CHECK_MSG(model != nullptr,
                   "no trained model snapshot for the model-spread section "
                   "(empty training database?)");
    const auto traits = parse_workload_query(kv);
    const auto spreads = core::model_dimension_spread(*model, traits);
    os << "  model spread (objective=" << core::to_string(objective)
       << ", workload-specific, higher = more impact)\n";
    for (std::size_t i = 0; i < spreads.size(); ++i) {
      os << "  " << (i + 1) << ". " << spreads[i].name
         << " spread=" << spreads[i].spread << "\n";
    }
  }
  return std::move(os).str();
}

std::string QueryService::handle_stats(const Engine& engine) {
  TextWriter os(4096);
  os << "ok database=" << engine.database.size() << " samples, "
     << core::CandidateGrid::get().size()
     << " candidate configs, mode="
     << (engine.degraded() ? "fallback" : "full") << "\n";
  std::string trained;
  for (const auto& [name, set] : engine.models) {
    if (!trained.empty()) trained += ",";
    trained += name;
  }
  os << "  learners=" << (trained.empty() ? "none" : trained)
     << " primary=" << engine.primary_learner() << "\n";
  for (const auto& info : plugin::inventory()) {
    os << "  plugin " << plugin::to_string(info.kind) << " " << info.name
       << "\n";
  }
  os << obs::MetricsRegistry::global().snapshot().to_text("  ");
  return std::move(os).str();
}


std::string QueryService::handle_plugins() {
  const auto& inv = plugin::inventory();
  TextWriter os(512);
  os << "ok " << inv.size() << " plugins registered\n";
  for (const auto& info : inv) {
    os << "  " << plugin::to_string(info.kind) << " " << info.name << "\n";
  }
  return std::move(os).str();
}

std::string QueryService::help_text() {
  return
      "ok commands\n"
      "  recommend objective=performance|cost top_k=N [learner=<name>]\n"
      "            [fs=<name>] [chaos=<preset>|preemptions=R\n"
      "            checkpoint_interval=S checkpoint_bytes=SZ spot_factor=F\n"
      "            restart_cost=$] <workload keys>\n"
      "  predict config=<label> objective=... [learner=<name>]\n"
      "          <workload keys>\n"
      "  rank [top=N] [model=yes objective=... <workload keys>]\n"
      "  simulate config=<label> <workload keys> [chaos=<preset>]\n"
      "           [chaos keys]\n"
      "  stats\n"
      "  plugins   (registered substrates: filesystems, learners,\n"
      "             fault-model presets)\n"
      "  workload keys: np io_procs interface iterations data request op\n"
      "                 collective shared (sizes like 4MiB, 256KiB)\n"
      "  chaos keys: seed failures brownouts brownout_fraction stragglers\n"
      "              straggler_factor correlated permanent preemptions\n"
      "              notice retry timeout attempts watchdog checkpoint\n"
      "              checkpoint_interval checkpoint_bytes max_restarts\n"
      "              spot spot_factor restart_cost (rates per hour;\n"
      "              retry=yes arms deadline/backoff; checkpoint=yes or a\n"
      "              checkpoint_bytes size arms periodic dumps; spot=yes\n"
      "              bills at the spot discount plus per-restart fees;\n"
      "              seeded runs are reproducible)\n"
      "  learner/fs/chaos names resolve through the plugin registry;\n"
      "  unknown names answer with the registered list\n";
}

}  // namespace acic::service
