// Seeded mutation fuzzing of the text parsers behind untrusted
// boundaries: protocol lines (parse_workload_query and
// QueryService::handle), the shared training CSV
// (TrainingDatabase::from_csv) and RunStore rows re-framed with valid
// CRCs, so only the row parser stands between a corrupt cell and a
// loaded result.  A differential half runs protocol lines through the
// service's tokenizer and through the istringstream + std::map one it
// replaced, kept here verbatim as the reference.
//
// Each case mutates a valid input one to three times — drop, duplicate
// or swap a token; flip a byte; replace a value with a numeric extreme —
// and checks the parser's contract.  The generator is a fixed-seed
// mt19937_64 drawn with modulo arithmetic, so every platform replays
// the same cases.  The whole file runs in well under a second.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "acic/common/error.hpp"
#include "acic/core/training.hpp"
#include "acic/exec/runkey.hpp"
#include "acic/exec/store.hpp"
#include "acic/service/query_service.hpp"
#include "service_fixture.hpp"

namespace acic {
namespace {

/// Values chosen to sit on parser edges: overflow after a unit multiply,
/// signs, counts past u64 and int, non-finite spellings, denormals.
const std::vector<std::string> kExtremes = {
    "1e300TiB",
    "1e308GiB",
    "1e300",
    "1e999",
    "-1",
    "-0",
    "0",
    "1e-320",
    "nan",
    "inf",
    "-inf",
    "2147483648",
    "4294967297",
    "18446744073709551616",
    "999999999999999999999",
    "",
    "0x10",
    "4MiBjunk",
};

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  /// One to three mutations of `tokens`.  With `keyed`, tokens are
  /// key=value pairs and an extreme replaces only the value.
  void mutate(std::vector<std::string>& tokens, bool keyed) {
    const std::size_t rounds = 1 + below(3);
    for (std::size_t r = 0; r < rounds; ++r) {
      if (tokens.empty()) return;
      const std::size_t i = below(tokens.size());
      switch (below(5)) {
        case 0:  // drop
          tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        case 1:  // duplicate
          tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(i),
                        tokens[i]);
          break;
        case 2:  // swap
          std::swap(tokens[i], tokens[below(tokens.size())]);
          break;
        case 3: {  // byte flip to printable ASCII (never a line break)
          std::string& t = tokens[i];
          if (t.empty()) break;
          t[below(t.size())] = static_cast<char>(' ' + below(95));
          break;
        }
        default: {  // numeric extreme
          std::string& t = tokens[i];
          const auto eq = keyed ? t.find('=') : std::string::npos;
          const std::string& extreme = kExtremes[below(kExtremes.size())];
          t = eq == std::string::npos ? extreme
                                      : t.substr(0, eq + 1) + extreme;
          break;
        }
      }
    }
  }

 private:
  std::mt19937_64 rng_;
};

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cell;
  std::istringstream is(text);
  while (std::getline(is, cell, sep)) out.push_back(cell);
  return out;
}

std::string join(const std::vector<std::string>& tokens, char sep) {
  std::string out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out += sep;
    out += tokens[i];
  }
  return out;
}

// ---------------------------------------------------------------------
// Protocol lines
// ---------------------------------------------------------------------

/// A small database with enough structure for CART to train on, so
/// recommend/predict/rank model=yes take their model paths.
core::TrainingDatabase fuzz_db() {
  core::TrainingDatabase db;
  const auto defaults = core::default_point();
  int tick = 0;
  for (const auto& cfg : cloud::IoConfig::enumerate_candidates()) {
    core::Point p = core::ParamSpace::encode(
        cfg, core::ParamSpace::workload_of(defaults));
    core::TrainingSample s;
    s.point = core::ParamSpace::repaired(p);
    s.baseline_time = 100.0;
    s.time = cfg.io_servers == 4 ? 25.0 + tick % 3 : 110.0 + tick % 7;
    s.baseline_cost = 10.0;
    s.cost = cfg.io_servers == 4 ? 4.0 : 11.0;
    db.insert(s);
    ++tick;
  }
  return db;
}

core::PbRankingResult fuzz_ranking() {
  core::PbRankingResult r;
  for (int d = 0; d < core::kNumDims; ++d) {
    r.importance.push_back(d);
    r.rank_of_each.push_back(d + 1);
    r.effects.push_back(core::kNumDims - d);
  }
  return r;
}

/// Valid protocol lines the mutations start from.
const std::vector<std::string> kProtocolSeeds = {
    "recommend objective=performance top_k=3 np=256 io_procs=256 "
    "interface=MPI-IO iterations=40 data=4MiB request=4MiB op=write "
    "collective=yes shared=yes",
    "recommend objective=cost top_k=2 fs=pvfs2 learner=cart np=64 "
    "io_procs=64 interface=POSIX iterations=1 data=1344MiB request=1MiB "
    "op=read",
    "recommend objective=performance top_k=3 preemptions=0.5 "
    "checkpoint_interval=300 checkpoint_bytes=2GiB spot_factor=0.35 "
    "restart_cost=0.08 np=64 data=64MiB",
    "predict config=pvfs.4.D.eph.4M objective=performance np=64 "
    "data=128MiB op=write",
    "predict config=nfs.D.ebs objective=cost np=32 io_procs=8 "
    "iterations=10 data=16MiB request=256KiB op=rw",
    "rank top=3",
    "rank model=yes objective=cost np=32 io_procs=32 data=16MiB "
    "request=256KiB op=read",
};

TEST(ParserFuzz, ProtocolLinesAnswerOkOrErrorWithFiniteSizes) {
  service::QueryService svc(fuzz_db(), fuzz_ranking());
  Mutator mutator(0xAC1C0001);
  int answered_ok = 0, answered_error = 0;
  for (int n = 0; n < 1500; ++n) {
    const std::size_t pick = mutator.below(kProtocolSeeds.size());
    auto tokens = split(kProtocolSeeds[pick], ' ');
    mutator.mutate(tokens, /*keyed=*/true);
    const std::string line = join(tokens, ' ');

    try {
      const io::Workload w = service::parse_workload_query(line);
      EXPECT_TRUE(std::isfinite(w.data_size) && w.data_size > 0.0) << line;
      EXPECT_TRUE(std::isfinite(w.request_size) && w.request_size > 0.0)
          << line;
    } catch (const Error&) {
      // A clean, typed rejection.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped " << e.what() << " from: " << line;
    }

    // Only the compute verbs: a mutated line never names simulate.
    const std::string verb = tokens.empty() ? "" : tokens.front();
    if (verb == "simulate") continue;
    std::string answer;
    EXPECT_NO_THROW(answer = svc.handle(line)) << line;
    const std::string first = answer.substr(0, answer.find_first_of(" \n"));
    EXPECT_TRUE(first == "ok" || first == "error")
        << line << "\n  -> " << answer;
    if (first == "ok") {
      ++answered_ok;
    } else {
      ++answered_error;
    }
  }
  // The mutations reach both the accept and the reject paths.
  EXPECT_GT(answered_ok, 0);
  EXPECT_GT(answered_error, 0);
}

// ---------------------------------------------------------------------
// Protocol tokenizer, differentially
// ---------------------------------------------------------------------

/// The protocol tokenizer QueryService used before RequestPairs,
/// verbatim: the reference for key order, duplicate keys, separators
/// and the first-bad-token error.
std::map<std::string, std::string> parse_pairs(const std::string& line) {
  std::map<std::string, std::string> kv;
  std::istringstream is(line);
  std::string token;
  is >> token;  // skip the verb
  while (is >> token) {
    const auto eq = token.find('=');
    ACIC_CHECK_MSG(eq != std::string::npos && eq > 0,
                   "expected key=value, got '" << token << "'");
    kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

std::string reference_verb(const std::string& line) {
  std::istringstream is(line);
  std::string verb;
  is >> verb;
  return verb;
}

/// The two differential line sets: seeded mutations of the protocol
/// seeds, and separator/token variants of each seed — every separator
/// `>>` skips, leading, trailing and repeated separators, and the
/// tokens np=, =64, a=b=c, ==, = and a repeated key.
std::vector<std::string> differential_lines() {
  std::vector<std::string> lines;
  Mutator mutator(0xAC1C0004);
  for (int n = 0; n < 1500; ++n) {
    const std::size_t pick = mutator.below(kProtocolSeeds.size());
    auto tokens = split(kProtocolSeeds[pick], ' ');
    mutator.mutate(tokens, /*keyed=*/true);
    lines.push_back(join(tokens, ' '));
  }
  const std::vector<std::string> separators = {
      "\t", "\v", "\f", "\r", "\n", "  ", " \t\v\f\r "};
  const std::vector<std::string> extra = {
      "np=", "=64", "a=b=c", "==", "=", "np=32 np=64", "top=1 top=2",
      "x=1=2=3"};
  for (const auto& seed : kProtocolSeeds) {
    const auto tokens = split(seed, ' ');
    for (const auto& sep : separators) {
      std::string joined;
      for (const auto& t : tokens) joined += t + sep;
      // A trailing separator; a leading one; repeated ones at both ends.
      lines.push_back(joined);
      lines.push_back(sep + joined);
      lines.push_back(sep + sep + joined + sep);
    }
    // Each extra token at the end of the line and right after the verb.
    const std::string after_verb = seed.substr(tokens.front().size());
    for (const auto& token : extra) {
      lines.push_back(seed + " " + token);
      lines.push_back(tokens.front() + " " + token + after_verb);
    }
  }
  for (const char* line :
       {"", " ", "\t\r", "recommend", "rank\v", "=", "=x", "a=b"}) {
    lines.push_back(line);
  }
  return lines;
}

// RequestPairs against the reference tokenizer: the same pairs in the
// same key order, or the same rejection (the same first bad token).
TEST(ParserDifferential, TokenizerMatchesReference) {
  int accepted = 0, rejected = 0;
  for (const auto& line : differential_lines()) {
    std::map<std::string, std::string> want;
    std::string want_error;
    try {
      want = parse_pairs(line);
    } catch (const Error& e) {
      want_error = service::masked_location(e.what());
    }
    try {
      const service::RequestPairs got(line);
      EXPECT_TRUE(want_error.empty())
          << line << "\n  accepted; the reference rejects: " << want_error;
      using Pairs = std::vector<std::pair<std::string, std::string>>;
      Pairs pairs;
      for (const auto& [key, value] : got) {
        pairs.emplace_back(std::string(key), std::string(value));
      }
      EXPECT_EQ(pairs, Pairs(want.begin(), want.end())) << line;
      for (const auto& [key, value] : want) {
        const auto it = got.find(key);
        ASSERT_NE(it, got.end()) << key << " in " << line;
        EXPECT_EQ(it->second, value) << line;
      }
      EXPECT_EQ(got.find("no_such_key"), got.end());
      ++accepted;
    } catch (const Error& e) {
      EXPECT_EQ(service::masked_location(e.what()), want_error) << line;
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// Through QueryService::handle: a line answers exactly as its reference
// tokenization says.  An accepted line answers as the canonical line
// rebuilt from the reference pairs (verb, then key=value in key order,
// one space apart); a rejected one answers the reference's error on the
// verbs that take pairs, and as the bare verb on the others.
TEST(ParserDifferential, AnswersMatchReferenceTokenization) {
  service::QueryService svc(fuzz_db(), fuzz_ranking());
  int compared = 0;
  for (const auto& line : differential_lines()) {
    const std::string verb = reference_verb(line);
    // stats answers move with the metrics; simulate runs simulations.
    if (verb == "stats" || verb == "simulate") continue;
    std::string expected;
    try {
      std::string canonical = verb;
      for (const auto& [key, value] : parse_pairs(line)) {
        canonical += " " + key + "=" + value;
      }
      expected = service::masked_location(svc.handle(canonical));
    } catch (const Error& e) {
      const bool takes_pairs =
          verb == "recommend" || verb == "predict" || verb == "rank";
      expected = takes_pairs
                     ? "error " + service::masked_location(e.what()) + "\n"
                     : service::masked_location(svc.handle(verb));
    }
    EXPECT_EQ(service::masked_location(svc.handle(line)), expected) << line;
    ++compared;
  }
  EXPECT_GT(compared, 1000);
}

// ---------------------------------------------------------------------
// Training CSV
// ---------------------------------------------------------------------

TEST(ParserFuzz, TrainingCsvLoadsOnlyFiniteValues) {
  const CsvTable valid = fuzz_db().to_csv();
  Mutator mutator(0xAC1C0002);
  int csv_loaded = 0;
  for (int n = 0; n < 1500; ++n) {
    CsvTable table = valid;
    auto& row = table.rows[mutator.below(table.rows.size())];
    mutator.mutate(row, /*keyed=*/false);
    try {
      const auto db = core::TrainingDatabase::from_csv(table);
      ++csv_loaded;
      for (const auto& s : db.samples()) {
        for (double v : s.point) {
          ASSERT_TRUE(std::isfinite(v)) << join(row, ',');
        }
        ASSERT_TRUE(std::isfinite(s.time) && std::isfinite(s.cost) &&
                    std::isfinite(s.baseline_time) &&
                    std::isfinite(s.baseline_cost))
            << join(row, ',');
      }
    } catch (const Error&) {
      // A clean, typed rejection.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped " << e.what() << " from: " << join(row, ',');
    }
  }
  EXPECT_GT(csv_loaded, 0);
}

// ---------------------------------------------------------------------
// RunStore rows
// ---------------------------------------------------------------------

TEST(ParserFuzz, RunStoreRowsLoadFiniteOrQuarantine) {
  namespace fsys = std::filesystem;
  const fsys::path dir = fsys::temp_directory_path() /
                         ("acic_parser_fuzz_" + std::to_string(::getpid()));
  fsys::remove_all(dir);

  // One row written through put(), so the file carries a real header.
  io::RunResult seed_result;
  seed_result.total_time = 10.0;
  seed_result.cost = 1.0;
  const exec::RunKey seed_key = *exec::RunKey::from_hex(std::string(32, 'f'));
  { exec::RunStore(dir.string()).put(seed_key, seed_result); }

  Mutator mutator(0xAC1C0003);
  std::set<std::string> keys = {seed_key.hex()};
  std::vector<std::vector<std::string>> written;
  {
    std::ofstream out(dir / "runs.csv", std::ios::app | std::ios::binary);
    char key[33];
    for (int n = 0; n < 2000; ++n) {
      std::snprintf(key, sizeof(key), "%032x", n);
      auto cells = split(std::string(key) +
                             ",123.5,4.25,10,3,7,1048576,500,ok,"
                             "0,0,0,0.5,0,0,0,0,0",
                         ',');
      mutator.mutate(cells, /*keyed=*/false);
      // Distinct keys, so every record either loads or is quarantined
      // (a second row under a loaded key would be neither).
      if (!cells.empty() && exec::RunKey::from_hex(cells[0]) &&
          !keys.insert(exec::RunKey::from_hex(cells[0])->hex()).second) {
        continue;
      }
      out << exec::RunStore::frame(join(cells, ',')) << "\n";
      written.push_back(cells);
    }
  }

  exec::RunStore store(dir.string());
  EXPECT_EQ(store.size() + store.quarantined(), written.size() + 1);
  std::size_t loaded = 1;  // the seed row
  for (const auto& cells : written) {
    const auto key = cells.empty() ? std::nullopt
                                   : exec::RunKey::from_hex(cells[0]);
    if (!key) continue;
    const auto r = store.lookup(*key);
    if (!r) continue;
    ++loaded;
    const std::string row = join(cells, ',');
    EXPECT_TRUE(std::isfinite(r->total_time) && std::isfinite(r->cost) &&
                std::isfinite(r->io_time) && std::isfinite(r->fs_bytes) &&
                std::isfinite(r->stalled_time) &&
                std::isfinite(r->lost_sim_time) &&
                std::isfinite(r->checkpoint_bytes))
        << row;
    // The instance count loaded is the cell's value, never a narrowing.
    ASSERT_EQ(cells.size(), 18u) << row;
    std::uint64_t instances = 0;
    std::from_chars(cells[4].data(), cells[4].data() + cells[4].size(),
                    instances);
    EXPECT_GE(r->num_instances, 0) << row;
    EXPECT_EQ(static_cast<std::uint64_t>(r->num_instances), instances) << row;
  }
  EXPECT_EQ(loaded, store.size());
  EXPECT_GT(loaded, 1u);
  EXPECT_GT(store.quarantined(), 0u);
  fsys::remove_all(dir);
}

}  // namespace
}  // namespace acic
