// Canonical run identity for the execution engine.
//
// Every ACIC phase boils down to "run (workload, config, options) through
// the simulator" — and because the simulator is deterministic per seed,
// two requests with the same *behavioural* inputs produce bit-identical
// results.  RunKey is the content address for that primitive: a 128-bit
// FNV-1a fingerprint over a canonical serialization of the inputs, stable
// across field-assignment order, float formatting, and the various
// equivalent spellings the option structs allow (a defaulted RAID member
// count, an un-normalized workload).
//
// Deliberately EXCLUDED from the fingerprint (see DESIGN.md §9):
//  * Workload::name            — a display label, never read by the model.
//  * RunOptions::tracer        — an observation tap; traced runs bypass
//                                the cache entirely (Executor refuses to
//                                answer them from memory, because the tap
//                                is a side effect a cache hit would skip).
//  * inert fault-model fields  — brownout_fraction when no brownouts are
//                                scheduled, retry shape when the policy is
//                                disabled, etc.  Two option structs that
//                                cannot behave differently share a key.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "acic/io/runner.hpp"

namespace acic::exec {

/// 128-bit content address of one simulation run.
struct RunKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend auto operator<=>(const RunKey&, const RunKey&) = default;

  /// 32 lowercase hex characters (hi then lo); the on-disk row key.
  std::string hex() const;
  /// Parse `hex()` output; nullopt on anything malformed.
  static std::optional<RunKey> from_hex(std::string_view text);
};

struct RunKeyHash {
  std::size_t operator()(const RunKey& k) const noexcept {
    return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// The canonical serialization the fingerprint hashes: a versioned,
/// tagged "field=value;" string with doubles rendered as IEEE-754 bit
/// patterns (format-independent) and every canonicalization rule applied.
/// Exposed for tests and debugging — production callers want run_key().
std::string canonical_run_fingerprint(const io::Workload& workload,
                                      const cloud::IoConfig& config,
                                      const io::RunOptions& options);

/// Fingerprint of one run request.  Invariant to field ordering, float
/// formatting, and behaviourally-equivalent option spellings; distinct
/// for anything that can change the simulated outcome (seed, jitter,
/// fault model, tuning, pricing mode, workload shape, configuration).
RunKey run_key(const io::Workload& workload, const cloud::IoConfig& config,
               const io::RunOptions& options);

}  // namespace acic::exec
