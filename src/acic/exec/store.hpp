// Persistent tier of the execution engine's run cache: a content-
// addressed on-disk table of finished simulation results, keyed by
// RunKey — crash-safe and shareable between processes.
//
// Layout (one directory per store):
//   runs.csv        — header naming the schema and simulation epoch +
//                     one CRC-framed record per run
//   runs.csv.tmp    — compaction staging file (atomically renamed over
//                     runs.csv; a leftover tmp from a crashed compactor
//                     is inert and overwritten by the next rewrite)
//   quarantine.csv  — records that failed validation, kept for
//                     forensics instead of silently dropped
//   .store.lock     — advisory flock coordination point (stable across
//                     the rename-replacement of runs.csv)
//
// Durability design (DESIGN.md §10):
//
//  * Record framing.  Every data row carries a trailing CRC32C cell
//    over its payload.  On open, *unterminated* trailing bytes are a
//    torn write: truncated silently (counted in
//    `exec.store.torn_tail`), because a crash mid-append can only tear
//    the last record and that record was never acknowledged.  A
//    newline-terminated record with a bad CRC — tail or interior —
//    cannot be a torn single-write append (the newline is the last
//    byte, so a partial write never persists it without the payload):
//    it is corruption, and is quarantined along with rows whose CRC
//    passes but whose content fails validation (wrong arity, bad key
//    hex, non-numeric or overflowing cells, unknown outcome,
//    non-positive timings on rows claiming a clean outcome).  A
//    quarantine copy that itself cannot be written (ENOSPC) is counted
//    in `exec.store.quarantine_dropped` instead of claimed sidelined.
//  * Atomic rewrite.  Quarantine repair and compact() stage the full
//    survivor set in runs.csv.tmp, fsync, then rename(2) over the live
//    file — runs.csv is never truncated in place, so a crash leaves
//    either the old complete file or the new complete file.
//  * Single-write appends.  Each record is one write(2) on an O_APPEND
//    descriptor, so concurrent appenders cannot interleave mid-row, and
//    each append is fsync'd before put() acknowledges it.
//  * Multi-process coordination.  Advisory flock on `.store.lock`:
//    shared for replay and appends, exclusive for anything that
//    replaces or truncates runs.csv (open-time repair, compaction,
//    header initialization — which is why two racing first-appends can
//    no longer both write the header).  A lookup miss replays records
//    appended by other processes since the last read; a compaction by
//    another process (inode change) triggers a full reload.
//
// Two lock layers, one order (DESIGN.md §11).  The store is protected
// by two orthogonal locks that must never be conflated:
//
//    acic::Mutex mutex_   — *in-process* exclusion.  Guards the
//                           in-memory row map, the stats counters and
//                           the replay cursor; compile-time checked via
//                           ACIC_GUARDED_BY/ACIC_REQUIRES under Clang
//                           `-Wthread-safety`.
//    flock(.store.lock)   — *cross-process* coordination.  Guards the
//                           bytes of runs.csv against other processes;
//                           invisible to the static analysis (the OS
//                           holds it), so its discipline lives in the
//                           ScopedFileLock call sites below.
//
//    Lock order: mutex_ is ALWAYS acquired before the file lock and
//    released after it.  The file lock never wraps a mutex_ acquire,
//    so the two layers cannot deadlock against each other.
//
// Failure policy: constructor, put() and compact() throw acic::Error on
// I/O failure (the Executor catches and degrades to memo-only);
// lookup() never throws — replay is best-effort.  put() rolls its row
// back out of memory when the append fails, so a later compact() cannot
// resurrect a record that was never durably acknowledged.
//
// Thread-safe within one process; safe between processes via flock.
// Two RunStore instances on one directory — same or different
// processes — see each other's rows.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "acic/common/filelock.hpp"
#include "acic/common/mutex.hpp"
#include "acic/common/thread_annotations.hpp"
#include "acic/exec/runkey.hpp"
#include "acic/io/runner.hpp"

namespace acic::obs {
class Counter;
}  // namespace acic::obs

namespace acic::exec {

class RunStore {
 public:
  /// Opens (creating the directory if needed) and loads `dir`/runs.csv,
  /// recovering from torn tails and quarantining corrupt records.  An
  /// incompatible schema generation or simulation epoch sidelines the
  /// whole file.  Throws acic::Error when the directory, lock file or
  /// runs.csv cannot be created/read (e.g. a read-only cache directory).
  explicit RunStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Cache probe.  A miss replays records appended by other processes
  /// before answering.  Never throws.
  std::optional<io::RunResult> lookup(const RunKey& key)
      ACIC_EXCLUDES(mutex_);

  /// Insert-or-ignore: the store is content-addressed, so a key that is
  /// already present keeps its existing (identical) row.  The insert is
  /// acknowledged only once the framed record is durably appended;
  /// on failure the row is rolled back and acic::Error is thrown.
  void put(const RunKey& key, const io::RunResult& result)
      ACIC_EXCLUDES(mutex_);

  /// Atomically rewrites runs.csv as header + the full merged row set
  /// (other writers' records are replayed first, so compaction never
  /// drops their acknowledged rows).  Throws acic::Error on I/O failure.
  void compact() ACIC_EXCLUDES(mutex_);

  std::size_t size() const ACIC_EXCLUDES(mutex_);
  // The stats accessors lock: the counters are mutated under mutex_ by
  // concurrent lookup()-replay and compact(), so an unlocked read was a
  // (thread-safety-analysis-caught) data race.
  /// Corrupt records sidelined to quarantine.csv by this instance.
  std::size_t quarantined() const ACIC_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return quarantined_;
  }
  /// Corrupt records whose forensic copy could not be written (the
  /// quarantine.csv append itself failed); they left the live set but
  /// are not preserved.
  std::size_t quarantine_dropped() const ACIC_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return quarantine_dropped_;
  }
  /// Torn tail records truncated during recovery by this instance.
  std::size_t torn_tails() const ACIC_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return torn_tails_;
  }
  /// Records appended by other writers and replayed on lookup miss.
  std::size_t replayed() const ACIC_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return replayed_;
  }
  /// Atomic rewrites (open-time repair + explicit compact()) performed.
  std::size_t compactions() const ACIC_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return compactions_;
  }
  /// Current size of runs.csv in bytes (0 when nothing is cached yet).
  std::uint64_t bytes_on_disk() const;

  /// Frames `payload` as stored on disk: payload + "," + 8-hex CRC32C.
  /// Exposed so tests and tooling can synthesize valid records.
  static std::string frame(const std::string& payload);

  /// First header cell of runs.csv; bump together with the record
  /// schema (v2 added the CRC frame cell; v3 the preemption/checkpoint
  /// columns).
  static constexpr const char* kVersionTag = "acic_exec_store_v3";
  /// Simulation-semantics epoch, recorded as the header's last cell
  /// (`sim_epoch=N`).  Bump it with any model or solver change that moves
  /// a simulated result (tests/golden_results.inc pins them under it), so
  /// rows simulated by other semantics are sidelined instead of answering
  /// as current.  Epoch 1 (no cell) was the per-flow solver, 2 the
  /// path-group solver; 3 runs completion callbacks inside the
  /// completion event and fuses back-to-back waits, which moved only
  /// `sim_events`; 4 prices path groups in bottleneck levels with a
  /// local re-price, which moved results in their last bits.
  static constexpr int kSimEpoch = 4;
  static constexpr const char* kLockFileName = ".store.lock";

 private:
  struct ScanResult;

  // scan_file() reads only immutable paths (and the file itself under
  // the caller's flock), so it carries no lock contract; every helper
  // that touches the in-memory state requires mutex_.
  ScanResult scan_file() const;
  bool adopt_clean_scan(const ScanResult& scan) ACIC_REQUIRES(mutex_);
  void recover_exclusive() ACIC_REQUIRES(mutex_);
  void note_torn_tail() ACIC_REQUIRES(mutex_);
  void quarantine_records(const std::vector<std::string>& lines)
      ACIC_REQUIRES(mutex_);
  void rewrite_locked() ACIC_REQUIRES(mutex_);
  void append_record(const std::string& line) ACIC_REQUIRES(mutex_);
  void replay_appended_locked() ACIC_REQUIRES(mutex_);
  void refresh_replay_position() ACIC_REQUIRES(mutex_);

  // Immutable after construction.
  std::string dir_;
  std::string runs_path_;
  std::string tmp_path_;
  std::unique_ptr<FileLock> lock_;

  // In-process state: everything below is guarded by mutex_ (the
  // cross-process flock guards the *file*, never these members — see
  // the layering note in the file comment).
  mutable Mutex mutex_;
  std::unordered_map<RunKey, io::RunResult, RunKeyHash> rows_
      ACIC_GUARDED_BY(mutex_);
  std::size_t quarantined_ ACIC_GUARDED_BY(mutex_) = 0;
  std::size_t quarantine_dropped_ ACIC_GUARDED_BY(mutex_) = 0;
  std::size_t torn_tails_ ACIC_GUARDED_BY(mutex_) = 0;
  std::size_t replayed_ ACIC_GUARDED_BY(mutex_) = 0;
  std::size_t compactions_ ACIC_GUARDED_BY(mutex_) = 0;

  // Replay cursor: how far into runs.csv (and which inode) this
  // instance has consumed.
  std::uint64_t replay_ino_ ACIC_GUARDED_BY(mutex_) = 0;
  std::uint64_t replay_offset_ ACIC_GUARDED_BY(mutex_) = 0;

  // Process-wide instruments (exec.store.*), resolved once.
  obs::Counter* torn_metric_;
  obs::Counter* quarantined_metric_;
  obs::Counter* quarantine_dropped_metric_;
  obs::Counter* replayed_metric_;
  obs::Counter* compactions_metric_;
};

}  // namespace acic::exec
