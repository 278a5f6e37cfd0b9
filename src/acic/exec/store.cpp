#include "acic/exec/store.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>  // std::once_flag / std::call_once only (see acic_lint.py)
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "acic/common/crc32c.hpp"
#include "acic/common/error.hpp"
#include "acic/exec/crashpoint.hpp"
#include "acic/obs/metrics.hpp"

namespace acic::exec {

namespace {

// Row layout.  Doubles are written with %.17g, which round-trips every
// finite IEEE-754 double exactly — cold and warm results stay
// bit-identical through the CSV.  The first header cell doubles as the
// schema version tag (it names the record schema's generation) and the
// last names the simulation epoch the rows were simulated under; a file
// that differs in either is sidelined whole.  Every data row carries one
// extra framing cell: the 8-hex-digit CRC32C of the payload in front of
// it.
const std::string kEpochCell =
    "sim_epoch=" + std::to_string(RunStore::kSimEpoch);
const std::string kHeader =
    std::string(RunStore::kVersionTag) +
    ",total_time,cost,io_time,num_instances,fs_requests,fs_bytes,"
    "sim_events,outcome,retries,timeouts,failed_requests,stalled_time,"
    "fault_events_cancelled,preemptions,restarts,lost_sim_time,"
    "checkpoint_bytes,crc32c," + kEpochCell;
constexpr std::size_t kColumns = 18;  // payload cells, excluding the frame

std::vector<std::string> split_row(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (char c : line) {
    if (c == ',') {
      cells.push_back(cell);
      cell.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  cells.push_back(cell);
  return cells;
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    // Reject overflow instead of wrapping: a corrupt >20-digit counter
    // must never be accepted as a small believable value.
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  out = v;
  return true;
}

bool parse_outcome(const std::string& text, io::RunOutcome& out) {
  if (text == "ok") {
    out = io::RunOutcome::kOk;
  } else if (text == "degraded") {
    out = io::RunOutcome::kDegraded;
  } else if (text == "failed") {
    out = io::RunOutcome::kFailed;
  } else {
    return false;
  }
  return true;
}

/// Parse and validate one CRC-verified payload; false = quarantine it.
bool parse_row(const std::string& line, RunKey& key, io::RunResult& r) {
  const auto cells = split_row(line);
  if (cells.size() != kColumns) return false;
  const auto parsed_key = RunKey::from_hex(cells[0]);
  if (!parsed_key) return false;
  key = *parsed_key;
  std::uint64_t instances = 0;
  if (!parse_double(cells[1], r.total_time) ||
      !parse_double(cells[2], r.cost) ||
      !parse_double(cells[3], r.io_time) ||
      !parse_u64(cells[4], instances) ||
      !parse_u64(cells[5], r.fs_requests) ||
      !parse_double(cells[6], r.fs_bytes) ||
      !parse_u64(cells[7], r.sim_events) ||
      !parse_outcome(cells[8], r.outcome) ||
      !parse_u64(cells[9], r.retries) ||
      !parse_u64(cells[10], r.timeouts) ||
      !parse_u64(cells[11], r.failed_requests) ||
      !parse_double(cells[12], r.stalled_time) ||
      !parse_u64(cells[13], r.fault_events_cancelled) ||
      !parse_u64(cells[14], r.preemptions) ||
      !parse_u64(cells[15], r.restarts) ||
      !parse_double(cells[16], r.lost_sim_time) ||
      !parse_double(cells[17], r.checkpoint_bytes)) {
    return false;
  }
  // An instance count beyond int would narrow to a small, believable one.
  if (instances > static_cast<std::uint64_t>(
                      std::numeric_limits<int>::max())) {
    return false;
  }
  r.num_instances = static_cast<int>(instances);
  if (!std::isfinite(r.total_time) || !std::isfinite(r.cost) ||
      !std::isfinite(r.io_time) || !std::isfinite(r.fs_bytes) ||
      !std::isfinite(r.stalled_time) || !std::isfinite(r.lost_sim_time) ||
      !std::isfinite(r.checkpoint_bytes) || r.total_time < 0.0) {
    return false;
  }
  // A row claiming a usable grade must carry a believable measurement;
  // only rows honestly marked `failed` may hold meaningless timings.
  if (r.outcome != io::RunOutcome::kFailed &&
      (r.total_time <= 0.0 || r.cost <= 0.0)) {
    return false;
  }
  return true;
}

std::string format_row(const RunKey& key, const io::RunResult& r) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "%s,%.17g,%.17g,%.17g,%d,%llu,%.17g,%llu,%s,%llu,%llu,%llu,%.17g,%llu,"
      "%llu,%llu,%.17g,%.17g",
      key.hex().c_str(), r.total_time, r.cost, r.io_time, r.num_instances,
      static_cast<unsigned long long>(r.fs_requests), r.fs_bytes,
      static_cast<unsigned long long>(r.sim_events), io::to_string(r.outcome),
      static_cast<unsigned long long>(r.retries),
      static_cast<unsigned long long>(r.timeouts),
      static_cast<unsigned long long>(r.failed_requests), r.stalled_time,
      static_cast<unsigned long long>(r.fault_events_cancelled),
      static_cast<unsigned long long>(r.preemptions),
      static_cast<unsigned long long>(r.restarts), r.lost_sim_time,
      r.checkpoint_bytes);
  return buf;
}

/// Splits a framed line into payload and verifies its CRC cell.
bool unframe(const std::string& line, std::string& payload) {
  const auto comma = line.rfind(',');
  if (comma == std::string::npos || line.size() - comma - 1 != 8) {
    return false;
  }
  std::uint32_t crc = 0;
  for (std::size_t i = comma + 1; i < line.size(); ++i) {
    const char c = line[i];
    std::uint32_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return false;
    }
    crc = crc << 4 | nibble;
  }
  payload = line.substr(0, comma);
  if (crc32c(payload) != crc) return false;
  return true;
}

std::string strerr() { return std::strerror(errno); }

/// Whole-file read; returns false with `exists` cleared when the file is
/// absent, throws on a file that exists but cannot be read.
bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (!std::filesystem::exists(path)) return false;
    throw Error("cannot read run store " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

int open_retry(const char* path, int flags, mode_t mode = 0) {
  int fd;
  do {
    fd = ::open(path, flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

/// Full write with EINTR retry; returns bytes written (may be short on
/// ENOSPC — the caller decides how to scrub the partial record).
std::size_t write_all(int fd, const char* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    done += static_cast<std::size_t>(n);
  }
  return done;
}

struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

/// Everything one pass over runs.csv learns.  `good_bytes` is the byte
/// offset just past the last well-formed (or quarantinable-but-
/// complete) record — the truncation point when the tail is torn.
struct RunStore::ScanResult {
  std::vector<std::pair<RunKey, io::RunResult>> rows;
  std::vector<std::string> bad;  ///< complete interior records to quarantine
  std::uint64_t good_bytes = 0;
  std::uint64_t ino = 0;
  std::uint64_t file_size = 0;
  bool torn = false;          ///< bytes past good_bytes are a torn tail
  bool fresh = false;         ///< no file / empty file: header must be written
  bool incompatible = false;  ///< complete foreign header: sideline whole
};

RunStore::RunStore(std::string dir) : dir_(std::move(dir)) {
  namespace fsys = std::filesystem;
  static std::once_flag crashpoint_once;
  std::call_once(crashpoint_once, [] { Crashpoints::arm_from_env(); });

  auto& registry = obs::MetricsRegistry::global();
  torn_metric_ = &registry.counter("exec.store.torn_tail");
  quarantined_metric_ = &registry.counter("exec.store_quarantined");
  quarantine_dropped_metric_ =
      &registry.counter("exec.store.quarantine_dropped");
  replayed_metric_ = &registry.counter("exec.store.replayed_rows");
  compactions_metric_ = &registry.counter("exec.store.compactions");

  std::error_code ec;
  fsys::create_directories(dir_, ec);
  if (ec) {
    throw Error("cannot create run store directory " + dir_ + ": " +
                ec.message());
  }
  runs_path_ = (fsys::path(dir_) / "runs.csv").string();
  tmp_path_ = runs_path_ + ".tmp";
  lock_ = std::make_unique<FileLock>(
      (fsys::path(dir_) / kLockFileName).string());
  if (!lock_->valid()) {
    throw Error("cannot create run store lock in " + dir_ + ": " + strerr());
  }

  // The mutex is uncontended during construction (no other thread sees
  // this instance yet), but the recovery helpers' lock contracts are
  // unconditional — hold it rather than carve out a constructor
  // exception.  Lock order holds: mutex_ before the flock.
  MutexLock lock(&mutex_);
  // Fast path under a shared lock: a clean file (the common case) loads
  // without blocking concurrent readers or appenders.
  {
    ScopedFileLock shared(*lock_, ScopedFileLock::Mode::kShared);
    if (!shared.held()) throw Error("cannot lock run store " + dir_);
    auto scan = scan_file();
    if (adopt_clean_scan(scan)) return;
  }
  // Something needs writing (missing header, torn tail, corrupt rows,
  // foreign schema): upgrade to exclusive and re-scan — another process
  // may have repaired, or appended, between the two locks.
  recover_exclusive();
}

bool RunStore::adopt_clean_scan(const ScanResult& scan) {
  if (scan.fresh || scan.incompatible || scan.torn || !scan.bad.empty()) {
    return false;
  }
  rows_.clear();
  for (const auto& [key, result] : scan.rows) rows_.emplace(key, result);
  replay_ino_ = scan.ino;
  replay_offset_ = scan.good_bytes;
  return true;
}

void RunStore::recover_exclusive() {
  ScopedFileLock exclusive(*lock_, ScopedFileLock::Mode::kExclusive);
  if (!exclusive.held()) throw Error("cannot lock run store " + dir_);
  auto scan = scan_file();
  if (adopt_clean_scan(scan)) return;  // someone else repaired already

  if (scan.incompatible) {
    // Different schema generation or simulation epoch: sideline the
    // whole file rather than guess at its row meaning (or serve results
    // of another simulator), and start fresh.
    std::error_code ec;
    std::filesystem::rename(runs_path_, runs_path_ + ".incompatible", ec);
    if (ec) {
      throw Error("cannot sideline incompatible run store " + runs_path_ +
                  ": " + ec.message());
    }
    scan = ScanResult{};
    scan.fresh = true;
  }

  rows_.clear();
  for (const auto& [key, result] : scan.rows) rows_.emplace(key, result);
  if (scan.torn) note_torn_tail();
  if (!scan.bad.empty()) quarantine_records(scan.bad);

  if (!scan.fresh && scan.bad.empty()) {
    // Torn tail only: surgically truncate the unacknowledged bytes; the
    // live file keeps its identity (other processes' replay cursors
    // stay valid).
    if (::truncate(runs_path_.c_str(), static_cast<off_t>(scan.good_bytes)) !=
        0) {
      throw Error("cannot truncate torn run store tail " + runs_path_ + ": " +
                  strerr());
    }
    refresh_replay_position();
    return;
  }
  // Fresh header and/or quarantined rows: atomically rewrite the whole
  // file (header + survivors) — never truncate the live file in place.
  rewrite_locked();
}

RunStore::ScanResult RunStore::scan_file() const {
  ScanResult scan;
  std::string content;
  if (!read_file(runs_path_, content)) {
    scan.fresh = true;
    return scan;
  }
  struct stat st {};
  if (::stat(runs_path_.c_str(), &st) == 0) {
    scan.ino = static_cast<std::uint64_t>(st.st_ino);
  }
  scan.file_size = content.size();
  if (content.empty()) {
    scan.fresh = true;
    return scan;
  }

  const auto header_end = content.find('\n');
  if (header_end == std::string::npos) {
    // A file that is nothing but an unterminated prefix of our own
    // header is a crash during header initialization — recover it as a
    // torn tail.  Anything else is an unknown format: sideline it.
    if (kHeader.compare(0, content.size(), content) == 0) {
      scan.fresh = true;
      scan.torn = true;
      return scan;
    }
    scan.incompatible = true;
    return scan;
  }
  {
    std::string first_line = content.substr(0, header_end);
    if (!first_line.empty() && first_line.back() == '\r') first_line.pop_back();
    const auto header = split_row(first_line);
    if (header[0] != kVersionTag || header.back() != kEpochCell) {
      scan.incompatible = true;
      return scan;
    }
  }
  scan.good_bytes = header_end + 1;

  std::size_t pos = header_end + 1;
  while (pos < content.size()) {
    const auto nl = content.find('\n', pos);
    if (nl == std::string::npos) {
      // Unterminated trailing bytes: a torn append (or a concurrent
      // writer's record caught mid-flight during replay).
      scan.torn = true;
      break;
    }
    std::string line = content.substr(pos, nl - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    pos = nl + 1;
    if (line.empty()) {
      scan.good_bytes = pos;
      continue;
    }
    std::string payload;
    if (unframe(line, payload)) {
      RunKey key;
      io::RunResult result;
      if (parse_row(payload, key, result)) {
        scan.rows.emplace_back(key, result);
      } else {
        scan.bad.push_back(line);  // CRC fine, content invalid: corrupt
      }
      scan.good_bytes = pos;
    } else {
      // Bad CRC on a fully newline-terminated record — even the final
      // one.  A torn single-write(2) append can never persist the
      // trailing newline without the payload bytes in front of it, so
      // terminated-but-bad-CRC is real corruption (bit rot, a foreign
      // writer), not a torn tail: quarantine it for forensics.
      scan.bad.push_back(line);
      scan.good_bytes = pos;
    }
  }
  return scan;
}

void RunStore::note_torn_tail() {
  ++torn_tails_;
  torn_metric_->inc();
}

void RunStore::quarantine_records(const std::vector<std::string>& lines) {
  const auto path =
      (std::filesystem::path(dir_) / "quarantine.csv").string();
  std::ofstream q(path, std::ios::app);
  for (const auto& line : lines) q << line << "\n";
  q.flush();
  if (!q) {
    // The forensic copy could not be written — likely ENOSPC, i.e.
    // exactly when the store is already failing.  The rows still leave
    // the live set, but count them as dropped rather than letting the
    // metrics claim they were sidelined.
    quarantine_dropped_ += lines.size();
    quarantine_dropped_metric_->add(static_cast<double>(lines.size()));
    std::fprintf(stderr,
                 "acic: cannot write %zu quarantined record(s) to %s; "
                 "forensic copies lost\n",
                 lines.size(), path.c_str());
    return;
  }
  quarantined_ += lines.size();
  quarantined_metric_->add(static_cast<double>(lines.size()));
}

void RunStore::refresh_replay_position() {
  struct stat st {};
  if (::stat(runs_path_.c_str(), &st) == 0) {
    replay_ino_ = static_cast<std::uint64_t>(st.st_ino);
    replay_offset_ = static_cast<std::uint64_t>(st.st_size);
  } else {
    replay_ino_ = 0;
    replay_offset_ = 0;
  }
}

void RunStore::rewrite_locked() {
  // Stage the complete survivor set, fsync, then atomically replace the
  // live file.  A crash at any point leaves either the old complete
  // runs.csv or the new one — never a truncated hybrid.
  std::string content = kHeader + "\n";
  for (const auto& [key, result] : rows_) {
    content += frame(format_row(key, result));
    content += '\n';
  }

  const int fd = open_retry(tmp_path_.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw Error("cannot stage run store rewrite " + tmp_path_ + ": " +
                strerr());
  }
  {
    FdCloser closer{fd};
    if (const auto crash = Crashpoints::on_write("store.compact")) {
      if (*crash == CrashMode::kBeforeWrite) Crashpoints::die();
      if (*crash == CrashMode::kTornWrite) {
        (void)write_all(fd, content.data(), content.size() / 2);
        Crashpoints::die();
      }
      (void)write_all(fd, content.data(), content.size());
      Crashpoints::die();
    }
    if (write_all(fd, content.data(), content.size()) != content.size()) {
      throw Error("cannot write run store rewrite " + tmp_path_ + ": " +
                  strerr());
    }
    if (::fsync(fd) != 0) {
      throw Error("cannot sync run store rewrite " + tmp_path_ + ": " +
                  strerr());
    }
  }
  if (Crashpoints::on_write("store.compact.rename")) Crashpoints::die();
  if (::rename(tmp_path_.c_str(), runs_path_.c_str()) != 0) {
    throw Error("cannot publish run store rewrite " + runs_path_ + ": " +
                strerr());
  }
  // Persist the rename itself (best-effort: some filesystems refuse
  // directory fsync; the data file is already synced).
  if (const int dirfd = open_retry(dir_.c_str(), O_RDONLY | O_DIRECTORY);
      dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
  ++compactions_;
  compactions_metric_->inc();
  replay_offset_ = content.size();
  struct stat st {};
  if (::stat(runs_path_.c_str(), &st) == 0) {
    replay_ino_ = static_cast<std::uint64_t>(st.st_ino);
  }
}

std::string RunStore::frame(const std::string& payload) {
  char crc_hex[10];
  std::snprintf(crc_hex, sizeof(crc_hex), ",%08x", crc32c(payload));
  return payload + crc_hex;
}

std::optional<io::RunResult> RunStore::lookup(const RunKey& key) {
  MutexLock lock(&mutex_);
  if (const auto it = rows_.find(key); it != rows_.end()) return it->second;
  // Miss: another process sharing this directory may have appended the
  // run since we last read — replay before giving up.
  replay_appended_locked();
  if (const auto it = rows_.find(key); it != rows_.end()) return it->second;
  return std::nullopt;
}

void RunStore::replay_appended_locked() {
  // Best-effort by contract: lookup() must never throw, so any hiccup
  // here simply means "no new rows visible yet".
  ScopedFileLock shared(*lock_, ScopedFileLock::Mode::kShared);
  if (!shared.held()) return;
  struct stat st {};
  if (::stat(runs_path_.c_str(), &st) != 0) return;
  const auto ino = static_cast<std::uint64_t>(st.st_ino);
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (ino == replay_ino_ && size == replay_offset_) return;

  std::size_t fresh_rows = 0;
  if (ino == replay_ino_ && size > replay_offset_) {
    // Same file grew: incrementally parse the appended region.  The
    // cursor always rests on a record boundary, and an unterminated or
    // bad-CRC tail is left unconsumed (a concurrent append may still be
    // landing); it heals on the next replay or the next open.
    std::ifstream in(runs_path_, std::ios::binary);
    if (!in) return;
    in.seekg(static_cast<std::streamoff>(replay_offset_));
    std::string chunk(static_cast<std::size_t>(size - replay_offset_), '\0');
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    if (in.gcount() <= 0) return;
    chunk.resize(static_cast<std::size_t>(in.gcount()));

    std::size_t pos = 0;
    std::uint64_t consumed = 0;
    while (pos < chunk.size()) {
      const auto nl = chunk.find('\n', pos);
      if (nl == std::string::npos) break;
      std::string line = chunk.substr(pos, nl - pos);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const bool is_last = nl + 1 >= chunk.size();
      std::string payload;
      if (!line.empty()) {
        if (unframe(line, payload)) {
          RunKey key;
          io::RunResult result;
          if (parse_row(payload, key, result) &&
              rows_.emplace(key, result).second) {
            ++fresh_rows;
          }
        } else if (is_last) {
          // Bad CRC at the end of the replay window: either a
          // concurrent append caught mid-visibility or real corruption.
          // Replay holds only a shared lock and cannot rewrite — leave
          // it unconsumed for open-time recovery to judge.
          break;
        }
      }
      pos = nl + 1;
      consumed = pos;
    }
    replay_offset_ += consumed;
  } else {
    // The file shrank or was replaced (a compaction, or a quarantine
    // rewrite, by another process): reload it whole and union the rows.
    ScanResult scan;
    try {
      scan = scan_file();
    } catch (const std::exception&) {
      return;
    }
    if (scan.fresh || scan.incompatible) return;
    for (const auto& [key, result] : scan.rows) {
      if (rows_.emplace(key, result).second) ++fresh_rows;
    }
    replay_ino_ = scan.ino;
    replay_offset_ = scan.good_bytes;
  }
  if (fresh_rows > 0) {
    replayed_ += fresh_rows;
    replayed_metric_->add(static_cast<double>(fresh_rows));
  }
}

void RunStore::put(const RunKey& key, const io::RunResult& result) {
  MutexLock lock(&mutex_);
  const auto [it, inserted] = rows_.emplace(key, result);
  if (!inserted) return;  // already present (content-addressed)
  try {
    append_record(frame(format_row(key, result)) + "\n");
  } catch (...) {
    // The record was never durably acknowledged: roll the row back out
    // of memory so a later compact() cannot resurrect it.
    rows_.erase(it);
    throw;
  }
}

void RunStore::append_record(const std::string& line) {
  ScopedFileLock shared(*lock_, ScopedFileLock::Mode::kShared);
  if (!shared.held()) throw Error("cannot lock run store " + dir_);
  // No O_CREAT: the header was folded into the (exclusively locked)
  // open path, so a missing file here means the store was yanked out
  // from under us — fail and let the executor degrade, rather than
  // silently recreating a headerless file.
  const int fd =
      open_retry(runs_path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    throw Error("cannot append to run store " + runs_path_ + ": " + strerr());
  }
  FdCloser closer{fd};

  if (const auto crash = Crashpoints::on_write("store.append")) {
    if (*crash == CrashMode::kBeforeWrite) Crashpoints::die();
    if (*crash == CrashMode::kTornWrite) {
      (void)write_all(fd, line.data(), line.size() / 2);
      Crashpoints::die();
    }
    (void)write_all(fd, line.data(), line.size());
    Crashpoints::die();
  }

  const std::size_t written = write_all(fd, line.data(), line.size());
  if (written != line.size()) {
    const int saved_errno = errno;
    // Partial record on disk (ENOSPC mid-write).  Scrub it if it is
    // still the tail, so it cannot glue onto a neighbour's later append
    // and corrupt *their* acknowledged record.
    if (written > 0 && lock_->lock_exclusive()) {
      struct stat st {};
      if (::fstat(fd, &st) == 0 &&
          static_cast<std::size_t>(st.st_size) >= written) {
        std::string tail(written, '\0');
        const auto tail_at = static_cast<off_t>(st.st_size) -
                             static_cast<off_t>(written);
        if (::pread(fd, tail.data(), written, tail_at) ==
                static_cast<ssize_t>(written) &&
            tail.compare(0, written, line, 0, written) == 0) {
          (void)::ftruncate(fd, tail_at);
        }
      }
    }
    throw Error("short append to run store " + runs_path_ + ": " +
                std::strerror(saved_errno));
  }
  // The record is acknowledged only once it is durable.
  if (::fsync(fd) != 0) {
    throw Error("cannot sync run store append " + runs_path_ + ": " +
                strerr());
  }
}

void RunStore::compact() {
  MutexLock lock(&mutex_);
  ScopedFileLock exclusive(*lock_, ScopedFileLock::Mode::kExclusive);
  if (!exclusive.held()) throw Error("cannot lock run store " + dir_);
  // Merge the on-disk state first: compaction must never drop a record
  // another writer acknowledged since our last replay.
  auto scan = scan_file();
  if (!scan.incompatible) {
    for (const auto& [key, result] : scan.rows) rows_.emplace(key, result);
    if (scan.torn) note_torn_tail();
    if (!scan.bad.empty()) quarantine_records(scan.bad);
  }
  rewrite_locked();
}

std::size_t RunStore::size() const {
  MutexLock lock(&mutex_);
  return rows_.size();
}

std::uint64_t RunStore::bytes_on_disk() const {
  std::error_code ec;
  const auto size = std::filesystem::file_size(runs_path_, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace acic::exec
