// Write-ahead job journal.
//
// Durability for the server's job lifecycle, in the spirit of the NEOS
// Server's job database: every state transition is appended to a per-server
// journal file *before* the transition takes externally visible effect
// (ADMITTED before the job enters the queue, STARTED before the kernel runs,
// COMPLETED before the reply leaves). On a crash the next incarnation
// replays the journal, re-enqueues admitted-but-unfinished jobs with their
// deadline budget decayed by the downtime, and resumes started jobs from
// their last CHECKPOINT record.
//
// Record framing (little-endian, self-delimiting):
//
//   u32 payload_len | u32 crc32(payload) | payload
//
// and the payload itself is codec-encoded:
//
//   u8  type        (RecordType)
//   u64 request_id
//   i64 wall_micros (append time; wall clock so budgets survive restarts)
//   f64 deadline_remaining_s (0 = no deadline)
//   u64 iteration
//   f64 residual
//   blob data       (ADMITTED: SolveRequest; CHECKPOINT: kernel state;
//                    COMPLETED: SolveResult; else empty)
//
// Replay is forgiving by construction: a truncated tail (torn final write)
// ends replay cleanly; a record whose CRC or payload does not parse is
// skipped (the length prefix still frames it); duplicate COMPLETED records
// are idempotent. A corrupt journal can cost re-running a job from an
// earlier checkpoint — it can never re-run a *completed* job (COMPLETED
// wins over every other record for the same id) and never crashes the
// server.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "proto/messages.hpp"
#include "serial/codec.hpp"

namespace ns::server {

enum class JournalRecordType : std::uint8_t {
  kAdmitted = 1,
  kStarted = 2,
  kCheckpoint = 3,
  kCompleted = 4,
  kCancelled = 5,
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kAdmitted;
  std::uint64_t request_id = 0;
  std::int64_t wall_micros = 0;
  double deadline_remaining_s = 0.0;
  std::uint64_t iteration = 0;
  double residual = 0.0;
  serial::Bytes data;

  /// Frame the record (length + CRC + payload) onto `out`.
  void frame(serial::Bytes& out) const;
};

/// Append-only journal file. Thread-compatible: the server serializes
/// appends and compaction under its own journal mutex.
class Journal {
 public:
  Journal() = default;
  ~Journal() { close(); }
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open (creating if absent) the journal at `path`. With `fsync_each`,
  /// every append is fdatasync'd before returning — the WAL guarantee; off
  /// trades durability of the last few records for throughput.
  Status open(std::string path, bool fsync_each);

  /// Append one record (framed, then optionally synced). Fail-stop: the
  /// first write/sync failure poisons the journal — the on-disk tail may be
  /// torn, and appending behind a torn record would silently lose everything
  /// after it on replay. Once poisoned every append fails fast until the
  /// journal is re-opened.
  Status append(const JournalRecord& record);

  /// Atomically replace the journal contents with `records` (compaction):
  /// write a sibling temp file, fsync it, rename over the journal.
  Status rewrite(const std::vector<JournalRecord>& records);

  /// Emulate a crash: drop the file descriptor without flushing anything
  /// further. Every later append/rewrite becomes a silent no-op, exactly as
  /// if the process had been SIGKILLed at this instant.
  void freeze();

  void close();

  bool is_open() const noexcept { return fd_ >= 0; }
  /// True after a failed append/sync fail-stopped the journal.
  bool poisoned() const noexcept { return poisoned_; }
  const std::string& path() const noexcept { return path_; }
  /// Bytes appended since open/rewrite (compaction trigger).
  std::uint64_t byte_size() const noexcept { return bytes_; }

 private:
  void poison();

  int fd_ = -1;
  bool fsync_each_ = true;
  bool frozen_ = false;
  bool poisoned_ = false;
  std::string path_;
  std::uint64_t bytes_ = 0;
};

/// One unfinished job reconstructed from the journal.
struct RecoveredJob {
  proto::SolveRequest request;
  /// Wall-clock stamp of the ADMITTED record (deadline decay baseline).
  std::int64_t admitted_wall_micros = 0;
  /// Deadline budget remaining at admission (0 = none).
  double deadline_remaining_s = 0.0;
  bool started = false;
  /// Last checkpoint (iteration 0 = none; restart from scratch).
  checkpoint::Snapshot snapshot;
};

struct ReplaySummary {
  std::vector<RecoveredJob> unfinished;  // journal order (admission order)
  /// Terminal results (COMPLETED records) by request id, for reattaching
  /// clients that missed the original reply.
  std::map<std::uint64_t, proto::SolveResult> completed;
  std::size_t records = 0;  // well-formed records consumed
  std::size_t skipped = 0;  // corrupt/undecodable records skipped
};

/// Parse journal bytes. Never fails: corrupt records are skipped, a
/// truncated tail ends the scan.
ReplaySummary replay_journal_bytes(const serial::Bytes& bytes);

/// Read and parse the journal at `path`. A missing file is an empty journal.
Result<ReplaySummary> replay_journal(const std::string& path);

}  // namespace ns::server
