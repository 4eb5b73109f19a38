#include "server/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/vfs.hpp"
#include "serial/crc32.hpp"

namespace ns::server {

namespace {

serial::Bytes encode_record_payload(const JournalRecord& record) {
  serial::Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(record.type));
  enc.put_u64(record.request_id);
  enc.put_i64(record.wall_micros);
  enc.put_f64(record.deadline_remaining_s);
  enc.put_u64(record.iteration);
  enc.put_f64(record.residual);
  enc.put_bytes(record.data.data(), record.data.size());
  return enc.take();
}

// fsync the directory holding `path`. rename() and O_CREAT make the new
// *name* durable only once the directory inode itself is flushed; without
// this a crash right after journal compaction can leave the directory entry
// pointing at nothing — the torn-write window the checkpoint/journal audit
// found. Best-effort by design: some filesystems refuse O_RDONLY|O_DIRECTORY
// fsync, and the data-file fsync already happened.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

Status write_all(int fd, const std::string& path, const serial::Bytes& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = vfs::write(fd, path, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return make_error(ErrorCode::kInternal,
                        std::string("journal write: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return ok_status();
}

}  // namespace

void JournalRecord::frame(serial::Bytes& out) const {
  const serial::Bytes payload = encode_record_payload(*this);
  serial::Encoder header;
  header.put_u32(static_cast<std::uint32_t>(payload.size()));
  header.put_u32(serial::crc32(payload.data(), payload.size()));
  const serial::Bytes& head = header.bytes();
  out.insert(out.end(), head.begin(), head.end());
  out.insert(out.end(), payload.begin(), payload.end());
}

Status Journal::open(std::string path, bool fsync_each) {
  close();
  const int fd = vfs::open(path, O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return make_error(ErrorCode::kInternal,
                      "journal open " + path + ": " + std::strerror(errno));
  }
  struct stat st{};
  fd_ = fd;
  fsync_each_ = fsync_each;
  frozen_ = false;
  poisoned_ = false;
  path_ = std::move(path);
  bytes_ = (::fstat(fd, &st) == 0) ? static_cast<std::uint64_t>(st.st_size) : 0;
  // A freshly created journal's directory entry must survive a crash too,
  // or replay-on-restart opens a directory that never heard of the file.
  if (bytes_ == 0) fsync_parent_dir(path_);
  return ok_status();
}

// Fail-stop: after the first failed write or sync the journal's on-disk tail
// is in an unknown state (possibly torn). Appending more records behind a
// torn one would be worse than useless — replay stops at the first bad frame,
// so everything after it would be silently lost while looking durable. Poison
// the journal instead: close the descriptor, fail every later append fast,
// and let the server drop to explicitly non-durable mode.
void Journal::poison() {
  if (fd_ >= 0) vfs::close(fd_);
  fd_ = -1;
  poisoned_ = true;
}

Status Journal::append(const JournalRecord& record) {
  if (frozen_) return ok_status();  // crash emulation: writes vanish
  if (poisoned_) {
    return make_error(ErrorCode::kInternal, "journal poisoned (fail-stop)");
  }
  if (fd_ < 0) return make_error(ErrorCode::kInternal, "journal not open");
  serial::Bytes framed;
  record.frame(framed);
  auto written = write_all(fd_, path_, framed);
  if (!written.ok()) {
    poison();
    return written;
  }
  if (fsync_each_ && vfs::fdatasync(fd_, path_) != 0) {
    poison();
    return make_error(ErrorCode::kInternal,
                      std::string("journal fsync: ") + std::strerror(errno));
  }
  bytes_ += framed.size();
  return ok_status();
}

Status Journal::rewrite(const std::vector<JournalRecord>& records) {
  if (frozen_) return ok_status();
  if (poisoned_) {
    return make_error(ErrorCode::kInternal, "journal poisoned (fail-stop)");
  }
  if (fd_ < 0) return make_error(ErrorCode::kInternal, "journal not open");
  const std::string tmp = path_ + ".tmp";
  const int fd = vfs::open(tmp, O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return make_error(ErrorCode::kInternal,
                      "journal compact open " + tmp + ": " + std::strerror(errno));
  }
  serial::Bytes framed;
  for (const auto& record : records) record.frame(framed);
  auto written = write_all(fd, tmp, framed);
  if (written.ok() && vfs::fsync(fd, tmp) != 0) {
    written = make_error(ErrorCode::kInternal,
                         std::string("journal compact fsync: ") + std::strerror(errno));
  }
  vfs::close(fd);
  if (!written.ok()) {
    vfs::unlink(tmp);
    return written;  // old journal intact; not poisoned — appends still valid
  }
  vfs::crash_point("journal.compact.before_rename");
  if (vfs::rename(tmp, path_) != 0) {
    vfs::unlink(tmp);
    return make_error(ErrorCode::kInternal,
                      std::string("journal compact rename: ") + std::strerror(errno));
  }
  vfs::crash_point("journal.compact.after_rename");
  // The rename is atomic but not durable until the directory flushes: a
  // crash here could resurrect the pre-compaction journal — or nothing.
  fsync_parent_dir(path_);
  // Swing the append descriptor onto the new file.
  vfs::close(fd_);
  fd_ = vfs::open(path_, O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    // No descriptor to append through: the journal is effectively dead.
    poisoned_ = true;
    return make_error(ErrorCode::kInternal,
                      "journal reopen " + path_ + ": " + std::strerror(errno));
  }
  bytes_ = framed.size();
  return ok_status();
}

void Journal::freeze() {
  if (fd_ >= 0) vfs::close(fd_);
  fd_ = -1;
  frozen_ = true;
}

void Journal::close() {
  if (fd_ >= 0) vfs::close(fd_);
  fd_ = -1;
  frozen_ = false;
  poisoned_ = false;
}

namespace {

/// Per-id replay state, folded record by record.
struct JobTrace {
  bool admitted = false;
  bool terminal = false;
  RecoveredJob job;
};

bool apply_record(const JournalRecord& record, std::map<std::uint64_t, JobTrace>& traces,
                  std::vector<std::uint64_t>& order, ReplaySummary& summary) {
  auto& trace = traces[record.request_id];
  switch (record.type) {
    case JournalRecordType::kAdmitted: {
      if (trace.terminal || trace.admitted) return true;  // duplicate: idempotent
      serial::Decoder dec(record.data);
      auto request = proto::SolveRequest::decode(dec);
      if (!request.ok()) return false;
      trace.admitted = true;
      trace.job.request = std::move(request).value();
      trace.job.admitted_wall_micros = record.wall_micros;
      trace.job.deadline_remaining_s = record.deadline_remaining_s;
      order.push_back(record.request_id);
      return true;
    }
    case JournalRecordType::kStarted:
      trace.job.started = true;
      return true;
    case JournalRecordType::kCheckpoint:
      trace.job.snapshot.iteration = record.iteration;
      trace.job.snapshot.residual = record.residual;
      trace.job.snapshot.state = record.data;
      return true;
    case JournalRecordType::kCompleted:
    case JournalRecordType::kCancelled: {
      trace.terminal = true;
      if (record.data.empty()) return true;
      serial::Decoder dec(record.data);
      auto result = proto::SolveResult::decode(dec);
      if (!result.ok()) return false;
      // First terminal record wins; duplicates are skipped cleanly.
      summary.completed.emplace(record.request_id, std::move(result).value());
      return true;
    }
  }
  return false;  // unknown record type: corrupt byte, skip
}

}  // namespace

ReplaySummary replay_journal_bytes(const serial::Bytes& bytes) {
  ReplaySummary summary;
  std::map<std::uint64_t, JobTrace> traces;
  std::vector<std::uint64_t> order;

  std::size_t pos = 0;
  while (bytes.size() - pos >= 8) {
    serial::Decoder header(bytes.data() + pos, 8);
    const std::uint32_t len = header.get_u32().value();
    const std::uint32_t crc = header.get_u32().value();
    if (len > bytes.size() - pos - 8) break;  // torn tail: stop cleanly
    const std::uint8_t* payload = bytes.data() + pos + 8;
    pos += 8 + len;
    if (serial::crc32(payload, len) != crc) {
      ++summary.skipped;  // damaged record; the length prefix still frames it
      continue;
    }
    serial::Decoder dec(payload, len);
    JournalRecord record;
    auto type = dec.get_u8();
    auto request_id = dec.get_u64();
    auto stamp = dec.get_i64();
    auto deadline = dec.get_f64();
    auto iteration = dec.get_u64();
    auto residual = dec.get_f64();
    if (!type.ok() || !request_id.ok() || !stamp.ok() || !deadline.ok() ||
        !iteration.ok() || !residual.ok()) {
      ++summary.skipped;
      continue;
    }
    auto data = dec.get_blob();
    if (!data.ok() || !dec.exhausted()) {
      ++summary.skipped;
      continue;
    }
    record.type = static_cast<JournalRecordType>(type.value());
    record.request_id = request_id.value();
    record.wall_micros = stamp.value();
    record.deadline_remaining_s = deadline.value();
    record.iteration = iteration.value();
    record.residual = residual.value();
    record.data = std::move(data).value();
    if (apply_record(record, traces, order, summary)) {
      ++summary.records;
    } else {
      ++summary.skipped;
    }
  }

  for (const std::uint64_t id : order) {
    auto& trace = traces[id];
    if (!trace.terminal) summary.unfinished.push_back(std::move(trace.job));
  }
  return summary;
}

Result<ReplaySummary> replay_journal(const std::string& path) {
  const int fd = vfs::open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return ReplaySummary{};  // first boot: empty journal
    return make_error(ErrorCode::kInternal,
                      "journal read " + path + ": " + std::strerror(errno));
  }
  serial::Bytes bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = vfs::read(fd, path, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      vfs::close(fd);
      return make_error(ErrorCode::kInternal,
                        "journal read " + path + ": " + std::strerror(err));
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  vfs::close(fd);
  return replay_journal_bytes(bytes);
}

}  // namespace ns::server
