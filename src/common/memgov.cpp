#include "common/memgov.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/vfs.hpp"
#include "serial/crc32.hpp"

namespace ns::mem {

namespace {

// Spill file layout: magic, payload length, payload CRC, payload bytes.
// The header is fixed-width little-endian-as-stored (we read it back on the
// same host); the CRC catches bit rot injected through the vfs read hook.
constexpr std::uint32_t kSpillMagic = 0x4e535350;  // "NSSP"

struct SpillHeader {
  std::uint32_t magic = kSpillMagic;
  std::uint32_t crc = 0;
  std::uint64_t length = 0;
};

}  // namespace

// ---- SpillStore ----

void SpillStore::configure(const std::string& dir) {
  dir_ = dir;
  degraded_.store(false, std::memory_order_relaxed);
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    NS_WARN("mem") << "spill dir '" << dir_ << "' unusable (" << ec.message()
                   << "); spill disabled";
    dir_.clear();
  }
}

std::string SpillStore::path_for(std::uint64_t id) const {
  return dir_ + "/" + std::to_string(id) + ".spill";
}

Status SpillStore::save(std::uint64_t id, const std::vector<std::uint8_t>& bytes) {
  if (!enabled()) return make_error(ErrorCode::kInternal, "spill store disabled");
  const std::string path = path_for(id);
  const std::string tmp = path + ".tmp";
  const int fd = vfs::open(tmp, O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    degrade();
    metrics::counter("mem.spill_degraded_total").inc();
    return make_error(ErrorCode::kInternal,
                      std::string("spill open failed: ") + std::strerror(errno));
  }
  SpillHeader header;
  header.length = bytes.size();
  header.crc = serial::crc32(bytes.data(), bytes.size());
  const auto fail = [&](const char* what) -> Status {
    vfs::close(fd);
    vfs::unlink(tmp);
    degrade();
    metrics::counter("mem.spill_degraded_total").inc();
    return make_error(ErrorCode::kInternal, std::string("spill ") + what + " failed");
  };
  if (vfs::write(fd, tmp, &header, sizeof(header)) !=
      static_cast<ssize_t>(sizeof(header))) {
    return fail("header write");
  }
  if (!bytes.empty() &&
      vfs::write(fd, tmp, bytes.data(), bytes.size()) !=
          static_cast<ssize_t>(bytes.size())) {
    return fail("write");
  }
  if (vfs::fsync(fd, tmp) != 0) return fail("fsync");
  vfs::close(fd);
  if (vfs::rename(tmp, path) != 0) {
    vfs::unlink(tmp);
    degrade();
    metrics::counter("mem.spill_degraded_total").inc();
    return make_error(ErrorCode::kInternal, "spill rename failed");
  }
  return ok_status();
}

Result<std::vector<std::uint8_t>> SpillStore::load(std::uint64_t id) const {
  const std::string path = path_for(id);
  const int fd = vfs::open(path, O_RDONLY);
  if (fd < 0) {
    return make_error(ErrorCode::kInternal,
                      std::string("spill open failed: ") + std::strerror(errno));
  }
  // No CRC covers the length field, so check it against the file size
  // before allocating: a flipped high bit must not become a huge resize.
  SpillHeader header;
  struct stat st {};
  if (vfs::read(fd, path, &header, sizeof(header)) !=
          static_cast<ssize_t>(sizeof(header)) ||
      header.magic != kSpillMagic || ::fstat(fd, &st) != 0 ||
      st.st_size < static_cast<off_t>(sizeof(header)) ||
      header.length != static_cast<std::uint64_t>(st.st_size) - sizeof(header)) {
    vfs::close(fd);
    return make_error(ErrorCode::kInternal, "spill header corrupt");
  }
  std::vector<std::uint8_t> bytes;
  try {
    alloc_trip("mem.spill_load");
    bytes.resize(header.length);
  } catch (const std::bad_alloc&) {
    vfs::close(fd);
    return make_error(ErrorCode::kServerOverloaded, "allocation failed loading spill");
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = vfs::read(fd, path, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      vfs::close(fd);
      return make_error(ErrorCode::kInternal, "spill read truncated");
    }
    off += static_cast<std::size_t>(n);
  }
  vfs::close(fd);
  if (serial::crc32(bytes.data(), bytes.size()) != header.crc) {
    return make_error(ErrorCode::kInternal, "spill CRC mismatch");
  }
  return bytes;
}

void SpillStore::remove(std::uint64_t id) const {
  if (dir_.empty()) return;
  vfs::unlink(path_for(id));
}

// ---- AllocFaultInjector ----

AllocFaultInjector& AllocFaultInjector::instance() {
  static AllocFaultInjector injector;
  return injector;
}

void AllocFaultInjector::arm(AllocFaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_.reseed(plan.seed);
  rules_.clear();
  for (auto& rule : plan.rules) rules_.push_back(RuleState{std::move(rule), 0});
  armed_.store(!rules_.empty(), std::memory_order_relaxed);
}

void AllocFaultInjector::disarm_all() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  armed_.store(false, std::memory_order_relaxed);
  triggered_.store(0);
}

bool AllocFaultInjector::should_fail(std::string_view site) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& state : rules_) {
    const auto& rule = state.rule;
    if (!rule.site.empty() && site.compare(0, rule.site.size(), rule.site) != 0) continue;
    if (rule.max_triggers >= 0 && state.fired >= rule.max_triggers) continue;
    if (!rng_.bernoulli(rule.probability)) continue;
    ++state.fired;
    triggered_.fetch_add(1);
    metrics::counter("mem.bad_alloc_injected_total").inc();
    return true;
  }
  return false;
}

}  // namespace ns::mem
