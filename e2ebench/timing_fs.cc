#include "timing_fs.h"

#include <chrono>

namespace e2ebench {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool HasPrefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

PathClass ClassifyPath(const std::string& path) {
  if (HasPrefix(path, "checkpoints/")) return PathClass::kCheckpoints;
  if (HasPrefix(path, "models/")) return PathClass::kModels;
  if (HasPrefix(path, "recommendations/")) return PathClass::kRecommendations;
  if (HasPrefix(path, "retrieval/")) return PathClass::kRetrieval;
  if (HasPrefix(path, "ledger/") || HasPrefix(path, "state/")) {
    return PathClass::kLedgerState;
  }
  return PathClass::kOther;
}

}  // namespace

const char* PathClassName(PathClass c) {
  switch (c) {
    case PathClass::kCheckpoints: return "checkpoints";
    case PathClass::kModels: return "models";
    case PathClass::kRecommendations: return "recommendations";
    case PathClass::kRetrieval: return "retrieval";
    case PathClass::kLedgerState: return "ledger_state";
    case PathClass::kOther: return "other";
    case PathClass::kCount: break;
  }
  return "?";
}

SfsTraffic::Class SfsTraffic::Total() const {
  Class total;
  for (const Class& c : by_class) {
    total.ops += c.ops;
    total.read_bytes += c.read_bytes;
    total.write_bytes += c.write_bytes;
    total.busy_micros += c.busy_micros;
  }
  return total;
}

SfsTraffic SfsTraffic::Minus(const SfsTraffic& earlier) const {
  SfsTraffic out;
  for (size_t i = 0; i < by_class.size(); ++i) {
    out.by_class[i].ops = by_class[i].ops - earlier.by_class[i].ops;
    out.by_class[i].read_bytes =
        by_class[i].read_bytes - earlier.by_class[i].read_bytes;
    out.by_class[i].write_bytes =
        by_class[i].write_bytes - earlier.by_class[i].write_bytes;
    out.by_class[i].busy_micros =
        by_class[i].busy_micros - earlier.by_class[i].busy_micros;
  }
  return out;
}

void TimingFileSystem::Record(const std::string& path, int64_t start_nanos,
                              int64_t read, int64_t written) const {
  Counters& c = counters_[static_cast<size_t>(ClassifyPath(path))];
  c.ops.fetch_add(1, std::memory_order_relaxed);
  c.read_bytes.fetch_add(read, std::memory_order_relaxed);
  c.write_bytes.fetch_add(written, std::memory_order_relaxed);
  c.busy_micros.fetch_add((NowNanos() - start_nanos) / 1000,
                          std::memory_order_relaxed);
}

sigmund::Status TimingFileSystem::Write(const std::string& path,
                                        const std::string& data) {
  const int64_t start = NowNanos();
  sigmund::Status status = inner_->Write(path, data);
  Record(path, start, 0, status.ok() ? static_cast<int64_t>(data.size()) : 0);
  return status;
}

sigmund::StatusOr<std::string> TimingFileSystem::Read(
    const std::string& path) const {
  const int64_t start = NowNanos();
  sigmund::StatusOr<std::string> data = inner_->Read(path);
  Record(path, start, data.ok() ? static_cast<int64_t>(data->size()) : 0, 0);
  return data;
}

sigmund::Status TimingFileSystem::Delete(const std::string& path) {
  const int64_t start = NowNanos();
  sigmund::Status status = inner_->Delete(path);
  Record(path, start, 0, 0);
  return status;
}

sigmund::Status TimingFileSystem::Rename(const std::string& from,
                                         const std::string& to) {
  const int64_t start = NowNanos();
  sigmund::Status status = inner_->Rename(from, to);
  Record(to, start, 0, 0);
  return status;
}

bool TimingFileSystem::Exists(const std::string& path) const {
  const int64_t start = NowNanos();
  const bool exists = inner_->Exists(path);
  Record(path, start, 0, 0);
  return exists;
}

sigmund::StatusOr<std::vector<std::string>> TimingFileSystem::List(
    const std::string& prefix) const {
  const int64_t start = NowNanos();
  sigmund::StatusOr<std::vector<std::string>> paths = inner_->List(prefix);
  Record(prefix, start, 0, 0);
  return paths;
}

sigmund::StatusOr<int64_t> TimingFileSystem::FileSize(
    const std::string& path) const {
  const int64_t start = NowNanos();
  sigmund::StatusOr<int64_t> size = inner_->FileSize(path);
  Record(path, start, 0, 0);
  return size;
}

SfsTraffic TimingFileSystem::Snapshot() const {
  SfsTraffic out;
  for (size_t i = 0; i < counters_.size(); ++i) {
    out.by_class[i].ops = counters_[i].ops.load(std::memory_order_relaxed);
    out.by_class[i].read_bytes =
        counters_[i].read_bytes.load(std::memory_order_relaxed);
    out.by_class[i].write_bytes =
        counters_[i].write_bytes.load(std::memory_order_relaxed);
    out.by_class[i].busy_micros =
        counters_[i].busy_micros.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace e2ebench
