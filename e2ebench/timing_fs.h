#ifndef SIGMUND_E2EBENCH_TIMING_FS_H_
#define SIGMUND_E2EBENCH_TIMING_FS_H_

#include <stdint.h>

#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "sfs/shared_filesystem.h"

namespace e2ebench {

// Which part of the pipeline a path belongs to, by its top-level prefix.
enum class PathClass {
  kCheckpoints = 0,  // checkpoints/
  kModels,           // models/
  kRecommendations,  // recommendations/
  kRetrieval,        // retrieval/
  kLedgerState,      // ledger/ and state/
  kOther,            // sweep_results/, shards, heartbeats, ...
  kCount,
};
const char* PathClassName(PathClass c);

// Per-class totals: operations, bytes read and written, and the wall time
// spent inside the wrapped filesystem (summed over threads).
struct SfsTraffic {
  struct Class {
    int64_t ops = 0;
    int64_t read_bytes = 0;
    int64_t write_bytes = 0;
    int64_t busy_micros = 0;
  };
  std::array<Class, static_cast<size_t>(PathClass::kCount)> by_class{};

  Class Total() const;
  SfsTraffic Minus(const SfsTraffic& earlier) const;
};

// Decorator that times and counts every call into another filesystem. It
// changes nothing about the calls: same arguments, same results.
class TimingFileSystem : public sigmund::sfs::SharedFileSystem {
 public:
  explicit TimingFileSystem(sigmund::sfs::SharedFileSystem* inner)
      : inner_(inner) {}

  sigmund::Status Write(const std::string& path,
                        const std::string& data) override;
  sigmund::StatusOr<std::string> Read(const std::string& path) const override;
  sigmund::Status Delete(const std::string& path) override;
  sigmund::Status Rename(const std::string& from,
                         const std::string& to) override;
  bool Exists(const std::string& path) const override;
  sigmund::StatusOr<std::vector<std::string>> List(
      const std::string& prefix) const override;
  sigmund::StatusOr<int64_t> FileSize(const std::string& path) const override;

  SfsTraffic Snapshot() const;

 private:
  struct Counters {
    std::atomic<int64_t> ops{0};
    std::atomic<int64_t> read_bytes{0};
    std::atomic<int64_t> write_bytes{0};
    std::atomic<int64_t> busy_micros{0};
  };
  void Record(const std::string& path, int64_t start_nanos, int64_t read,
              int64_t written) const;

  sigmund::sfs::SharedFileSystem* inner_;
  mutable std::array<Counters, static_cast<size_t>(PathClass::kCount)>
      counters_;
};

}  // namespace e2ebench

#endif  // SIGMUND_E2EBENCH_TIMING_FS_H_
