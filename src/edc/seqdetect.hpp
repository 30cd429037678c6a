// Sequentiality Detector (paper §III-E, Fig. 7).
//
// Contiguous write requests are merged into a single larger block before
// compression: larger inputs compress better and one large decompression
// beats many small ones. The merge is broken — and the pending run handed
// back for compression — when a read arrives, when a non-contiguous write
// arrives, or when the run reaches the merge cap.
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"

namespace edc::core {

struct SeqDetectorConfig {
  /// Maximum blocks merged into one compression group (64 KiB default).
  u32 max_merge_blocks = 16;
  /// A pending run older than this is flushed before the next request is
  /// processed, bounding how long buffered writes stay in DRAM
  /// (0 disables the timeout).
  SimTime idle_flush_timeout = 50 * kMillisecond;
  bool operator==(const SeqDetectorConfig&) const = default;
};

/// A contiguous run of host blocks ready for compression.
struct WriteRun {
  Lba first_block = 0;
  u32 n_blocks = 0;
  /// Arrival time of the newest member (the run's readiness time).
  SimTime last_arrival = 0;
};

class SequentialityDetector {
 public:
  explicit SequentialityDetector(const SeqDetectorConfig& config = {});

  /// Feed a write of [first, first + n). Returns the runs that must be
  /// compressed *now* (zero, one, or — when the new write itself overflows
  /// the cap — several). The tail of the new write may stay pending.
  std::vector<WriteRun> OnWrite(Lba first, u32 n_blocks, SimTime now);

  /// A read breaks write contiguity: returns the pending run, if any.
  std::optional<WriteRun> OnRead();

  /// Flush the pending run unconditionally (end of trace / timeout).
  std::optional<WriteRun> Flush();

  bool has_pending() const { return pending_.n_blocks > 0; }
  const WriteRun& pending() const { return pending_; }

  u64 merged_runs() const { return merged_runs_; }

 private:
  std::optional<WriteRun> TakePending();

  SeqDetectorConfig config_;
  WriteRun pending_{};
  u64 merged_runs_ = 0;
};

}  // namespace edc::core
