// Workload Monitor (paper §III-D): measures I/O intensity as *calculated
// IOPS* — requests normalized to 4 KiB page units (an 8 KiB request counts
// as two) over a sliding one-second window, smoothed with an EWMA so a
// single packet gap doesn't flip the compression policy back and forth.
#pragma once

#include "common/stats.hpp"
#include "common/types.hpp"

namespace edc::core {

struct MonitorConfig {
  SimTime window = kSecond;
  double ewma_alpha = 0.3;
  /// Re-evaluate the EWMA at most this often (per-request updates at ns
  /// granularity would make the EWMA time-constant meaningless).
  SimTime update_interval = 100 * kMillisecond;
  bool operator==(const MonitorConfig&) const = default;
};

class WorkloadMonitor {
 public:
  explicit WorkloadMonitor(const MonitorConfig& config = {});

  /// Record a request of `bytes` arriving at `now`.
  void Record(SimTime now, u64 bytes);

  /// Smoothed calculated IOPS (4 KiB page units per second).
  double CalculatedIops(SimTime now);

  /// Raw (unsmoothed) window rate, for diagnostics and tests.
  double InstantaneousIops(SimTime now);

  u64 total_requests() const { return total_requests_; }
  u64 total_page_units() const { return total_page_units_; }

  /// Last smoothed EWMA value without advancing the window — safe to call
  /// from metric collectors (no state mutation, no `now` required).
  double smoothed_iops() const { return ewma_.value(); }

 private:
  MonitorConfig config_;
  SlidingWindowRate window_;
  Ewma ewma_;
  SimTime last_update_ = 0;
  u64 total_requests_ = 0;
  u64 total_page_units_ = 0;
};

}  // namespace edc::core
