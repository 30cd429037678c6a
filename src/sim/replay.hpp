// Open-loop trace replay: requests are issued at their trace timestamps
// regardless of completion (the device/CPU queues absorb bursts), matching
// how the paper drives its prototype. Produces the per-scheme metrics of
// §IV: average response time, compression ratio, and the composite
// ratio/time benefit metric.
//
// One replay loop drives two targets: a direct Stack (ReplayTrace) and
// the edc::shard async fabric (ReplayShardedTrace), where requests are
// submitted round-robin across M tenants (token-bucket admission + WFQ
// dequeue) and split across N engine shards. Both fold completions, in
// submission order, into the same latency moments and seeded reservoirs,
// stop at the first failed request and return its status, and finish
// with the same flush/stats/telemetry step. So the two are directly
// comparable, and at shards = tenants = 1 they give the same result.
//
// Determinism: the result (latency moments, percentiles, engine/device
// stats, metrics snapshot) is a pure function of (config, trace,
// options). Sharded per-LBA data is additionally invariant across shard
// counts — see edc/shard.hpp.
#pragma once

#include "common/stats.hpp"
#include "edc/shard.hpp"
#include "edc/stack.hpp"
#include "obs/watchdog.hpp"
#include "trace/trace.hpp"

namespace edc::sim {

struct ReplayOptions {
  /// Replay at most this many records (0 = whole trace).
  u64 max_requests = 0;
  /// Reservoir size for latency percentiles.
  std::size_t percentile_capacity = 65536;
};

struct ReplayResult {
  std::string trace_name;
  std::string scheme_name;

  u64 requests = 0;
  RunningStats response_us;        // all requests
  RunningStats write_response_us;
  RunningStats read_response_us;
  double p50_us = 0, p95_us = 0, p99_us = 0;
  /// Per-class latency percentiles (reads queue behind forced merge-buffer
  /// flushes, so their tail differs from the writes').
  double write_p50_us = 0, write_p95_us = 0, write_p99_us = 0;
  double read_p50_us = 0, read_p95_us = 0, read_p99_us = 0;

  /// The paper's metrics.
  double mean_response_ms() const { return response_us.mean() / 1000.0; }
  double compression_ratio = 1.0;  // original / allocated (Fig. 8)
  double ratio_over_time() const {  // Fig. 9 composite (higher is better)
    double ms = mean_response_ms();
    return ms > 0 ? compression_ratio / ms : 0;
  }
  /// Space saving fraction (the paper's "saves up to 38.7%").
  double space_saving() const {
    return compression_ratio > 0 ? 1.0 - 1.0 / compression_ratio : 0.0;
  }

  core::EngineStats engine;
  ssd::DeviceStats device;
  SimTime trace_duration = 0;

  /// Deterministic metrics snapshot, captured after the final flush; empty
  /// unless the stack was created with an Observer with metrics enabled.
  obs::MetricsSnapshot metrics;

  /// End-of-run health report (watchdog events + final rule state);
  /// empty unless the Observer was built with health rules. Finalized
  /// before `metrics` is captured, so alert counters agree.
  obs::HealthWatchdog::Report health;

  /// Fraction of the trace during which the device was serving.
  double device_utilization() const {
    return trace_duration > 0
               ? static_cast<double>(device.busy_time) /
                     static_cast<double>(trace_duration)
               : 0;
  }
  /// Fraction of the trace during which compression contexts were busy
  /// (can exceed 1 with multiple contexts saturated).
  double cpu_utilization() const {
    return trace_duration > 0
               ? static_cast<double>(engine.cpu_busy_time) /
                     static_cast<double>(trace_duration)
               : 0;
  }
};

/// Replay `trace` through `stack`.
Result<ReplayResult> ReplayTrace(core::Stack& stack,
                                 const trace::Trace& trace,
                                 const ReplayOptions& options = {});

struct ShardedReplayOptions {
  ReplayOptions base;
  u32 shards = 1;
  u32 tenants = 1;
  u32 chunk_blocks = 64;
  u32 window = 512;
  u32 max_batch = 32;
  shard::QosConfig qos;
};

/// Replay `trace` through a ShardedEngine built from `config` (each
/// shard gets 1/N of the configured raw capacity). `config.obs` is wired
/// into the shard layer's dispatcher-confined metrics (never into the
/// shard engines; see edc/shard.hpp).
Result<ReplayResult> ReplayShardedTrace(const core::StackConfig& config,
                                        const trace::Trace& trace,
                                        const ShardedReplayOptions& options);

}  // namespace edc::sim
