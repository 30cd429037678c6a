#include "sim/replay.hpp"

namespace edc::sim {
namespace {

/// The record loop, latency reservoirs and finish step of both replay
/// entry points. Run issues one trace record at a time, and every
/// finished request reaches Complete in submission order: at once from a
/// direct engine, from inside a later Submit or the final Drain of the
/// sharded fabric.
class ReplayLoop {
 public:
  ReplayLoop(const core::StackConfig& config, const trace::Trace& trace,
             const ReplayOptions& options)
      : config_(config),
        trace_(trace),
        options_(options),
        all_(options.percentile_capacity, config.seed),
        // Per-class reservoirs draw from derived seeds so all three
        // replacement streams stay independent yet deterministic.
        write_(options.percentile_capacity,
               config.seed ^ 0x9E3779B97F4A7C15ull),
        read_(options.percentile_capacity,
              config.seed ^ 0xC2B2AE3D27D4EB4Full) {}
  // The sharded engine's completion callback holds this loop's address.
  ReplayLoop(const ReplayLoop&) = delete;
  ReplayLoop& operator=(const ReplayLoop&) = delete;

  /// Fold one finished request in. A failed request is not sampled; the
  /// first one ends the run with its status.
  void Complete(bool write, SimTime submitted, SimTime completion,
                const Status& status) {
    if (!status.ok()) {
      if (failed_.ok()) failed_ = status;
      return;
    }
    const double us = ToMicros(completion - submitted);
    result_.response_us.Add(us);
    all_.Add(us);
    if (write) {
      result_.write_response_us.Add(us);
      write_.Add(us);
    } else {
      result_.read_response_us.Add(us);
      read_.Add(us);
    }
  }

  /// `issue(index, record)` starts one request and returns a Status;
  /// `finish(end, result)` drains and flushes everything, then fills in
  /// the engine and device stats.
  template <typename Issue, typename Finish>
  Result<ReplayResult> Run(Issue issue, Finish finish) {
    result_.trace_name = trace_.name;
    result_.scheme_name = std::string(core::SchemeName(config_.scheme));
    obs::Observer* obs = config_.obs;

    const u64 limit = options_.max_requests == 0
                          ? trace_.records.size()
                          : std::min<u64>(options_.max_requests,
                                          trace_.records.size());
    for (u64 i = 0; i < limit; ++i) {
      const trace::TraceRecord& r = trace_.records[i];
      // Close every sampling window due before this request (one null
      // compare when telemetry is off; windows are simulated time, so
      // sampling perturbs nothing).
      if (obs != nullptr) obs->PumpTelemetry(r.timestamp);
      Status issued = issue(i, r);
      if (!issued.ok()) return issued;
      if (!failed_.ok()) return failed_;
      ++result_.requests;
    }
    Status finished = finish(trace_.duration(), &result_);
    if (!failed_.ok()) return failed_;
    if (!finished.ok()) return finished;

    result_.trace_duration = trace_.duration();
    result_.p50_us = all_.Quantile(0.50);
    result_.p95_us = all_.Quantile(0.95);
    result_.p99_us = all_.Quantile(0.99);
    result_.write_p50_us = write_.Quantile(0.50);
    result_.write_p95_us = write_.Quantile(0.95);
    result_.write_p99_us = write_.Quantile(0.99);
    result_.read_p50_us = read_.Quantile(0.50);
    result_.read_p95_us = read_.Quantile(0.95);
    result_.read_p99_us = read_.Quantile(0.99);
    result_.compression_ratio = result_.engine.cumulative_ratio();
    if (obs != nullptr) {
      // Close the final partial window and run the watchdog over it
      // before snapshotting, so edc_health_* counters agree with the
      // report.
      result_.health = obs->FinishTelemetry(trace_.duration());
      result_.metrics = obs->Snapshot();
    }
    return std::move(result_);
  }

 private:
  const core::StackConfig& config_;
  const trace::Trace& trace_;
  const ReplayOptions& options_;
  ReplayResult result_;
  PercentileReservoir all_;
  PercentileReservoir write_;
  PercentileReservoir read_;
  Status failed_;
};

}  // namespace

Result<ReplayResult> ReplayTrace(core::Stack& stack,
                                 const trace::Trace& trace,
                                 const ReplayOptions& options) {
  core::Engine& engine = stack.engine();
  ReplayLoop loop(stack.config(), trace, options);
  return loop.Run(
      [&](u64 /*index*/, const trace::TraceRecord& r) -> Status {
        const bool write = r.op == trace::OpType::kWrite;
        Result<SimTime> completion =
            write ? engine.Write(r.timestamp, r.offset, r.size)
                  : engine.Read(r.timestamp, r.offset, r.size);
        if (!completion.ok()) return completion.status();
        loop.Complete(write, r.timestamp, *completion, Status::Ok());
        return Status::Ok();
      },
      [&](SimTime end, ReplayResult* result) -> Status {
        auto flushed = engine.FlushPending(end);
        if (!flushed.ok()) return flushed.status();
        result->engine = engine.stats();
        result->device = stack.device().stats();
        return Status::Ok();
      });
}

Result<ReplayResult> ReplayShardedTrace(const core::StackConfig& config,
                                        const trace::Trace& trace,
                                        const ShardedReplayOptions& options) {
  shard::ShardedOptions sopts;
  sopts.shards = options.shards < 1 ? 1 : options.shards;
  sopts.tenants = options.tenants < 1 ? 1 : options.tenants;
  sopts.chunk_blocks = options.chunk_blocks;
  sopts.window = options.window;
  sopts.max_batch = options.max_batch;
  sopts.qos = options.qos;
  sopts.obs = config.obs;

  // Declared before the engine: after an early error return the engine's
  // destructor drains what is still in flight into the loop.
  ReplayLoop loop(config, trace, options.base);
  auto sharded = shard::ShardedEngine::Create(sopts, config);
  if (!sharded.ok()) return sharded.status();
  shard::ShardedEngine& se = **sharded;

  // Completions arrive strictly in submission order on this thread (from
  // inside Submit/Drain), so the reservoir streams see the same sequence
  // on every run.
  se.SetCompletionCallback([&loop](const shard::Completion& c) {
    loop.Complete(c.kind == shard::OpKind::kWrite, c.submitted, c.completion,
                  c.status);
  });
  Status started = se.StartRunLoops();
  if (!started.ok()) return started;
  return loop.Run(
      [&](u64 index, const trace::TraceRecord& r) -> Status {
        shard::Request req;
        req.kind = r.op == trace::OpType::kWrite ? shard::OpKind::kWrite
                                                 : shard::OpKind::kRead;
        req.arrival = r.timestamp;
        req.offset = r.offset;
        req.size = r.size;
        req.tenant = static_cast<u32>(index % sopts.tenants);
        return se.Submit(req).status();
      },
      [&](SimTime end, ReplayResult* result) -> Status {
        Status drained = se.Drain();
        if (!drained.ok()) return drained;
        Status stopped = se.StopRunLoops();
        if (!stopped.ok()) return stopped;
        auto flushed = se.FlushAllPending(end);
        if (!flushed.ok()) return flushed.status();
        result->engine = se.AggregateEngineStats();
        result->device = se.AggregateDeviceStats();
        return Status::Ok();
      });
}

}  // namespace edc::sim
