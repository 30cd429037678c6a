// edc::shard — the sharded multi-tenant engine front end.
//
// The single-engine core serializes every mapping/allocator/journal
// operation on one simulation thread; this layer scales the control path
// the way SPDK's "reduce" bdev does — by partitioning the logical space
// into N independent lanes:
//
//   tenants ──Submit──▶ token bucket ─▶ WFQ ─▶ seq# ─▶ per-shard MPSC
//                      (IOPS cap)    (weighted    │     rings
//                                     dequeue)    ▼
//                               shard run-loops (WorkerPool threads),
//                               one Engine + FlatIndex + allocator +
//                               journal lane + Scratch per shard
//                                                │
//   dispatcher ◀── seq-ordered apply ◀── completion MPSC ring
//
// Partitioning: chunked LBA ranges — shard_of(block) =
// (block / chunk_blocks) % shards. A request crossing a chunk boundary
// into another shard is split into per-shard parts dispatched back to
// back (the parts of one request always precede any part of a later
// request in every shard ring — the cross-shard ordering barrier), and
// its completion is the *join* of its parts: reported only when every
// part finished, at the max part completion time, with the first
// non-ok part status (lowest part index wins).
//
// Determinism contract (the hard bar of ISSUE 10): all externally
// visible effects — per-LBA data, completion order, every metric the
// layer exports — are pure functions of the submitted request sequence,
// independent of wall-clock thread interleaving:
//   * dispatch order is decided entirely on the dispatcher thread
//     (token bucket + WFQ are integer math over simulated time);
//   * each shard ring is FIFO and each shard engine shares no state
//     with any other, so per-shard processing order is seq order no
//     matter how the OS schedules the run loops;
//   * completions are *applied* (callback + counters) strictly in seq
//     order, and only at deterministic points: when the in-flight
//     window forces room at Submit, and at Drain. Whatever the
//     completion ring holds at any wall-clock instant is invisible
//     bookkeeping until then.
// Per-LBA content is additionally shard-count-invariant: each block's
// write sequence (and thus its content version) is preserved by any
// partitioning, so read-back is byte-identical at shards=1 and shards=N.
//
// Wiring: Create builds the shards with core::BuildStackParts, the same
// builder as core::Stack::Create (edc/stack.hpp), and hands them to
// CreateFromBackings like any caller-built set of devices.
//
// Observability: per-shard/per-tenant counters, logical queue-depth
// gauges and dispatch-batch histograms are registered by the dispatcher
// into the Observer's registry and updated only from the dispatcher
// thread (deterministic snapshots). Shard engines run with obs = null —
// trace events from free-running shard threads would interleave
// nondeterministically.
#pragma once

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mpsc_ring.hpp"
#include "common/sync.hpp"
#include "common/worker_pool.hpp"
#include "edc/qos.hpp"
#include "edc/stack.hpp"

namespace edc::shard {

/// Chunked LBA-range partition: blocks [k*chunk, (k+1)*chunk) belong to
/// shard k % shards. chunk_blocks keeps sequential runs on one shard up
/// to the chunk size; shards=1 degenerates to "everything on shard 0".
class ShardRouter {
 public:
  ShardRouter(u32 shards, u32 chunk_blocks)
      : shards_(shards < 1 ? 1 : shards),
        chunk_blocks_(chunk_blocks < 1 ? 1 : chunk_blocks) {}

  u32 shards() const { return shards_; }
  u32 chunk_blocks() const { return static_cast<u32>(chunk_blocks_); }

  u32 shard_of(Lba block) const {
    return static_cast<u32>((block / chunk_blocks_) % shards_);
  }

  struct Part {
    u32 shard = 0;
    u64 offset = 0;  // bytes
    u32 size = 0;    // bytes
  };

  /// Split a byte range at shard boundaries; parts come out in ascending
  /// offset order (== part index order). One part per contiguous
  /// same-shard span, so shards=1 always yields exactly one part.
  void Split(u64 offset, u32 size, std::vector<Part>* out) const;

 private:
  u32 shards_;
  u64 chunk_blocks_;
};

enum class OpKind : u8 { kWrite, kRead, kTrim };

struct Request {
  OpKind kind = OpKind::kWrite;
  SimTime arrival = 0;  // simulated issue time (trace timestamp)
  u64 offset = 0;       // bytes
  u32 size = 0;         // bytes
  u32 tenant = 0;
};

/// One finished request, delivered in submission (seq) order.
struct Completion {
  u64 seq = 0;
  u32 tenant = 0;
  OpKind kind = OpKind::kWrite;
  SimTime submitted = 0;   // the caller's arrival timestamp
  SimTime admitted = 0;    // post-token-bucket effective arrival
  SimTime completion = 0;  // max over parts
  Status status;           // first non-ok part (lowest index), else ok
};

struct QosConfig {
  /// Sustained per-tenant IOPS cap (0 = uncapped). Over-cap requests are
  /// delayed in simulated time, never rejected.
  u64 tenant_iops_cap = 0;
  /// Token-bucket depth (burst) in requests.
  u64 tenant_burst = 64;
  /// WFQ weight per tenant (missing entries default to 1).
  std::vector<u32> tenant_weights;
};

struct ShardedOptions {
  u32 shards = 1;
  u32 tenants = 1;
  u32 chunk_blocks = 64;   // 256 KiB chunks at 4 KiB blocks
  u32 ring_capacity = 1024;
  /// Max host requests dispatched but not yet applied; the dispatcher
  /// blocks (applying completions in seq order) when full.
  u32 window = 512;
  /// Max requests moved from the WFQ backlog into shard rings per
  /// dispatch pump.
  u32 max_batch = 32;
  QosConfig qos;
  /// Shard-layer observability (dispatcher-confined; may be null).
  /// Shard engines themselves always run with obs = null — see header
  /// comment.
  obs::Observer* obs = nullptr;
};

/// One shard's backing, for harnesses that build their own devices
/// (fault-injected SSDs, RAIS arrays). The device/generator/cost model
/// are non-owning and must outlive the ShardedEngine; `engine.obs` and
/// `engine.compress_pool` are forced to null.
struct ShardBacking {
  core::EngineConfig engine;
  ssd::Device* device = nullptr;
  const datagen::ContentGenerator* generator = nullptr;
  const core::CostModel* cost_model = nullptr;
};

class ShardedEngine {
 public:
  /// Build N owned shards from a StackConfig template (see header
  /// comment): each shard gets a private device with 1/N of the
  /// configured raw capacity and its own Engine (mapping, allocator,
  /// journal lane, scratch); all shards share one content generator and
  /// cost model. The stack's `obs` is NOT wired into the engines; pass it
  /// via options.obs for the shard-layer metrics instead.
  static Result<std::unique_ptr<ShardedEngine>> Create(
      const ShardedOptions& options, const core::StackConfig& stack);

  /// Build from caller-supplied backings (options.shards must equal
  /// backings.size()).
  static Result<std::unique_ptr<ShardedEngine>> CreateFromBackings(
      const ShardedOptions& options, std::vector<ShardBacking> backings);

  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // --- Async data plane (run loops started; dispatcher thread only) ----

  using CompletionFn = std::function<void(const Completion&)>;
  /// Callback invoked for every completion, strictly in seq order, on
  /// the dispatcher thread (from inside Submit/Drain). Set before the
  /// first Submit.
  void SetCompletionCallback(CompletionFn fn) { on_complete_ = std::move(fn); }

  /// Start the shard run loops on the internal WorkerPool and bind the
  /// calling thread as the dispatcher. Idempotent.
  Status StartRunLoops();

  /// Drain everything in flight, stop the run loops and rebind every
  /// shard engine to the calling thread for control-plane access.
  /// Idempotent.
  Status StopRunLoops();

  bool running() const { return running_; }

  /// Queue one request: token-bucket admission, WFQ backlog, batched
  /// dispatch into shard rings. Returns the assigned seq. May block
  /// applying completions when the in-flight window is full.
  Result<u64> Submit(const Request& request);

  /// Barrier: dispatch the whole backlog and apply every outstanding
  /// completion (in seq order). The engines may still hold pending
  /// merge-buffer runs afterwards — see FlushAllPending.
  Status Drain();

  /// Submit one request and wait for *its* completion (drains everything
  /// up to and including it). Convenience for harnesses that replay one
  /// op at a time through the full async fabric.
  Result<Completion> SubmitAndWait(const Request& request);

  // --- Control plane (run loops stopped; caller owns the engines) ------

  u32 shards() const { return static_cast<u32>(shards_.size()); }
  u32 tenants() const { return options_.tenants; }
  const ShardRouter& router() const { return router_; }
  core::Engine& engine(u32 shard) { return *shards_[shard]->engine; }
  ssd::Device& device(u32 shard) { return *shards_[shard]->backing.device; }

  /// FlushPending on every shard; returns the max completion time.
  Result<SimTime> FlushAllPending(SimTime now);

  /// RecoverFromDevice on every shard (reboot model after power cuts).
  Status RecoverAllFromDevice(SimTime now);

  /// Run the full invariant audit on every shard; returns the first
  /// failing shard's report (ok report when all pass).
  core::AuditReport AuditAll() const;

  /// Functional-mode data read of one block, routed to its shard.
  Result<Bytes> ReadBlockData(Lba block);

  /// Tear down and reconstruct one shard's engine from its original
  /// config (the reboot model: nothing survives in RAM). Follow with
  /// RecoverAllFromDevice.
  Status RecreateEngine(u32 shard);

  /// Sum of per-shard engine stats (counters summed, latency moments
  /// merged, breaker_open OR-ed).
  core::EngineStats AggregateEngineStats() const;

  /// Sum of per-shard device stats. busy_time is the MAX over shards
  /// (the devices run in parallel); waf is recomputed from the summed
  /// page counts.
  ssd::DeviceStats AggregateDeviceStats() const;

 private:
  /// One sub-request as it travels through a shard ring.
  struct SubOp {
    u64 seq = 0;
    u32 part = 0;
    u32 n_parts = 1;
    OpKind kind = OpKind::kWrite;
    SimTime arrival = 0;
    u64 offset = 0;
    u32 size = 0;
  };

  /// One finished sub-request on its way back to the dispatcher.
  struct SubDone {
    u64 seq = 0;
    u32 part = 0;
    SimTime completion = 0;
    Status status;
  };

  /// A request admitted but not yet dispatched (WFQ backlog).
  struct PendingReq {
    Request req;
    SimTime admitted = 0;
  };

  /// A request dispatched into shard rings, awaiting its parts.
  struct InFlight {
    u32 tenant = 0;
    OpKind kind = OpKind::kWrite;
    SimTime submitted = 0;
    SimTime admitted = 0;
    u32 n_parts = 0;
    u32 parts_done = 0;
    SimTime completion = 0;      // max over finished parts
    u32 error_part = 0;          // lowest part index with a non-ok status
    Status status;               // ok until a part fails
    /// Shard of each part, for queue-depth accounting at apply time.
    std::vector<u32> part_shards;
  };

  struct Shard {
    /// What the engine runs on (non-owning; see owned_), with obs and
    /// compress_pool cleared.
    ShardBacking backing;
    std::unique_ptr<core::Engine> engine;

    // Submission lane.
    std::unique_ptr<MpscRing<SubOp>> ring;
    sync::Mutex wake_mu{sync::lock_rank::kShardQueue, "shard.wake"};
    sync::CondVar wake_cv;
    bool work_hint EDC_GUARDED_BY(wake_mu) = false;
    bool stop EDC_GUARDED_BY(wake_mu) = false;
    std::future<void> loop;

    // Dispatcher-side observability (deterministic; dispatcher thread
    // only — null without an observer).
    obs::Counter* dispatched_total = nullptr;
    obs::Counter* blocks_total = nullptr;
    obs::Gauge* inflight_depth = nullptr;
    u64 logical_depth = 0;  // dispatched-but-not-applied parts
  };

  ShardedEngine(const ShardedOptions& options, u32 shards);

  void RegisterObservability();

  /// Move up to max_batch requests from the WFQ backlog into shard
  /// rings, applying completions whenever the window is full.
  Status DispatchBatch();

  /// Push one pending request's parts into the rings (seq assignment).
  Status DispatchOne(u64 handle);

  /// Block until the next-to-apply request is complete, then apply
  /// exactly it (callback + counters). Deterministic: the apply sequence
  /// is the seq sequence.
  Status ApplyNext();

  /// Non-blocking: move every SubDone currently in the completion ring
  /// into the in-flight table (bookkeeping only — no visible effects).
  void CollectCompletions();

  void WakeShard(Shard& s);
  void RunLoop(std::size_t shard_index);
  void ProcessSubOp(Shard& s, const SubOp& op);
  void PushCompletion(SubDone&& done);

  ShardedOptions options_;
  ShardRouter router_;
  /// What Create built (empty after CreateFromBackings). Declared before
  /// shards_ so the engines die before their devices and generator.
  core::StackParts owned_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<WorkerPool> pool_;
  bool running_ = false;

  // --- Dispatcher state (thread-confined; see dispatcher_) -------------
  std::vector<TokenBucket> buckets_;     // one per tenant
  WfqScheduler wfq_;
  std::unordered_map<u64, PendingReq> backlog_;  // WFQ handle -> request
  /// Set by Submit around its dispatch pump so DispatchOne can report
  /// the seq assigned to the one handle the caller waits on (the WFQ may
  /// dispatch other handles first).
  u64 awaited_handle_ = ~static_cast<u64>(0);
  u64 awaited_seq_ = 0;
  u64 next_handle_ = 0;
  u64 next_seq_ = 0;        // assigned at dispatch
  u64 apply_next_ = 0;      // next seq to apply
  std::map<u64, InFlight> inflight_;
  CompletionFn on_complete_;
  Completion last_applied_;

  // Completion fabric: shard threads produce, dispatcher consumes.
  std::unique_ptr<MpscRing<SubDone>> completions_;
  sync::Mutex driver_mu_{sync::lock_rank::kShardControl,
                         "shard.dispatcher"};
  sync::CondVar driver_cv_;
  bool completions_hint_ EDC_GUARDED_BY(driver_mu_) = false;

  // Dispatcher-side tenant observability (null without an observer).
  std::vector<obs::Counter*> tenant_requests_;
  std::vector<obs::Counter*> tenant_throttled_;
  std::vector<obs::Counter*> tenant_throttle_us_;
  obs::HistogramMetric* dispatch_batch_hist_ = nullptr;
  obs::Counter* straddled_total_ = nullptr;
  obs::Counter* applied_total_ = nullptr;

  sync::ThreadChecker dispatcher_{"shard::ShardedEngine"};
};

}  // namespace edc::shard
