// The EDC engine: the paper's three modules wired together on the I/O path.
//
//   Workload Monitor  -> calculated IOPS (4 KiB-normalized, 1 s window)
//   Compression Engine-> estimator gate + elastic codec selection +
//                        Sequentiality-Detector write merging
//   Request Distributer-> issues page I/O to the Device (SSD or RAIS)
//
// Temporal model (documented in DESIGN.md §5):
//  * The compression contexts (one per configured core) and the device
//    are FIFO resources; work is dispatched to the earliest-free context.
//  * A write completes when the data reaches the merge buffer AND every
//    compression/flush operation it triggered has completed — so slow
//    codecs build queueing delay under bursts, the paper's central effect.
//  * A read first forces the pending merge run out (Fig. 7), then reads
//    the covering flash pages and decompresses.
//
// Content model: write payloads are synthesized per (lba, version) by the
// deterministic SDGen-like generator, so functional mode can verify every
// read end to end; modeled mode charges calibrated codec costs instead and
// re-checks a sampled subset against the real codecs.
#pragma once

#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "codec/container.hpp"
#include "codec/scratch.hpp"
#include "common/sync.hpp"
#include "datagen/generator.hpp"
#include "edc/auditor.hpp"
#include "edc/cost_model.hpp"
#include "edc/estimator.hpp"
#include "edc/journal.hpp"
#include "edc/mapping.hpp"
#include "edc/monitor.hpp"
#include "edc/policy.hpp"
#include "edc/seqdetect.hpp"
#include "obs/observer.hpp"
#include "ssd/device.hpp"

namespace edc {
class WorkerPool;
}

namespace edc::core {

enum class ExecutionMode {
  kFunctional,  // real payloads through real codecs; verifiable reads
  kModeled,     // calibrated costs; fast enough for full-length traces
};

/// Crash-consistency knobs. When enabled (functional mode with a
/// data-retaining device only), every installed group is written to flash
/// as a self-describing extent (header + frame), mapping mutations are
/// logged to an on-device journal, and Engine::RecoverFromDevice() can
/// rebuild the full engine state from flash after a power cut.
struct DurabilityConfig {
  bool enabled = false;
  /// Logical pages reserved at the top of the device for the journal's
  /// two ping-pong halves. Even, >= 2, < the device's logical pages.
  u64 journal_pages = 64;
  /// Program-failure handling: relocate-and-rewrite retries per extent
  /// (and plain rewrite retries for journal pages) before the write fails.
  u32 max_program_retries = 3;
  /// Simulated delay before each rewrite attempt.
  SimTime retry_backoff = 200 * kMicrosecond;
  bool operator==(const DurabilityConfig&) const = default;
};

/// Every engine setting a caller states directly. StackConfig embeds it
/// as is; EngineConfig adds the one setting the stack derives.
struct EngineOptions {
  Scheme scheme = Scheme::kEdc;
  ElasticParams elastic;       // used when scheme == kEdc
  MonitorConfig monitor;
  EstimatorConfig estimator;
  SeqDetectorConfig seq;
  ExecutionMode mode = ExecutionMode::kFunctional;
  AllocPolicy alloc_policy = AllocPolicy::kSizeClass;
  /// LRU cache of decompressed groups in host DRAM: reads that hit skip
  /// both the device fetch and the decompression (0 disables). Groups are
  /// immutable once written, so the cache never serves stale data.
  std::size_t cache_groups = 0;
  /// Parallel compression contexts (the paper's multi-core observation):
  /// each context is an independent FIFO CPU; work goes to the earliest
  /// available one.
  u32 cpu_contexts = 1;
  /// In modeled mode, run the real codec on every Nth group as a
  /// calibration drift check (0 disables).
  u32 modeled_check_interval = 0;
  /// Debug knob: run the StateAuditor inline after every Nth host op
  /// (write/read/trim); a detected violation fails the op with an Internal
  /// status carrying the full report. 0 (the default) disables inline
  /// auditing; Engine::Audit() is always available on demand.
  u32 audit_every_n_ops = 0;
  /// Durable on-flash format + mapping journal (see DurabilityConfig).
  DurabilityConfig durability;
  /// Bounded retry of transient device unavailability on the read path:
  /// a device read failing kUnavailable is re-issued up to this many
  /// times, each attempt delayed by read_retry_backoff of simulated time
  /// (deterministic — no wall clock anywhere). kDataLoss and kMediaError
  /// are never retried: the former is final, the latter has its own
  /// parity-reconstruction path inside the RAIS layer. 0 disables.
  u32 read_retry_attempts = 0;
  /// Simulated delay added before each read retry attempt (linear
  /// backoff: attempt k waits k * read_retry_backoff).
  SimTime read_retry_backoff = 50 * kMicrosecond;
  /// Graceful-degradation circuit breaker: after this many media errors
  /// (program failures, read UCEs, integrity failures) the engine stops
  /// compressing and falls back to uncompressed (Store) groups, trading
  /// space savings for a simpler, better-tested write path. 0 disables.
  u32 breaker_error_budget = 0;
  /// Optional observability sink (non-owning; must outlive the engine).
  /// When set, the engine registers its metric collectors/instruments
  /// into the observer's registry and emits request-lifecycle trace
  /// events. Null (the default) is the zero-cost fast path; enabling it
  /// never changes simulated timings or results.
  obs::Observer* obs = nullptr;
  /// Optional *real* worker pool (non-owning; must outlive the engine).
  /// In functional mode, codec execution for sealed write runs is
  /// dispatched to this pool — up to `cpu_contexts` jobs in flight, joined
  /// in arrival order — so replay results (stats, mapping, timings, data)
  /// are byte-identical to the serial path while the real compression work
  /// runs on pool threads. Null (the default) keeps the seed's serial
  /// behaviour; modeled mode never uses the pool.
  WorkerPool* compress_pool = nullptr;
  bool operator==(const EngineOptions&) const = default;
};

struct EngineConfig : EngineOptions {
  /// SD write merging; the paper enables it for EDC. Fixed baselines
  /// compress each request as one unit (products' behaviour).
  bool use_seq_detector = true;
  bool operator==(const EngineConfig&) const = default;
};

struct EngineStats {
  u64 host_writes = 0;
  u64 host_reads = 0;
  u64 logical_bytes_written = 0;
  u64 groups_written = 0;
  u64 merged_blocks = 0;  // blocks that entered groups of size > 1
  u64 blocks_skipped_content = 0;
  u64 blocks_skipped_intensity = 0;
  std::array<u64, codec::kMaxCodecId + 1> groups_by_codec{};
  u64 compressed_bytes_total = 0;  // payload bytes (post-codec)
  u64 allocated_bytes_total = 0;   // class-rounded flash bytes
  u64 unmapped_block_reads = 0;
  u64 trimmed_blocks = 0;
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  /// Total simulated CPU time spent compressing/decompressing (energy
  /// experiments charge cpu_watts over this).
  SimTime cpu_busy_time = 0;
  RunningStats write_latency_us;
  RunningStats read_latency_us;
  /// Modeled-vs-real drift check (modeled mode only).
  u64 drift_checks = 0;
  double drift_abs_error_sum = 0;
  /// Fault handling and durability observability.
  u64 program_failures = 0;   // page-program failures seen (extent+journal)
  u64 program_retries = 0;    // relocate/rewrite attempts after failures
  u64 media_errors = 0;       // read-side faults: UCEs + integrity failures
  u64 breaker_trips = 0;      // times the degradation breaker opened
  bool breaker_open = false;  // currently demoted to uncompressed writes
  u64 degraded_groups = 0;    // groups written while the breaker was open
  u64 journal_bytes_written = 0;
  u64 journal_checkpoints = 0;
  u64 recovered_groups = 0;   // groups rebuilt by RecoverFromDevice
  u64 read_retries = 0;       // device reads re-issued after kUnavailable
  /// Background scrub observability (Engine::Scrub).
  u64 scrub_runs = 0;
  u64 scrub_groups_scanned = 0;
  u64 scrub_crc_errors = 0;    // extents whose verification failed
  u64 scrub_repaired = 0;      // extents repaired from redundancy
  u64 scrub_unrepairable = 0;  // extents that stayed bad after repair

  /// Cumulative compression ratio over everything written
  /// (original / allocated) — the paper's Fig. 8 metric.
  double cumulative_ratio() const {
    return allocated_bytes_total == 0
               ? 1.0
               : static_cast<double>(logical_bytes_written) /
                     static_cast<double>(allocated_bytes_total);
  }
};

class Engine {
 public:
  /// `device` and `generator` must outlive the engine. `cost_model` is
  /// required in modeled mode; in functional mode it (optionally) supplies
  /// simulated CPU times — without it, compression is charged zero
  /// simulated time (fine for correctness tests).
  Engine(const EngineConfig& config, ssd::Device* device,
         const datagen::ContentGenerator* generator,
         const CostModel* cost_model);

  /// Unregisters the stats collector from the observer's registry — an
  /// engine may die before a long-lived Observer (e.g. the reboot model
  /// in recovery tests), and a stale collector would read freed memory
  /// at the next Snapshot.
  ~Engine();

  /// Host write of [offset, offset+size); returns the completion time.
  Result<SimTime> Write(SimTime arrival, u64 offset, u32 size);

  /// Host read; returns the completion time. In functional mode the data
  /// is internally decompressed and integrity-checked against the mapping.
  Result<SimTime> Read(SimTime arrival, u64 offset, u32 size);

  /// Host discard (TRIM) of [offset, offset+size): releases the blocks
  /// from the mapping — freeing a group's flash extent when its last live
  /// member goes — and makes the blocks read as zeros. Metadata-only.
  Result<SimTime> Trim(SimTime arrival, u64 offset, u32 size);

  /// Flush the pending SD run (end of trace / idle timeout).
  Result<SimTime> FlushPending(SimTime now);

  /// Functional-mode data read of one block, bypassing timing: what a host
  /// would get back. Zero-filled for never-written blocks.
  Result<Bytes> ReadBlockData(Lba block);

  /// The content the generator would produce for the block's latest
  /// version — the expected value for ReadBlockData (test oracle).
  Bytes ExpectedBlockData(Lba block) const;

  /// Crash recovery (durable mode): rebuild the mapping table, allocator,
  /// version oracle and payload store from the on-device journal and the
  /// extent headers on flash. Call after the device is powered again
  /// (Ssd::RestorePower). Every acknowledged operation is recovered; the
  /// at-most-one operation in flight at the cut is rolled back. Finishes
  /// by checkpointing the recovered state into a fresh journal generation.
  /// This is also the clean remount: FlushPending on the old engine, then
  /// RecoverFromDevice on a fresh one over the same device.
  Status RecoverFromDevice(SimTime now = 0);

  /// Outcome of one background scrub pass (Engine::Scrub).
  struct ScrubReport {
    u64 groups_scanned = 0;
    u64 crc_errors = 0;     // extents that failed CRC/header verification
    u64 repaired = 0;       // extents restored from device redundancy
    u64 unrepairable = 0;   // extents still bad after the repair attempt
    u64 parity_rows_scanned = 0;  // device-level parity scrub (RAIS)
    u64 parity_mismatches = 0;
    u64 parity_repaired = 0;
    SimTime completion = 0;

    bool clean() const {
      return crc_errors == 0 && unrepairable == 0 && parity_mismatches == 0;
    }
  };

  /// Background scrub pass (durable mode): re-read every live extent in
  /// deterministic group order, verify its CRCs and header against the
  /// mapping, and repair latent corruption from device redundancy
  /// (ReadRebuilt + WriteRepair — no parity RMW, so a poisoned data chunk
  /// is rewritten without folding the corruption into parity). Extent
  /// repair runs *before* the device-level parity scrub: the other order
  /// would "repair" parity to match corrupt data and destroy the only
  /// copy able to fix it. Detection/repair counts land in stats() and the
  /// returned report; scrub errors do not trip the degradation breaker.
  Result<ScrubReport> Scrub(SimTime now);

  const EngineStats& stats() const { return stats_; }
  const BlockMap& map() const { return map_; }
  WorkloadMonitor& monitor() { return monitor_; }
  const EngineConfig& config() const { return config_; }

  /// Verify every cross-layer invariant (mapping, allocator tiling,
  /// payload store, SD merge buffer). Cheap enough to run between
  /// requests; see auditor.hpp for the invariant catalogue.
  AuditReport Audit() const;

  /// Hand the engine's thread confinement to the calling thread (see
  /// sync::ThreadChecker::Rebind). The sharded layer moves each engine
  /// between the dispatcher and its shard run-loop thread at run-loop
  /// start/stop; any caller must guarantee the previous owner has
  /// quiesced first.
  void RebindOwnerThread() { owner_.Rebind(); }

  /// Mutation-test hooks (corruption seeding only; see auditor tests).
  BlockMap* MutableMapForTest() { return &map_; }
  std::unordered_map<Lba, u64>* MutableVersionsForTest() {
    return &versions_;
  }
  std::unordered_map<u64, Bytes>* MutablePayloadsForTest() {
    return &payloads_;
  }

 private:
  struct GroupOutcome {
    SimTime completion = 0;
  };

  /// Sequential pre-compression stage: policy decision, estimator probe
  /// and (functional mode) materialized content for one sealed run.
  struct GroupPlan {
    WriteRun run;
    std::size_t orig = 0;
    datagen::ChunkKind kind{};
    PolicyDecision decision;
    Bytes content;  // functional mode only
  };

  /// Output of the pure codec-execution stage.
  struct CodecResult {
    codec::CodecId tag = codec::CodecId::kStore;
    std::size_t payload_size = 0;
    SimTime comp_time = 0;
    Bytes frame;  // functional mode only
  };

  /// Stage A (sequential): decide how to compress `run`. Mutates the
  /// monitor and the skip counters exactly as the seed's inline path did.
  GroupPlan PlanGroup(const WriteRun& run, SimTime ready);

  /// Stage B (pure, thread-safe): run the real codec over plan.content,
  /// applying the paper's 75% store-fallback rule. Functional mode only;
  /// touches no engine state, so it may run on a pool thread.
  Result<CodecResult> ExecuteCodec(const GroupPlan& plan) const;

  /// Stage B, modeled flavour (sequential: reads versions_, may run the
  /// drift self-check which mutates stats_).
  Result<CodecResult> ModeledCodecOutcome(const GroupPlan& plan);

  /// Stage C (sequential): charge simulated CPU time, install the group in
  /// the mapping, issue the device write and account stats.
  Result<GroupOutcome> InstallGroup(const GroupPlan& plan, CodecResult cr,
                                    SimTime ready);

  /// Compress one write run and issue it to the device (A → B → C).
  Result<GroupOutcome> CompressAndStore(const WriteRun& run, SimTime ready);

  /// True when multiple runs sealed at the same instant may be planned
  /// ahead of each other's installs without changing any decision: the
  /// only policy input affected by an install is the device backlog.
  bool PlansCommute() const;

  /// Pooled pipeline over runs sealed by one request: plan sequentially,
  /// execute codecs on the pool (≤ cpu_contexts in flight), join and
  /// install in arrival order. Byte-identical to the serial loop.
  Result<SimTime> CompressBatch(const std::vector<WriteRun>& runs,
                                SimTime ready);

  /// Flush a pending run that has sat in the merge buffer past the idle
  /// timeout (charged at its deadline, during the idle gap).
  Status MaybeIdleFlush(SimTime arrival);

  /// Inline audit every config_.audit_every_n_ops host ops (0 = off).
  Status MaybeAudit(SimTime at);

  /// Concatenated current content of a run (functional mode).
  Bytes MaterializeRun(const WriteRun& run) const;

  datagen::ChunkKind KindOfRun(const WriteRun& run) const;

  // --- Durability (see DurabilityConfig) --------------------------------

  /// Count one media error toward the degradation breaker; opens it (all
  /// later groups stored uncompressed) when the budget is exhausted.
  /// `at` is the simulated time of the error (trace event timestamp).
  void NoteBreakerError(SimTime at);

  /// Program a group's extent bytes to its covering flash pages, retrying
  /// program failures by relocating the group to a fresh extent. Appends
  /// each relocation target to `attempt_starts`. An extent of a full page
  /// or more owns its pages and is programmed straight from `extent`
  /// (last page zero-padded); a sub-page extent is composed into its
  /// page's image in shared_pages_ so the neighbours ride along.
  Result<SimTime> DurableProgramExtent(u64 group_id, ByteSpan extent,
                                       SimTime ready,
                                       std::vector<u64>* attempt_starts);

  /// Append one record to the journal (exactly one of `install`/`release`
  /// non-null), switching to a fresh checkpointed generation when the
  /// active half is full, and program the new journal bytes.
  Result<SimTime> JournalAppendRecord(SimTime ready,
                                      const InstallRecord* install,
                                      const ReleaseRecord* release);

  /// Program the not-yet-flushed tail of the journal stream.
  Result<SimTime> JournalFlush(SimTime ready);

  /// Durable-read integrity check: the pages fetched for a group must hold
  /// a valid extent that agrees with the mapping (catches latent bit
  /// corruption end to end). Counts media errors and feeds the breaker.
  Status VerifyExtentRead(const GroupInfo& g,
                          const std::vector<Bytes>& pages, SimTime at);

  /// The one extent parser, shared by read verification, the scrub and
  /// recovery: cut the group's extent out of its covering pages, check
  /// the header and CRCs against the mapping and return the frame. Pure:
  /// no counters, no breaker, no trace. Failures are kDataLoss.
  static Result<Bytes> ParseStoredExtent(const GroupInfo& g,
                                         const std::vector<Bytes>& pages);

  /// Fetch a group's covering pages with the configured bounded retry of
  /// transient kUnavailable (shared by Read and Scrub).
  Result<ssd::IoResult> FetchPagesWithRetry(Lba first_page, u64 n_pages,
                                            SimTime ready);

  /// Checkpoint body: mapping image + version oracle (payloads live on
  /// flash as extents and are rebuilt from there).
  Bytes SerializeDurableState() const;
  Status RestoreDurableState(ByteSpan body);

  EngineConfig config_;
  ssd::Device* device_;
  const datagen::ContentGenerator* generator_;
  const CostModel* cost_model_;

  std::unique_ptr<CompressionPolicy> policy_;
  WorkloadMonitor monitor_;
  CompressibilityEstimator estimator_;
  SequentialityDetector seq_;
  BlockMap map_;

  /// LRU group cache bookkeeping (ids only; in functional mode content is
  /// already resident in payloads_, in modeled mode only timing matters).
  bool CacheLookup(u64 group_id);
  void CacheInsert(u64 group_id);
  void CacheErase(u64 group_id);

  /// One scheduled slice of modeled CPU work (for trace spans).
  struct CpuSlot {
    SimTime start = 0;
    SimTime end = 0;
    u32 context = 0;
  };

  /// Run `duration` of CPU work on the earliest-free compression context
  /// starting no sooner than `ready`; returns the scheduled slot.
  CpuSlot RunOnCpu(SimTime ready, SimTime duration);

  /// Codec scratch arena for the calling thread: a compress-pool worker
  /// gets its per-worker arena (no locking — each worker only ever touches
  /// its own); every other caller is the simulation thread and uses
  /// serial_scratch_. Codec output is byte-identical with any scratch.
  codec::Scratch* ScratchForThisThread() const;

  /// Register metric instruments and the engine-stats collector into the
  /// observer (constructor helper; no-op without an observer).
  void RegisterObservability();

  /// Flip the breaker gauge and emit the state-transition trace event.
  void ObserveBreakerTransition(bool open, SimTime at);

  std::unordered_map<Lba, u64> versions_;
  /// Group id -> framed bytes: the read source in functional mode. In
  /// durable mode the same frame also sits on flash inside its extent;
  /// reads are still served from here because the device has no untimed
  /// read (Device::Read would move simulated time and fault injection).
  std::unordered_map<u64, Bytes> payloads_;
  std::list<u64> cache_lru_;                 // front = most recent
  std::unordered_map<u64, std::list<u64>::iterator> cache_index_;
  std::vector<SimTime> cpu_contexts_busy_;   // per-context busy-until
  /// Device pages below this index have been programmed (write-buffer
  /// packing: sub-page groups share one flash page and are flushed when
  /// the page fills — see DESIGN.md §5).
  u64 flushed_frontier_page_ = 0;
  u64 ops_since_audit_ = 0;
  // Durable-mode state. `data_pages_` is the device capacity left after
  // the journal reservation. `shared_pages_` holds the 4 KiB image of each
  // data page that has held a sub-page extent: a page program rewrites
  // the whole page, so the neighbours of a sub-page extent must be re-sent
  // byte-exact. The allocator never merges free space, so such a page is
  // never again owned by a full-page extent; the map grows with data
  // written, not with device capacity.
  u64 data_pages_ = 0;
  std::unordered_map<Lba, Bytes> shared_pages_;
  std::unique_ptr<JournalWriter> journal_;
  u32 journal_half_ = 0;        // half holding the active generation
  std::size_t journal_flushed_ = 0;  // stream bytes already programmed
  u32 breaker_errors_ = 0;
  // Observability (all null when config_.obs is null — the fast path is
  // a single pointer compare per event site). Trace events are emitted
  // only from the simulation thread; ExecuteCodec (pool threads) stays
  // instrumentation-free by design.
  obs::TraceRecorder* trace_ = nullptr;
  u64 stats_collector_ = 0;  // registry handle; unregistered in ~Engine
  obs::HistogramMetric* write_latency_hist_ = nullptr;
  obs::HistogramMetric* read_latency_hist_ = nullptr;
  obs::HistogramMetric* alloc_quanta_hist_ = nullptr;
  obs::Gauge* breaker_gauge_ = nullptr;
  // Reusable codec working memory (see codec/scratch.hpp). ExecuteCodec is
  // const, so these are mutable; thread confinement is by construction:
  // one arena per pool worker plus one for the simulation thread.
  mutable codec::Scratch serial_scratch_;
  mutable std::vector<std::unique_ptr<codec::Scratch>> pool_scratch_;
  // The engine is thread-confined, not thread-safe: every mutating entry
  // point (Write/Read/Trim/Flush/recovery) must run on the thread that
  // constructed it; only const ExecuteCodec runs on pool workers. Static
  // thread-safety analysis cannot express "single owning thread", so the
  // contract is asserted at run time in debug/sanitizer builds instead
  // (see sync::ThreadChecker).
  sync::ThreadChecker owner_{"core::Engine"};
  EngineStats stats_;
};

}  // namespace edc::core
