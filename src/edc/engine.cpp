#include "edc/engine.hpp"

#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <span>

#include "common/check.hpp"
#include "common/varint.hpp"
#include "common/worker_pool.hpp"

namespace edc::core {
namespace {

/// Pages covering a quantum extent.
std::pair<Lba, u64> CoveringPages(u64 start_quantum, u32 quanta) {
  Lba first = start_quantum / kQuantaPerBlock;
  Lba last = (start_quantum + quanta - 1) / kQuantaPerBlock;
  return {first, last - first + 1};
}

/// Blocks covering a byte range.
std::pair<Lba, u32> CoveringBlocks(u64 offset, u32 size) {
  Lba first = offset / kLogicalBlockSize;
  u64 last = (offset + size - 1) / kLogicalBlockSize;
  return {first, static_cast<u32>(last - first + 1)};
}

/// Device pages left for data after the journal reservation.
u64 DataPages(const EngineConfig& config, const ssd::Device& device) {
  u64 pages = device.logical_pages();
  if (!config.durability.enabled) return pages;
  EDC_CHECK(config.durability.journal_pages >= 2 &&
            config.durability.journal_pages % 2 == 0)
      << "journal_pages must be an even count >= 2, got "
      << config.durability.journal_pages;
  EDC_CHECK(config.durability.journal_pages < pages)
      << "journal_pages " << config.durability.journal_pages
      << " leaves no data pages on a " << pages << "-page device";
  return pages - config.durability.journal_pages;
}

}  // namespace

Engine::Engine(const EngineConfig& config, ssd::Device* device,
               const datagen::ContentGenerator* generator,
               const CostModel* cost_model)
    : config_(config),
      device_(device),
      generator_(generator),
      cost_model_(cost_model),
      policy_(MakePolicy(config.scheme, config.elastic)),
      monitor_(config.monitor),
      estimator_(config.estimator),
      seq_(config.seq),
      map_(DataPages(config, *device) * kQuantaPerBlock) {
  cpu_contexts_busy_.assign(std::max<u32>(1, config_.cpu_contexts), 0);
  data_pages_ = DataPages(config_, *device_);
  if (config_.compress_pool != nullptr) {
    pool_scratch_.reserve(config_.compress_pool->thread_count());
    for (std::size_t i = 0; i < config_.compress_pool->thread_count(); ++i) {
      pool_scratch_.push_back(std::make_unique<codec::Scratch>());
    }
  }
  if (config_.durability.enabled) {
    EDC_CHECK(config_.mode == ExecutionMode::kFunctional)
        << "durable mode needs functional execution (real payloads)";
    EDC_CHECK(config_.durability.max_program_retries < 16)
        << "program-retry budget exceeds the journal's attempt bound";
  }
  RegisterObservability();
}

Engine::~Engine() {
  if (config_.obs == nullptr || stats_collector_ == 0) return;
  obs::MetricRegistry* m = config_.obs->metrics();
  if (m != nullptr) m->RemoveCollector(stats_collector_);
}

void Engine::RegisterObservability() {
  obs::Observer* o = config_.obs;
  if (o == nullptr) return;
  trace_ = o->trace();
  if (trace_ != nullptr) {
    trace_->NameThread(obs::kHostTid, "host requests");
    for (u32 c = 0; c < std::max<u32>(1, config_.cpu_contexts); ++c) {
      trace_->NameThread(obs::kCpuTidBase + c,
                         "cpu context " + std::to_string(c));
    }
    trace_->NameThread(obs::kDeviceTid, "device");
    if (config_.durability.enabled) {
      trace_->NameThread(obs::kJournalTid, "journal");
    }
  }
  obs::MetricRegistry* m = o->metrics();
  if (m == nullptr) return;
  write_latency_hist_ =
      m->GetHistogram("edc_write_latency_us", {}, obs::LatencyBoundsUs(),
                      "Host write latency in simulated microseconds");
  read_latency_hist_ =
      m->GetHistogram("edc_read_latency_us", {}, obs::LatencyBoundsUs(),
                      "Host read latency in simulated microseconds");
  alloc_quanta_hist_ = m->GetHistogram(
      "edc_alloc_quanta", {}, {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64},
      "Size-class quanta allocated per installed group");
  breaker_gauge_ =
      m->GetGauge("edc_breaker_open", {},
                  "1 while the degradation breaker has the engine demoted "
                  "to uncompressed writes");
  // Everything EngineStats already tracks is exported via a pull
  // collector, so the snapshot always agrees with stats() and the hot
  // path pays nothing extra for these.
  stats_collector_ = m->AddCollector([this](obs::SampleList& out) {
    const EngineStats& s = stats_;
    out.AddCounter("edc_host_writes_total", {}, s.host_writes,
                   "Host write requests");
    out.AddCounter("edc_host_reads_total", {}, s.host_reads,
                   "Host read requests");
    out.AddCounter("edc_logical_bytes_written_total", {},
                   s.logical_bytes_written,
                   "Original (pre-compression) bytes written");
    out.AddCounter("edc_compressed_bytes_total", {},
                   s.compressed_bytes_total,
                   "Post-codec payload bytes written");
    out.AddCounter("edc_allocated_bytes_total", {}, s.allocated_bytes_total,
                   "Size-class-rounded flash bytes allocated");
    out.AddCounter("edc_groups_written_total", {}, s.groups_written,
                   "Compression groups installed");
    out.AddCounter("edc_merged_blocks_total", {}, s.merged_blocks,
                   "Blocks written as part of multi-block merged groups");
    out.AddCounter("edc_blocks_skipped_total", {{"reason", "content"}},
                   s.blocks_skipped_content,
                   "Blocks stored raw by estimator/intensity skip");
    out.AddCounter("edc_blocks_skipped_total", {{"reason", "intensity"}},
                   s.blocks_skipped_intensity,
                   "Blocks stored raw by estimator/intensity skip");
    for (std::size_t c = 0; c <= codec::kMaxCodecId; ++c) {
      out.AddCounter(
          "edc_groups_by_codec_total",
          {{"codec",
            std::string(codec::CodecName(static_cast<codec::CodecId>(c)))}},
          s.groups_by_codec[c], "Groups written per selected codec");
    }
    out.AddCounter("edc_unmapped_block_reads_total", {},
                   s.unmapped_block_reads,
                   "Reads of never-written blocks (served as zeros)");
    out.AddCounter("edc_trimmed_blocks_total", {}, s.trimmed_blocks,
                   "Blocks released by host TRIM");
    out.AddCounter("edc_cache_hits_total", {}, s.cache_hits,
                   "Group-cache hits");
    out.AddCounter("edc_cache_misses_total", {}, s.cache_misses,
                   "Group-cache misses");
    out.AddGauge("edc_cpu_busy_seconds", {}, ToSeconds(s.cpu_busy_time),
                 "Simulated CPU time spent in codecs");
    out.AddGauge("edc_compression_ratio", {}, s.cumulative_ratio(),
                 "Cumulative original/allocated ratio (Fig. 8 metric)");
    out.AddGauge("edc_monitor_calculated_iops", {},
                 monitor_.smoothed_iops(),
                 "Workload monitor's smoothed calculated IOPS");
    out.AddCounter("edc_monitor_requests_total", {},
                   monitor_.total_requests(),
                   "Requests observed by the workload monitor");
    out.AddCounter("edc_monitor_page_units_total", {},
                   monitor_.total_page_units(),
                   "4 KiB page units observed by the workload monitor");
    // Fault handling, degradation and durability (PR 3 behaviour in one
    // snapshot: breaker state + trips + journal progress).
    out.AddCounter("edc_program_failures_total", {}, s.program_failures,
                   "Page-program failures seen (extent + journal)");
    out.AddCounter("edc_program_retries_total", {}, s.program_retries,
                   "Relocate/rewrite attempts after program failures");
    out.AddCounter("edc_media_errors_total", {}, s.media_errors,
                   "Read-side media errors (UCEs + integrity failures)");
    out.AddCounter("edc_breaker_trips_total", {}, s.breaker_trips,
                   "Times the degradation breaker opened");
    out.AddCounter("edc_degraded_groups_total", {}, s.degraded_groups,
                   "Groups written while the breaker was open");
    out.AddCounter("edc_journal_bytes_written_total", {},
                   s.journal_bytes_written,
                   "Journal stream bytes programmed to flash");
    out.AddCounter("edc_journal_checkpoints_total", {},
                   s.journal_checkpoints,
                   "Journal generation switches (checkpoints written)");
    out.AddGauge("edc_journal_generation", {},
                 journal_ ? static_cast<double>(journal_->generation()) : 0,
                 "Active journal generation (0 = journaling idle)");
    out.AddGauge("edc_journal_lag_records", {},
                 journal_ ? static_cast<double>(journal_->records()) : 0,
                 "Replayable records in the active journal generation "
                 "(recovery backlog; drops to 0 at each checkpoint)");
    out.AddCounter("edc_recovered_groups_total", {}, s.recovered_groups,
                   "Groups rebuilt by RecoverFromDevice");
    out.AddCounter("edc_read_retries_total", {}, s.read_retries,
                   "Device reads re-issued after transient kUnavailable");
    out.AddCounter("edc_scrub_runs_total", {}, s.scrub_runs,
                   "Background scrub passes completed");
    out.AddCounter("edc_scrub_groups_scanned_total", {},
                   s.scrub_groups_scanned,
                   "Groups whose extents the scrub re-read and verified");
    out.AddCounter("edc_scrub_crc_errors_total", {}, s.scrub_crc_errors,
                   "Latent extent integrity failures detected by scrub");
    out.AddCounter("edc_scrub_repaired_total", {}, s.scrub_repaired,
                   "Corrupt extents rewritten from redundancy by scrub");
    out.AddCounter("edc_scrub_unrepairable_total", {}, s.scrub_unrepairable,
                   "Corrupt extents redundancy could not recover");
  });
}

Engine::CpuSlot Engine::RunOnCpu(SimTime ready, SimTime duration) {
  // Earliest-available compression context serves the work (M/G/k-style
  // dispatch with a single arrival stream).
  std::size_t best = 0;
  for (std::size_t i = 1; i < cpu_contexts_busy_.size(); ++i) {
    if (cpu_contexts_busy_[i] < cpu_contexts_busy_[best]) best = i;
  }
  SimTime start = std::max(ready, cpu_contexts_busy_[best]);
  SimTime end = start + duration;
  cpu_contexts_busy_[best] = end;
  stats_.cpu_busy_time += duration;
  return CpuSlot{start, end, static_cast<u32>(best)};
}

Bytes Engine::MaterializeRun(const WriteRun& run) const {
  Bytes out(static_cast<std::size_t>(run.n_blocks) * kLogicalBlockSize);
  for (u32 i = 0; i < run.n_blocks; ++i) {
    Lba lba = run.first_block + i;
    auto it = versions_.find(lba);
    u64 version = it == versions_.end() ? 0 : it->second;
    generator_->GenerateInto(
        lba, version,
        MutableByteSpan(out).subspan(i * kLogicalBlockSize, kLogicalBlockSize));
  }
  return out;
}

datagen::ChunkKind Engine::KindOfRun(const WriteRun& run) const {
  return generator_->KindForLba(run.first_block);
}

Engine::GroupPlan Engine::PlanGroup(const WriteRun& run, SimTime ready) {
  GroupPlan plan;
  plan.run = run;
  plan.orig = static_cast<std::size_t>(run.n_blocks) * kLogicalBlockSize;
  plan.kind = KindOfRun(run);

  PolicyInputs in;
  in.calculated_iops = monitor_.CalculatedIops(ready);
  in.group_blocks = run.n_blocks;
  in.device_backlog = std::max<SimTime>(
      0, device_->next_free_time() - ready);
  if (config_.elastic.use_content_hints) {
    in.content_hint = static_cast<int>(plan.kind);
  }

  if (config_.mode == ExecutionMode::kFunctional) {
    plan.content = MaterializeRun(run);
    if (config_.scheme == Scheme::kEdc && config_.elastic.use_estimator) {
      in.est_compressed_fraction =
          estimator_.EstimateCompressedFraction(plan.content);
      if (trace_ != nullptr) {
        trace_->Instant("estimator.probe", "policy", obs::kHostTid, ready,
                        {{"lba", run.first_block},
                         {"est_fraction", in.est_compressed_fraction}});
      }
    }
  } else {
    // Modeled sampling estimate: the calibrated fraction of the fast
    // codec stands in for the sampling probe's prediction.
    in.est_compressed_fraction =
        cost_model_->Get(codec::CodecId::kLzf, plan.kind)
            .compressed_fraction;
  }
  plan.decision = policy_->Choose(in);
  if (plan.decision.skipped_for_content) {
    stats_.blocks_skipped_content += run.n_blocks;
  }
  if (plan.decision.skipped_for_intensity) {
    stats_.blocks_skipped_intensity += run.n_blocks;
  }
  if (stats_.breaker_open) {
    // Degraded operation: the media-error budget is exhausted, so stop
    // exercising the codec path and store everything raw.
    plan.decision.codec = codec::CodecId::kStore;
  }
  if (trace_ != nullptr) {
    // The paper's elastic selection in one event: the monitor's
    // calculated-IOPS band, the estimator's verdict and the chosen codec.
    trace_->Instant(
        "policy.select", "policy", obs::kHostTid, ready,
        {{"lba", run.first_block},
         {"blocks", run.n_blocks},
         {"calculated_iops", in.calculated_iops},
         {"est_fraction", in.est_compressed_fraction},
         {"codec", codec::CodecName(plan.decision.codec)},
         {"skipped_content", plan.decision.skipped_for_content},
         {"skipped_intensity", plan.decision.skipped_for_intensity},
         {"breaker_open", stats_.breaker_open}});
  }
  return plan;
}

void Engine::ObserveBreakerTransition(bool open, SimTime at) {
  if (breaker_gauge_ != nullptr) breaker_gauge_->Set(open ? 1.0 : 0.0);
  if (trace_ != nullptr) {
    trace_->Instant(open ? "breaker.open" : "breaker.close", "fault",
                    obs::kHostTid, at, {{"errors", breaker_errors_}});
  }
}

void Engine::NoteBreakerError(SimTime at) {
  if (config_.breaker_error_budget == 0 || stats_.breaker_open) return;
  if (++breaker_errors_ >= config_.breaker_error_budget) {
    stats_.breaker_open = true;
    ++stats_.breaker_trips;
    ObserveBreakerTransition(true, at);
  }
}

codec::Scratch* Engine::ScratchForThisThread() const {
  WorkerPool* pool = WorkerPool::CurrentPool();
  if (pool != nullptr && pool == config_.compress_pool) {
    const std::size_t idx = WorkerPool::CurrentWorkerIndex();
    // Confinement guard: one arena per worker, sized at construction. A
    // pool swapped in after construction (more workers than arenas)
    // would silently share arenas across threads — fail fast instead.
    EDC_CHECK(idx < pool_scratch_.size())
        << "worker index " << idx << " outside the " << pool_scratch_.size()
        << " scratch arenas sized at engine construction; "
        << "EngineConfig::compress_pool must not change after construction";
    return pool_scratch_[idx].get();
  }
  return &serial_scratch_;
}

Result<Engine::CodecResult> Engine::ExecuteCodec(
    const GroupPlan& plan) const {
  CodecResult cr;
  codec::Scratch* scratch = ScratchForThisThread();
  auto fr = codec::FrameCompress(plan.content, plan.decision.codec, scratch);
  if (!fr.ok()) return fr.status();
  auto info = codec::FrameParse(*fr);
  if (!info.ok()) return info.status();
  cr.tag = info->codec;
  cr.payload_size = info->payload_size;
  // The paper's 75% rule: a block compressing to >75% of its original
  // size is treated as non-compressible and stored raw.
  if (cr.tag != codec::CodecId::kStore &&
      cr.payload_size * 4 > plan.orig * 3) {
    auto stored =
        codec::FrameCompress(plan.content, codec::CodecId::kStore, scratch);
    if (!stored.ok()) return stored.status();
    fr = std::move(stored);
    cr.tag = codec::CodecId::kStore;
    cr.payload_size = plan.orig;
  }
  cr.frame = std::move(*fr);
  if (cost_model_ != nullptr &&
      plan.decision.codec != codec::CodecId::kStore) {
    cr.comp_time =
        cost_model_->CompressTime(plan.decision.codec, plan.kind, plan.orig);
  }
  return cr;
}

Result<Engine::CodecResult> Engine::ModeledCodecOutcome(
    const GroupPlan& plan) {
  CodecResult cr;
  cr.tag = plan.decision.codec;
  cr.payload_size = plan.orig;
  if (plan.decision.codec == codec::CodecId::kStore) return cr;

  auto vit = versions_.find(plan.run.first_block);
  const u64 version = vit == versions_.end() ? 0 : vit->second;
  cr.payload_size = cost_model_->CompressedSize(
      plan.decision.codec, plan.kind, plan.orig,
      plan.run.first_block * 1315423911u + version);
  cr.comp_time =
      cost_model_->CompressTime(plan.decision.codec, plan.kind, plan.orig);
  if (cr.payload_size * 4 > plan.orig * 3) {
    cr.tag = codec::CodecId::kStore;
    cr.payload_size = plan.orig;
  }
  // Drift self-check: run the real codec on a sampled group.
  if (config_.modeled_check_interval != 0 &&
      stats_.groups_written % config_.modeled_check_interval == 0) {
    Bytes real_out;
    Bytes real_in = MaterializeRun(plan.run);
    const codec::Codec& real_codec = codec::GetCodec(plan.decision.codec);
    real_out.reserve(real_codec.MaxCompressedSize(real_in.size()));
    if (real_codec.Compress(real_in, &real_out, &serial_scratch_).ok()) {
      double modeled_f = static_cast<double>(cr.payload_size) /
                         static_cast<double>(plan.orig);
      double real_f = static_cast<double>(real_out.size()) /
                      static_cast<double>(plan.orig);
      ++stats_.drift_checks;
      stats_.drift_abs_error_sum += std::abs(modeled_f - real_f);
    }
  }
  return cr;
}

Result<Engine::GroupOutcome> Engine::InstallGroup(const GroupPlan& plan,
                                                  CodecResult cr,
                                                  SimTime ready) {
  const WriteRun& run = plan.run;
  const std::size_t orig = plan.orig;
  const codec::CodecId tag = cr.tag;
  const std::size_t payload_size = cr.payload_size;

  CpuSlot cpu = RunOnCpu(ready, cr.comp_time);
  SimTime cpu_end = cpu.end;
  if (trace_ != nullptr && cr.comp_time > 0) {
    trace_->Span("codec.compress", "codec", obs::kCpuTidBase + cpu.context,
                 cpu.start, cpu.end,
                 {{"codec", codec::CodecName(tag)},
                  {"orig_bytes", static_cast<u64>(orig)},
                  {"payload_bytes", static_cast<u64>(payload_size)}});
  }

  // Durable mode stores the frame wrapped in a self-describing extent
  // header; the extent (not the bare frame) is what occupies flash, so it
  // drives size-classing and the mapping's stored-size field.
  Bytes extent;
  std::size_t stored_bytes = payload_size;
  if (config_.durability.enabled) {
    auto ext = codec::BuildExtent(run.first_block, run.n_blocks, cr.frame);
    if (!ext.ok()) return ext.status();
    extent = std::move(*ext);
    stored_bytes = extent.size();
  }

  // --- Placement and device write (Request Distributer) ----------------
  u32 alloc_quanta = 0;
  switch (config_.alloc_policy) {
    case AllocPolicy::kSizeClass:
      alloc_quanta = SizeClassQuanta(stored_bytes, run.n_blocks);
      break;
    case AllocPolicy::kExactQuanta:
      alloc_quanta = static_cast<u32>(
          (stored_bytes + kQuantumBytes - 1) / kQuantumBytes);
      alloc_quanta = std::max(alloc_quanta, 1u);
      break;
    case AllocPolicy::kWholePage:
      alloc_quanta = run.n_blocks * kQuantaPerBlock;
      break;
  }
  std::vector<u64> freed;
  const u64 bump_before = map_.allocator().bump_used();
  auto gid = map_.Install(run.first_block, run.n_blocks, tag, stored_bytes,
                          alloc_quanta, &freed);
  if (!gid.ok()) return gid.status();
  for (u64 dead : freed) {
    payloads_.erase(dead);
    CacheErase(dead);
  }
  if (config_.mode == ExecutionMode::kFunctional) {
    payloads_[*gid] = std::move(cr.frame);
  }

  const GroupInfo& g = map_.Group(*gid);
  const u64 bump_after = map_.allocator().bump_used();
  if (alloc_quanta_hist_ != nullptr) {
    alloc_quanta_hist_->Observe(static_cast<double>(alloc_quanta));
  }
  if (trace_ != nullptr) {
    trace_->Instant("alloc.place", "alloc", obs::kHostTid, cpu_end,
                    {{"group", *gid},
                     {"quanta", alloc_quanta},
                     {"stored_bytes", static_cast<u64>(stored_bytes)},
                     {"start_quantum", g.start_quantum}});
  }
  SimTime completion = cpu_end;
  if (config_.durability.enabled) {
    // Write-through: the extent is programmed (with program-failure
    // relocation) and the install journaled before the write is acked.
    std::vector<u64> attempt_starts{g.start_quantum};
    auto programmed =
        DurableProgramExtent(*gid, extent, cpu_end, &attempt_starts);
    if (!programmed.ok()) return programmed.status();
    InstallRecord rec;
    rec.first_lba = run.first_block;
    rec.n_blocks = run.n_blocks;
    rec.tag = tag;
    rec.stored_bytes = stored_bytes;
    rec.quanta = g.quanta;
    rec.attempt_starts = std::move(attempt_starts);
    for (u32 i = 0; i < run.n_blocks; ++i) {
      auto vit = versions_.find(run.first_block + i);
      rec.versions.push_back(vit == versions_.end() ? 0 : vit->second);
    }
    auto journaled = JournalAppendRecord(cpu_end, &rec, nullptr);
    if (!journaled.ok()) return journaled.status();
    completion = std::max(*programmed, *journaled);
    if (stats_.breaker_open) ++stats_.degraded_groups;
  } else if (bump_after > bump_before) {
    // Write-buffer packing: groups placed in the fresh (bump) region are
    // flushed page-by-page as pages fill; a sub-page group that leaves the
    // open page partially filled completes immediately (DRAM buffer ack)
    // and its page is programmed by whichever later group completes it.
    // Groups placed into recycled holes rewrite their pages out-of-place.
    u64 complete_pages = bump_after / kQuantaPerBlock;
    if (complete_pages > flushed_frontier_page_) {
      auto io = device_->WriteModeled(
          flushed_frontier_page_, complete_pages - flushed_frontier_page_,
          cpu_end);
      if (!io.ok()) return io.status();
      if (trace_ != nullptr) {
        trace_->Span("flash.program", "device", obs::kDeviceTid, io->start,
                     io->completion,
                     {{"first_page", flushed_frontier_page_},
                      {"pages", complete_pages - flushed_frontier_page_}});
      }
      flushed_frontier_page_ = complete_pages;
      completion = io->completion;
    }
  } else {
    auto [first_page, n_pages] = CoveringPages(g.start_quantum, g.quanta);
    auto io = device_->WriteModeled(first_page, n_pages, cpu_end);
    if (!io.ok()) return io.status();
    if (trace_ != nullptr) {
      trace_->Span("flash.program", "device", obs::kDeviceTid, io->start,
                   io->completion,
                   {{"first_page", first_page}, {"pages", n_pages}});
    }
    completion = io->completion;
  }

  // --- Accounting -------------------------------------------------------
  ++stats_.groups_written;
  if (run.n_blocks > 1) stats_.merged_blocks += run.n_blocks;
  ++stats_.groups_by_codec[static_cast<std::size_t>(tag)];
  stats_.logical_bytes_written += orig;
  stats_.compressed_bytes_total += payload_size;
  stats_.allocated_bytes_total +=
      static_cast<u64>(alloc_quanta) * kQuantumBytes;

  GroupOutcome outcome;
  outcome.completion = completion;
  return outcome;
}

Result<Engine::GroupOutcome> Engine::CompressAndStore(const WriteRun& run,
                                                      SimTime ready) {
  GroupPlan plan = PlanGroup(run, ready);
  auto execute = [&]() -> Result<CodecResult> {
    if (config_.mode != ExecutionMode::kFunctional) {
      return ModeledCodecOutcome(plan);
    }
    if (config_.compress_pool != nullptr) {
      // Even a single run executes on the pool, keeping all real codec
      // work off the simulation thread.
      return config_.compress_pool
          ->Submit([this, &plan] { return ExecuteCodec(plan); })
          .get();
    }
    return ExecuteCodec(plan);
  };
  auto cr = execute();
  if (!cr.ok()) return cr.status();
  return InstallGroup(plan, std::move(*cr), ready);
}

bool Engine::PlansCommute() const {
  // Fixed/Native policies ignore their inputs entirely; the elastic
  // policy reads the device backlog — the only policy input an install
  // changes — just when the Fig. 6 feedback is enabled.
  return config_.scheme != Scheme::kEdc ||
         config_.elastic.backlog_saturate == 0;
}

Result<SimTime> Engine::CompressBatch(const std::vector<WriteRun>& runs,
                                      SimTime ready) {
  struct Inflight {
    std::shared_ptr<GroupPlan> plan;
    std::future<Result<CodecResult>> result;
  };
  std::deque<Inflight> inflight;
  const std::size_t window = std::max<u32>(1, config_.cpu_contexts);
  SimTime completion = ready;
  std::size_t next = 0;

  Status failed = Status::Ok();
  while (next < runs.size() || !inflight.empty()) {
    if (failed.ok() && next < runs.size() && inflight.size() < window) {
      auto plan = std::make_shared<GroupPlan>(PlanGroup(runs[next], ready));
      ++next;
      auto fut = config_.compress_pool->Submit(
          [this, plan] { return ExecuteCodec(*plan); });
      inflight.push_back(Inflight{std::move(plan), std::move(fut)});
      continue;
    }
    if (inflight.empty()) break;
    Inflight job = std::move(inflight.front());
    inflight.pop_front();
    auto cr = job.result.get();  // also drains the queue after a failure
    if (!failed.ok()) continue;
    if (!cr.ok()) {
      failed = cr.status();
      continue;
    }
    auto outcome = InstallGroup(*job.plan, std::move(*cr), ready);
    if (!outcome.ok()) {
      failed = outcome.status();
      continue;
    }
    completion = std::max(completion, outcome->completion);
  }
  if (!failed.ok()) return failed;
  return completion;
}

AuditReport Engine::Audit() const {
  StateAuditor::Options options;
  options.policy = config_.alloc_policy;
  AuditReport report = StateAuditor::AuditMap(map_, options);

  // Payload store: in functional mode every live group must own exactly one
  // stored frame whose header agrees with the group's mapping metadata.
  if (config_.mode == ExecutionMode::kFunctional) {
    for (const auto& [id, g] : map_.groups()) {
      auto it = payloads_.find(id);
      if (it == payloads_.end()) {
        report.Add(audit::kPayloadStore,
                   "group " + std::to_string(id) + ": no stored frame");
        continue;
      }
      auto info = codec::FrameParse(it->second);
      if (!info.ok()) {
        report.Add(audit::kPayloadStore,
                   "group " + std::to_string(id) +
                       ": unparseable frame: " + info.status().ToString());
        continue;
      }
      if (info->codec != g.tag) {
        report.Add(audit::kPayloadStore,
                   "group " + std::to_string(id) +
                       ": frame codec disagrees with the mapping tag");
      }
      if (info->original_size !=
          static_cast<std::size_t>(g.orig_blocks) * kLogicalBlockSize) {
        report.Add(audit::kPayloadStore,
                   "group " + std::to_string(id) +
                       ": frame original size disagrees with member count");
      }
      if (config_.durability.enabled) {
        // Durable mapping records the whole on-flash extent (header +
        // frame), not the bare codec payload.
        std::size_t expect =
            it->second.size() +
            codec::ExtentHeaderSize(g.first_lba, g.orig_blocks,
                                    it->second.size());
        if (expect != g.compressed_bytes) {
          report.Add(audit::kPayloadStore,
                     "group " + std::to_string(id) +
                         ": extent size disagrees with the mapping");
        }
      } else if (info->payload_size != g.compressed_bytes) {
        report.Add(audit::kPayloadStore,
                   "group " + std::to_string(id) +
                       ": frame payload size disagrees with the mapping");
      }
    }
    for (const auto& [id, frame] : payloads_) {
      if (map_.groups().find(id) == map_.groups().end()) {
        report.Add(audit::kPayloadStore,
                   "orphan frame for dead group " + std::to_string(id));
      }
    }
  }

  // SD merge buffer: a pending run must be a sane, still-unflushed write
  // run — nonempty, within the merge cap, and every member block must have
  // a recorded write version (reads/non-contiguous writes flush the run
  // before touching it, so a version can never disappear under it).
  if (seq_.has_pending()) {
    const WriteRun& p = seq_.pending();
    if (p.n_blocks == 0 || p.n_blocks > config_.seq.max_merge_blocks) {
      report.Add(audit::kMergeBuffer,
                 "pending run of " + std::to_string(p.n_blocks) +
                     " blocks violates the merge cap");
    }
    for (u32 i = 0; i < p.n_blocks; ++i) {
      if (versions_.find(p.first_block + i) == versions_.end()) {
        report.Add(audit::kMergeBuffer,
                   "pending lba " + std::to_string(p.first_block + i) +
                       " has no recorded write version");
      }
    }
  }
  return report;
}

Status Engine::MaybeAudit(SimTime at) {
  if (config_.audit_every_n_ops == 0) return Status::Ok();
  if (++ops_since_audit_ < config_.audit_every_n_ops) return Status::Ok();
  ops_since_audit_ = 0;
  AuditReport report = Audit();
  if (!report.ok()) {
    if (trace_ != nullptr) {
      trace_->Instant(
          "audit.fail", "fault", obs::kHostTid, at,
          {{"violations", static_cast<u64>(report.violations.size())}});
    }
    return Status::Internal("inline state audit failed: " +
                            report.ToString());
  }
  return Status::Ok();
}

Status Engine::MaybeIdleFlush(SimTime arrival) {
  if (!config_.use_seq_detector || config_.seq.idle_flush_timeout == 0 ||
      !seq_.has_pending()) {
    return Status::Ok();
  }
  SimTime deadline = seq_.pending().last_arrival +
                     config_.seq.idle_flush_timeout;
  if (arrival <= deadline) return Status::Ok();
  // The flush logically happened at the deadline, during the idle gap —
  // it occupies the CPU/device then, not at `arrival`.
  auto run = seq_.Flush();
  if (trace_ != nullptr) {
    trace_->Instant("sd.idle_flush", "sd", obs::kHostTid, deadline,
                    {{"lba", run->first_block}, {"blocks", run->n_blocks}});
  }
  auto outcome = CompressAndStore(*run, deadline);
  return outcome.status();
}

Result<SimTime> Engine::Write(SimTime arrival, u64 offset, u32 size) {
  owner_.Check("Engine::Write");
  if (size == 0) return arrival;
  EDC_RETURN_IF_ERROR(MaybeIdleFlush(arrival));
  monitor_.Record(arrival, size);
  ++stats_.host_writes;

  auto [first, n_blocks] = CoveringBlocks(offset, size);
  for (u32 i = 0; i < n_blocks; ++i) {
    ++versions_[first + i];
  }

  SimTime completion = arrival;
  if (config_.use_seq_detector) {
    const std::vector<WriteRun> sealed =
        seq_.OnWrite(first, n_blocks, arrival);
    if (trace_ != nullptr) {
      for (const WriteRun& run : sealed) {
        trace_->Instant("sd.seal", "sd", obs::kHostTid, arrival,
                        {{"lba", run.first_block},
                         {"blocks", run.n_blocks}});
      }
      if (seq_.has_pending()) {
        const WriteRun& p = seq_.pending();
        trace_->Instant("sd.merge", "sd", obs::kHostTid, arrival,
                        {{"lba", p.first_block}, {"blocks", p.n_blocks}});
      }
    }
    // A large write can seal several runs at once; overlap their real
    // codec work across the pool when the decisions provably cannot
    // depend on each other's installs (results stay byte-identical).
    if (sealed.size() > 1 && config_.compress_pool != nullptr &&
        config_.mode == ExecutionMode::kFunctional && PlansCommute()) {
      auto done = CompressBatch(sealed, arrival);
      if (!done.ok()) return done.status();
      completion = std::max(completion, *done);
    } else {
      for (const WriteRun& run : sealed) {
        auto outcome = CompressAndStore(run, arrival);
        if (!outcome.ok()) return outcome.status();
        completion = std::max(completion, outcome->completion);
      }
    }
  } else {
    WriteRun run{first, n_blocks, arrival};
    auto outcome = CompressAndStore(run, arrival);
    if (!outcome.ok()) return outcome.status();
    completion = outcome->completion;
  }

  if (config_.durability.enabled && config_.use_seq_detector &&
      seq_.has_pending()) {
    // Write-through durability: an acked write must be on flash and in
    // the journal, so the merge buffer cannot hold data across requests.
    // (Merging within one request still happens above; cross-request
    // merging is forfeited — the measured cost of the crash guarantee.)
    auto run = seq_.Flush();
    auto outcome = CompressAndStore(*run, arrival);
    if (!outcome.ok()) return outcome.status();
    completion = std::max(completion, outcome->completion);
  }

  stats_.write_latency_us.Add(ToMicros(completion - arrival));
  if (write_latency_hist_ != nullptr) {
    write_latency_hist_->Observe(ToMicros(completion - arrival));
  }
  if (trace_ != nullptr) {
    trace_->Span("host.write", "host", obs::kHostTid, arrival, completion,
                 {{"offset", offset}, {"size", size}});
  }
  EDC_RETURN_IF_ERROR(MaybeAudit(completion));
  return completion;
}

bool Engine::CacheLookup(u64 group_id) {
  if (config_.cache_groups == 0) return false;
  auto it = cache_index_.find(group_id);
  if (it == cache_index_.end()) {
    ++stats_.cache_misses;
    return false;
  }
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  ++stats_.cache_hits;
  return true;
}

void Engine::CacheInsert(u64 group_id) {
  if (config_.cache_groups == 0) return;
  if (cache_index_.count(group_id) != 0) return;
  cache_lru_.push_front(group_id);
  cache_index_[group_id] = cache_lru_.begin();
  while (cache_lru_.size() > config_.cache_groups) {
    cache_index_.erase(cache_lru_.back());
    cache_lru_.pop_back();
  }
}

void Engine::CacheErase(u64 group_id) {
  auto it = cache_index_.find(group_id);
  if (it == cache_index_.end()) return;
  cache_lru_.erase(it->second);
  cache_index_.erase(it);
}

Result<SimTime> Engine::Read(SimTime arrival, u64 offset, u32 size) {
  owner_.Check("Engine::Read");
  if (size == 0) return arrival;
  EDC_RETURN_IF_ERROR(MaybeIdleFlush(arrival));
  monitor_.Record(arrival, size);
  ++stats_.host_reads;

  SimTime ready = arrival;
  if (config_.use_seq_detector) {
    if (auto run = seq_.OnRead()) {
      auto outcome = CompressAndStore(*run, arrival);
      if (!outcome.ok()) return outcome.status();
      ready = std::max(ready, outcome->completion);
    }
  }

  auto [first, n_blocks] = CoveringBlocks(offset, size);
  SimTime completion = ready;
  u64 prev_group = 0;
  for (u32 i = 0; i < n_blocks; ++i) {
    auto gid = map_.FindGroupId(first + i);
    if (!gid) {
      ++stats_.unmapped_block_reads;
      if (trace_ != nullptr) {
        trace_->Instant("map.miss", "map", obs::kHostTid, ready,
                        {{"lba", first + i}});
      }
      continue;
    }
    if (*gid == prev_group) continue;  // group already fetched
    prev_group = *gid;
    const GroupInfo& g = map_.Group(*gid);

    if (CacheLookup(*gid)) {
      if (trace_ != nullptr && config_.cache_groups != 0) {
        trace_->Instant("cache.hit", "cache", obs::kHostTid, ready,
                        {{"group", *gid}});
      }
      continue;  // served from the DRAM group cache: no device, no CPU
    }
    if (trace_ != nullptr && config_.cache_groups != 0) {
      trace_->Instant("cache.miss", "cache", obs::kHostTid, ready,
                      {{"group", *gid}});
    }

    auto [first_page, n_pages] = CoveringPages(g.start_quantum, g.quanta);
    auto io = FetchPagesWithRetry(first_page, n_pages, ready);
    if (!io.ok()) {
      if (io.status().code() == StatusCode::kMediaError) {
        ++stats_.media_errors;
        if (trace_ != nullptr) {
          trace_->Instant("fault.media_error", "fault", obs::kDeviceTid,
                          ready,
                          {{"first_page", first_page}, {"group", *gid}});
        }
        NoteBreakerError(ready);
      }
      return io.status();
    }
    if (trace_ != nullptr) {
      trace_->Span("flash.read", "device", obs::kDeviceTid, io->start,
                   io->completion,
                   {{"first_page", first_page},
                    {"pages", n_pages},
                    {"group", *gid}});
    }
    SimTime t = io->completion;
    if (config_.durability.enabled) {
      EDC_RETURN_IF_ERROR(VerifyExtentRead(g, io->pages, t));
    }

    if (g.tag != codec::CodecId::kStore && cost_model_ != nullptr) {
      const std::size_t orig =
          static_cast<std::size_t>(g.orig_blocks) * kLogicalBlockSize;
      SimTime dt = cost_model_->DecompressTime(
          g.tag, generator_->KindForLba(g.first_lba), orig);
      CpuSlot cpu = RunOnCpu(t, dt);
      if (trace_ != nullptr && dt > 0) {
        trace_->Span("codec.decompress", "codec",
                     obs::kCpuTidBase + cpu.context, cpu.start, cpu.end,
                     {{"codec", codec::CodecName(g.tag)},
                      {"orig_bytes", static_cast<u64>(orig)},
                      {"group", *gid}});
      }
      t = cpu.end;
    }
    CacheInsert(*gid);
    completion = std::max(completion, t);
  }

  stats_.read_latency_us.Add(ToMicros(completion - arrival));
  if (read_latency_hist_ != nullptr) {
    read_latency_hist_->Observe(ToMicros(completion - arrival));
  }
  if (trace_ != nullptr) {
    trace_->Span("host.read", "host", obs::kHostTid, arrival, completion,
                 {{"offset", offset}, {"size", size}});
  }
  EDC_RETURN_IF_ERROR(MaybeAudit(completion));
  return completion;
}

Result<Bytes> Engine::ParseStoredExtent(const GroupInfo& g,
                                        const std::vector<Bytes>& pages) {
  Bytes span;
  span.reserve(pages.size() * kLogicalBlockSize);
  for (const Bytes& page : pages) {
    if (page.size() != kLogicalBlockSize) {
      return Status::DataLoss("extent page missing or truncated");
    }
    span.insert(span.end(), page.begin(), page.end());
  }
  const std::size_t off = static_cast<std::size_t>(
      g.start_quantum % kQuantaPerBlock) * kQuantumBytes;
  if (off + g.compressed_bytes > span.size()) {
    return Status::DataLoss("extent overruns its pages");
  }
  ByteSpan extent = ByteSpan(span).subspan(off, g.compressed_bytes);
  auto info = codec::ParseExtentHeader(extent);
  if (!info.ok()) return Status::DataLoss(info.status().message());
  if (info->first_lba != g.first_lba || info->n_blocks != g.orig_blocks ||
      info->codec != g.tag ||
      info->header_size + info->frame_size != g.compressed_bytes) {
    return Status::DataLoss("extent header disagrees with the mapping");
  }
  auto frame = codec::ExtentFrame(extent);
  if (!frame.ok()) return Status::DataLoss(frame.status().message());
  return Bytes(frame->begin(), frame->end());
}

Status Engine::VerifyExtentRead(const GroupInfo& g,
                                const std::vector<Bytes>& pages,
                                SimTime at) {
  auto frame = ParseStoredExtent(g, pages);
  if (frame.ok()) return Status::Ok();
  Status check =
      Status::DataLoss("read integrity: " + frame.status().message());
  ++stats_.media_errors;
  if (trace_ != nullptr) {
    trace_->Instant("extent.verify_fail", "fault", obs::kDeviceTid, at,
                    {{"first_lba", g.first_lba}, {"why", check.message()}});
  }
  NoteBreakerError(at);
  return check;
}

Result<ssd::IoResult> Engine::FetchPagesWithRetry(Lba first_page,
                                                  u64 n_pages,
                                                  SimTime ready) {
  SimTime at = ready;
  for (u32 attempt = 0;; ++attempt) {
    auto io = device_->Read(first_page, n_pages, at);
    if (io.ok() || io.status().code() != StatusCode::kUnavailable ||
        attempt >= config_.read_retry_attempts) {
      return io;
    }
    ++stats_.read_retries;
    at += static_cast<SimTime>(attempt + 1) * config_.read_retry_backoff;
    if (trace_ != nullptr) {
      trace_->Instant("read.retry", "fault", obs::kDeviceTid, at,
                      {{"first_page", first_page},
                       {"attempt", static_cast<u64>(attempt) + 1}});
    }
  }
}

Result<Engine::ScrubReport> Engine::Scrub(SimTime now) {
  owner_.Check("Engine::Scrub");
  ScrubReport report;
  report.completion = now;
  if (config_.durability.enabled) {
    // Snapshot the live group ids and walk them in ascending order so a
    // scrub pass is deterministic regardless of slab slot recycling.
    std::vector<u64> ids;
    ids.reserve(map_.num_groups());
    for (const auto& [id, g] : map_.groups()) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    SimTime t = now;
    for (u64 id : ids) {
      const GroupInfo& g = map_.Group(id);
      auto [first_page, n_pages] = CoveringPages(g.start_quantum, g.quanta);
      auto io = FetchPagesWithRetry(first_page, n_pages, t);
      if (!io.ok()) return io.status();
      t = io->completion;
      ++report.groups_scanned;
      if (ParseStoredExtent(g, io->pages).ok()) continue;
      ++report.crc_errors;
      if (trace_ != nullptr) {
        trace_->Instant("scrub.crc_error", "fault", obs::kDeviceTid, t,
                        {{"group", id}, {"first_page", first_page}});
      }
      auto rebuilt = device_->ReadRebuilt(first_page, n_pages, t);
      if (rebuilt.ok()) t = rebuilt->completion;
      if (rebuilt.ok() && ParseStoredExtent(g, rebuilt->pages).ok()) {
        auto fix = device_->WriteRepair(first_page, rebuilt->pages, t);
        if (!fix.ok()) return fix.status();
        t = fix->completion;
        ++report.repaired;
        if (trace_ != nullptr) {
          trace_->Instant("scrub.repair", "scrub", obs::kDeviceTid, t,
                          {{"group", id}, {"first_page", first_page}});
        }
      } else {
        ++report.unrepairable;
        if (trace_ != nullptr) {
          trace_->Instant("scrub.unrepairable", "fault", obs::kDeviceTid, t,
                          {{"group", id}, {"first_page", first_page}});
        }
      }
    }
    report.completion = t;
  }
  auto parity = device_->ScrubParity(report.completion);
  if (parity.ok()) {
    report.parity_rows_scanned = parity->rows_scanned;
    report.parity_mismatches = parity->mismatches;
    report.parity_repaired = parity->repaired;
    report.completion = std::max(report.completion, parity->completion);
  } else if (parity.status().code() != StatusCode::kFailedPrecondition) {
    // A degraded array refuses the parity pass (kFailedPrecondition);
    // the extent pass above still ran, so that is not an error here.
    return parity.status();
  }
  ++stats_.scrub_runs;
  stats_.scrub_groups_scanned += report.groups_scanned;
  stats_.scrub_crc_errors += report.crc_errors;
  stats_.scrub_repaired += report.repaired;
  stats_.scrub_unrepairable += report.unrepairable;
  return report;
}

Result<SimTime> Engine::Trim(SimTime arrival, u64 offset, u32 size) {
  owner_.Check("Engine::Trim");
  if (size == 0) return arrival;
  auto [first, n_blocks] = CoveringBlocks(offset, size);

  SimTime ready = arrival;
  if (config_.use_seq_detector && seq_.has_pending()) {
    // Flush first if the discard overlaps the pending merge run; a
    // non-overlapping discard leaves the run merging.
    const WriteRun& p = seq_.pending();
    bool overlap = first < p.first_block + p.n_blocks &&
                   p.first_block < first + n_blocks;
    if (overlap) {
      auto run = seq_.Flush();
      auto outcome = CompressAndStore(*run, arrival);
      if (!outcome.ok()) return outcome.status();
      ready = outcome->completion;
    }
  }

  for (u32 i = 0; i < n_blocks; ++i) {
    Lba lba = first + i;
    if (auto dead = map_.Release(lba)) {
      payloads_.erase(*dead);
      CacheErase(*dead);
    }
    versions_.erase(lba);
    ++stats_.trimmed_blocks;
  }
  if (config_.durability.enabled) {
    ReleaseRecord rec;
    rec.first_lba = first;
    rec.n_blocks = n_blocks;
    auto journaled = JournalAppendRecord(ready, nullptr, &rec);
    if (!journaled.ok()) return journaled.status();
    ready = std::max(ready, *journaled);
  }
  if (trace_ != nullptr) {
    trace_->Span("host.trim", "host", obs::kHostTid, arrival, ready,
                 {{"offset", offset}, {"size", size}});
  }
  EDC_RETURN_IF_ERROR(MaybeAudit(ready));
  return ready;
}

Result<SimTime> Engine::FlushPending(SimTime now) {
  owner_.Check("Engine::FlushPending");
  SimTime completion = now;
  if (config_.use_seq_detector) {
    if (auto run = seq_.Flush()) {
      auto outcome = CompressAndStore(*run, now);
      if (!outcome.ok()) return outcome.status();
      completion = outcome->completion;
    }
  }
  // Flush the partially-filled open page, if any. Durable mode already
  // writes every extent through at install time, so there is no open page.
  if (config_.durability.enabled) return completion;
  u64 partial_pages =
      (map_.allocator().bump_used() + kQuantaPerBlock - 1) / kQuantaPerBlock;
  if (partial_pages > flushed_frontier_page_) {
    auto io = device_->WriteModeled(
        flushed_frontier_page_, partial_pages - flushed_frontier_page_,
        completion);
    if (!io.ok()) return io.status();
    if (trace_ != nullptr) {
      trace_->Span("flash.program", "device", obs::kDeviceTid, io->start,
                   io->completion,
                   {{"first_page", flushed_frontier_page_},
                    {"pages", partial_pages - flushed_frontier_page_}});
    }
    flushed_frontier_page_ = partial_pages;
    completion = io->completion;
  }
  return completion;
}


Result<SimTime> Engine::DurableProgramExtent(
    u64 group_id, ByteSpan extent, SimTime ready,
    std::vector<u64>* attempt_starts) {
  u32 retries_left = config_.durability.max_program_retries;
  std::vector<Bytes> owned;
  for (;;) {
    const GroupInfo& g = map_.Group(group_id);
    auto [first_page, n_pages] = CoveringPages(g.start_quantum, g.quanta);
    EDC_CHECK(first_page + n_pages <= data_pages_)
        << "extent of group " << group_id << " overruns the data area";
    std::span<const Bytes> pages;
    if (g.quanta < kQuantaPerBlock) {
      // Sub-page extent (the allocator keeps it inside one page): compose
      // it into the page image, whose other bytes re-send the neighbours.
      Bytes& image = shared_pages_[first_page];
      if (image.empty()) image.assign(kLogicalBlockSize, 0);
      std::size_t off = static_cast<std::size_t>(
          g.start_quantum % kQuantaPerBlock) * kQuantumBytes;
      EDC_CHECK(n_pages == 1 && off + extent.size() <= kLogicalBlockSize)
          << "sub-page extent of group " << group_id << " straddles a page";
      std::copy(extent.begin(), extent.end(),
                image.begin() + static_cast<std::ptrdiff_t>(off));
      pages = std::span<const Bytes>(&image, 1);
    } else {
      // Page-aligned extent that owns whole pages: program it straight
      // from the extent bytes, the last page zero-padded.
      EDC_CHECK(g.start_quantum % kQuantaPerBlock == 0)
          << "multi-quantum extent of group " << group_id
          << " is not page aligned";
      owned.assign(static_cast<std::size_t>(n_pages),
                   Bytes(kLogicalBlockSize, 0));
      for (std::size_t off = 0; off < extent.size();
           off += kLogicalBlockSize) {
        std::copy_n(extent.begin() + static_cast<std::ptrdiff_t>(off),
                    std::min(kLogicalBlockSize, extent.size() - off),
                    owned[off / kLogicalBlockSize].begin());
      }
      pages = owned;
    }
    auto io = device_->Write(first_page, pages, ready);
    if (io.ok()) {
      if (trace_ != nullptr) {
        trace_->Span("flash.program", "device", obs::kDeviceTid, io->start,
                     io->completion,
                     {{"first_page", first_page},
                      {"pages", n_pages},
                      {"group", group_id}});
      }
      return io->completion;
    }
    if (io.status().code() != StatusCode::kMediaError) return io.status();
    ++stats_.program_failures;
    if (trace_ != nullptr) {
      trace_->Instant("fault.program_failure", "fault", obs::kDeviceTid,
                      ready,
                      {{"first_page", first_page},
                       {"group", group_id},
                       {"retries_left", retries_left}});
    }
    NoteBreakerError(ready);
    if (retries_left == 0) return io.status();
    --retries_left;
    ++stats_.program_retries;
    // The failed extent's media is suspect: quarantine it and move the
    // group to a fresh extent, then rewrite after a backoff.
    auto moved = map_.RelocateGroup(group_id);
    if (!moved.ok()) return moved.status();
    attempt_starts->push_back(*moved);
    ready += config_.durability.retry_backoff;
  }
}

Result<SimTime> Engine::JournalFlush(SimTime ready) {
  const u64 half_pages = config_.durability.journal_pages / 2;
  const Bytes& stream = journal_->stream();
  if (stream.size() == journal_flushed_) return ready;
  // Program every page touched by the new bytes; the partially-filled
  // last page is rewritten each time (its zero padding doubles as the
  // stream terminator for the prefix parser).
  u64 first_rel = journal_flushed_ / kLogicalBlockSize;
  u64 end_rel =
      (stream.size() + kLogicalBlockSize - 1) / kLogicalBlockSize;
  std::vector<Bytes> pages;
  pages.reserve(static_cast<std::size_t>(end_rel - first_rel));
  for (u64 p = first_rel; p < end_rel; ++p) {
    Bytes page(kLogicalBlockSize, 0);
    std::size_t off = static_cast<std::size_t>(p) * kLogicalBlockSize;
    std::size_t n = std::min(stream.size() - off, kLogicalBlockSize);
    std::copy_n(stream.begin() + static_cast<std::ptrdiff_t>(off), n,
                page.begin());
    pages.push_back(std::move(page));
  }
  Lba base = data_pages_ + journal_half_ * half_pages;
  u32 retries_left = config_.durability.max_program_retries;
  for (;;) {
    // Journal pages need no relocation on failure: the FTL already remaps
    // every rewrite to a fresh physical page, so retrying is enough.
    auto io = device_->Write(base + first_rel, pages, ready);
    if (io.ok()) {
      if (trace_ != nullptr) {
        trace_->Span("journal.program", "journal", obs::kJournalTid,
                     io->start, io->completion,
                     {{"bytes", stream.size() - journal_flushed_},
                      {"generation", journal_->generation()}});
      }
      stats_.journal_bytes_written += stream.size() - journal_flushed_;
      journal_flushed_ = stream.size();
      return io->completion;
    }
    if (io.status().code() != StatusCode::kMediaError) return io.status();
    ++stats_.program_failures;
    if (trace_ != nullptr) {
      trace_->Instant("fault.program_failure", "fault", obs::kJournalTid,
                      ready, {{"first_page", base + first_rel}});
    }
    NoteBreakerError(ready);
    if (retries_left == 0) return io.status();
    --retries_left;
    ++stats_.program_retries;
    ready += config_.durability.retry_backoff;
  }
}

Result<SimTime> Engine::JournalAppendRecord(SimTime ready,
                                            const InstallRecord* install,
                                            const ReleaseRecord* release) {
  const u64 half_pages = config_.durability.journal_pages / 2;
  const std::size_t half_bytes =
      static_cast<std::size_t>(half_pages) * kLogicalBlockSize;
  if (journal_ == nullptr) {
    // Fresh engine: generation 1 replays from an empty base, so it needs
    // no leading checkpoint.
    journal_ = std::make_unique<JournalWriter>(1);
    journal_half_ = 0;
    journal_flushed_ = 0;
  }
  if (install != nullptr) journal_->AppendInstall(*install);
  if (release != nullptr) journal_->AppendRelease(*release);
  if (journal_->stream().size() > half_bytes) {
    // The active half is full: switch to the other half with the next
    // generation, led by a checkpoint of the post-op state. The record
    // just appended is subsumed by that checkpoint and dropped with the
    // old stream; none of its bytes ever reached flash.
    u64 next_gen = journal_->generation() + 1;
    journal_half_ ^= 1;
    Lba base = data_pages_ + journal_half_ * half_pages;
    auto trimmed = device_->Trim(base, half_pages, ready);
    if (!trimmed.ok()) return trimmed.status();
    ready = trimmed->completion;
    journal_ = std::make_unique<JournalWriter>(next_gen);
    journal_->AppendCheckpoint(SerializeDurableState());
    journal_flushed_ = 0;
    ++stats_.journal_checkpoints;
    if (trace_ != nullptr) {
      trace_->Instant("journal.checkpoint", "journal", obs::kJournalTid,
                      ready, {{"generation", next_gen}});
    }
    if (journal_->stream().size() > half_bytes) {
      return Status::ResourceExhausted(
          "journal: checkpoint exceeds a half; raise journal_pages");
    }
  }
  return JournalFlush(ready);
}

Bytes Engine::SerializeDurableState() const {
  Bytes out;
  Bytes map_image = map_.Serialize();
  PutVarint(&out, map_image.size());
  out.insert(out.end(), map_image.begin(), map_image.end());
  PutVarint(&out, versions_.size());
  for (const auto& [lba, version] : versions_) {
    PutVarint(&out, lba);
    PutVarint(&out, version);
  }
  return out;
}

Status Engine::RestoreDurableState(ByteSpan body) {
  std::size_t pos = 0;
  auto map_len = GetVarint(body, &pos);
  if (!map_len.ok()) return map_len.status();
  if (*map_len > body.size() - pos) {
    return Status::DataLoss("checkpoint: truncated map image");
  }
  auto map = BlockMap::Deserialize(body.subspan(pos, *map_len));
  if (!map.ok()) return map.status();
  pos += *map_len;
  std::unordered_map<Lba, u64> versions;
  auto n_versions = GetVarint(body, &pos);
  if (!n_versions.ok()) return n_versions.status();
  for (u64 i = 0; i < *n_versions; ++i) {
    auto lba = GetVarint(body, &pos);
    auto ver = GetVarint(body, &pos);
    if (!lba.ok() || !ver.ok()) {
      return Status::DataLoss("checkpoint: truncated version record");
    }
    versions[*lba] = *ver;
  }
  if (pos != body.size()) {
    return Status::DataLoss("checkpoint: trailing bytes");
  }
  map_ = std::move(*map);
  versions_ = std::move(versions);
  return Status::Ok();
}

Status Engine::RecoverFromDevice(SimTime now) {
  owner_.Check("Engine::RecoverFromDevice");
  if (!config_.durability.enabled) {
    return Status::FailedPrecondition(
        "engine: recovery requires durable mode");
  }
  const u64 half_pages = config_.durability.journal_pages / 2;
  const std::size_t half_bytes =
      static_cast<std::size_t>(half_pages) * kLogicalBlockSize;

  // --- Choose the newest usable generation ------------------------------
  struct Candidate {
    ParsedJournal parsed;
    u32 half;
  };
  std::optional<Candidate> best;
  for (u32 h = 0; h < 2; ++h) {
    Lba base = data_pages_ + h * half_pages;
    auto io = device_->Read(base, half_pages, now);
    if (!io.ok()) continue;  // unreadable half: fall back to the other
    Bytes raw(half_bytes, 0);
    for (std::size_t p = 0; p < io->pages.size(); ++p) {
      const Bytes& page = io->pages[p];
      std::copy(page.begin(), page.end(),
                raw.begin() + static_cast<std::ptrdiff_t>(
                                  p * kLogicalBlockSize));
    }
    auto parsed = ParseJournal(raw);
    if (!parsed.ok()) continue;  // unused or unrecognizable half
    // A generation > 1 is only usable if its base checkpoint survived; a
    // checkpoint torn by the cut means the op that triggered the switch
    // was never acked, so the previous generation is the right truth.
    bool usable =
        parsed->generation == 1 ||
        (!parsed->records.empty() &&
         parsed->records.front().type == JournalRecordType::kCheckpoint);
    if (!usable) continue;
    if (!best || parsed->generation > best->parsed.generation) {
      best = Candidate{std::move(*parsed), h};
    }
  }

  // --- Reset host-side state and replay the journal ---------------------
  map_ = BlockMap(data_pages_ * kQuantaPerBlock);
  versions_.clear();
  payloads_.clear();
  cache_lru_.clear();
  cache_index_.clear();
  seq_ = SequentialityDetector(config_.seq);
  shared_pages_.clear();
  stats_.recovered_groups = 0;

  u64 recovered_gen = 0;
  if (best) {
    recovered_gen = best->parsed.generation;
    std::size_t first = 0;
    if (best->parsed.generation > 1) {
      EDC_RETURN_IF_ERROR(
          RestoreDurableState(best->parsed.records.front().body));
      first = 1;
    }
    for (std::size_t i = first; i < best->parsed.records.size(); ++i) {
      const JournalRecord& rec = best->parsed.records[i];
      switch (rec.type) {
        case JournalRecordType::kInstall: {
          auto ins = DecodeInstall(rec.body);
          if (!ins.ok()) return ins.status();
          auto gid = map_.InstallReplay(ins->first_lba, ins->n_blocks,
                                        ins->tag, ins->stored_bytes,
                                        ins->quanta, ins->attempt_starts);
          if (!gid.ok()) return gid.status();
          for (u32 b = 0; b < ins->n_blocks; ++b) {
            versions_[ins->first_lba + b] = ins->versions[b];
          }
          break;
        }
        case JournalRecordType::kRelease: {
          auto rel = DecodeRelease(rec.body);
          if (!rel.ok()) return rel.status();
          for (u64 b = 0; b < rel->n_blocks; ++b) {
            map_.Release(rel->first_lba + b);
            versions_.erase(rel->first_lba + b);
          }
          break;
        }
        case JournalRecordType::kCheckpoint:
          return Status::DataLoss("journal: checkpoint mid-stream");
        case JournalRecordType::kEnd:
          return Status::DataLoss("journal: unexpected end record");
      }
    }
  }

  // --- Re-read every live extent, verify, rebuild the payload store -----
  // A page holding sub-page extents also seeds its image in shared_pages_,
  // so later programs of that page re-send these neighbours.
  for (const auto& [id, g] : map_.groups()) {
    auto [first_page, n_pages] = CoveringPages(g.start_quantum, g.quanta);
    auto io = device_->Read(first_page, n_pages, now);
    if (!io.ok()) return io.status();
    auto frame = ParseStoredExtent(g, io->pages);
    if (!frame.ok()) {
      return Status::DataLoss("recovery: journaled extent at page " +
                              std::to_string(first_page) + ": " +
                              frame.status().message());
    }
    payloads_[id] = std::move(*frame);
    if (g.quanta < kQuantaPerBlock) {
      shared_pages_.try_emplace(first_page, std::move(io->pages[0]));
    }
    ++stats_.recovered_groups;
  }

  // --- Checkpoint the recovered state into a fresh generation -----------
  journal_half_ = best ? (best->half ^ 1u) : 0;
  u64 next_gen = recovered_gen + 1;
  Lba base = data_pages_ + journal_half_ * half_pages;
  auto trimmed = device_->Trim(base, half_pages, now);
  if (!trimmed.ok()) return trimmed.status();
  journal_ = std::make_unique<JournalWriter>(next_gen);
  if (next_gen > 1) {
    journal_->AppendCheckpoint(SerializeDurableState());
    ++stats_.journal_checkpoints;
  }
  journal_flushed_ = 0;
  if (journal_->stream().size() > half_bytes) {
    return Status::ResourceExhausted(
        "journal: checkpoint exceeds a half; raise journal_pages");
  }
  auto flushed = JournalFlush(trimmed->completion);
  if (!flushed.ok()) return flushed.status();
  return Status::Ok();
}

Result<Bytes> Engine::ReadBlockData(Lba block) {
  owner_.Check("Engine::ReadBlockData");
  if (config_.mode != ExecutionMode::kFunctional) {
    return Status::FailedPrecondition(
        "data reads require functional mode");
  }
  // Pending (still merging) blocks live in the DRAM buffer: serve them
  // from the generator, as a real write-back buffer would.
  if (seq_.has_pending()) {
    const WriteRun& p = seq_.pending();
    if (block >= p.first_block && block < p.first_block + p.n_blocks) {
      return ExpectedBlockData(block);
    }
  }
  auto gid = map_.FindGroupId(block);
  if (!gid) return Bytes(kLogicalBlockSize, 0);
  auto it = payloads_.find(*gid);
  if (it == payloads_.end()) {
    return Status::Internal("missing payload for live group");
  }
  auto content = codec::FrameDecompress(it->second, &serial_scratch_);
  if (!content.ok()) return content.status();
  const GroupInfo& g = map_.Group(*gid);
  std::size_t index = static_cast<std::size_t>(block - g.first_lba);
  std::size_t off = index * kLogicalBlockSize;
  if (off + kLogicalBlockSize > content->size()) {
    return Status::DataLoss("group payload shorter than expected");
  }
  return Bytes(content->begin() + static_cast<std::ptrdiff_t>(off),
               content->begin() +
                   static_cast<std::ptrdiff_t>(off + kLogicalBlockSize));
}

Bytes Engine::ExpectedBlockData(Lba block) const {
  auto it = versions_.find(block);
  if (it == versions_.end()) return Bytes(kLogicalBlockSize, 0);
  return generator_->Generate(block, it->second, kLogicalBlockSize);
}

}  // namespace edc::core
