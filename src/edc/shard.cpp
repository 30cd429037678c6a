#include "edc/shard.hpp"

#include <algorithm>
#include <thread>

#include "obs/metrics.hpp"

namespace edc::shard {

void ShardRouter::Split(u64 offset, u32 size,
                        std::vector<Part>* out) const {
  out->clear();
  if (size == 0) {
    out->push_back(Part{shard_of(offset / kLogicalBlockSize), offset, 0});
    return;
  }
  u64 pos = offset;
  const u64 end = offset + size;
  while (pos < end) {
    const Lba block = pos / kLogicalBlockSize;
    const u32 shard = shard_of(block);
    // The shard changes at every chunk boundary (consecutive chunks
    // rotate through the shards), so one part spans at most one chunk —
    // except at shards=1, where the whole request is one part.
    u64 span_end = end;
    if (shards_ > 1) {
      const u64 chunk_index = block / chunk_blocks_;
      span_end = std::min<u64>(
          end, (chunk_index + 1) * chunk_blocks_ * kLogicalBlockSize);
    }
    out->push_back(Part{shard, pos, static_cast<u32>(span_end - pos)});
    pos = span_end;
  }
}

ShardedEngine::ShardedEngine(const ShardedOptions& options, u32 shards)
    : options_(options),
      router_(shards, options.chunk_blocks),
      wfq_(options.tenants < 1 ? 1 : options.tenants,
           options.qos.tenant_weights) {
  if (options_.tenants < 1) options_.tenants = 1;
  if (options_.window < 1) options_.window = 1;
  if (options_.max_batch < 1) options_.max_batch = 1;
  if (options_.ring_capacity < 2) options_.ring_capacity = 2;
  buckets_.reserve(options_.tenants);
  for (u32 t = 0; t < options_.tenants; ++t) {
    buckets_.emplace_back(options_.qos.tenant_iops_cap,
                          options_.qos.tenant_burst);
  }
  shards_.reserve(shards);
  for (u32 s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ShardedEngine::~ShardedEngine() {
  // StopRunLoops drains; a failure here means a shard thread is wedged,
  // which Shutdown below would also hit — nothing more we can do.
  if (running_) (void)StopRunLoops();
  if (pool_ != nullptr) pool_->Shutdown();
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const ShardedOptions& options, const core::StackConfig& stack) {
  auto parts = core::BuildStackParts(stack, options.shards);
  if (!parts.ok()) return parts.status();
  std::vector<ShardBacking> backings;
  backings.reserve(parts->devices.size());
  for (const auto& device : parts->devices) {
    backings.push_back(ShardBacking{parts->engine, device.get(),
                                    parts->generator.get(),
                                    parts->cost_model.get()});
  }
  auto se = CreateFromBackings(options, std::move(backings));
  if (se.ok()) (*se)->owned_ = std::move(*parts);
  return se;
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::CreateFromBackings(
    const ShardedOptions& options, std::vector<ShardBacking> backings) {
  if (backings.empty()) {
    return Status::InvalidArgument("sharded: no shard backings");
  }
  if (options.shards != 0 && options.shards != backings.size()) {
    return Status::InvalidArgument(
        "sharded: options.shards does not match backings.size()");
  }
  auto se = std::unique_ptr<ShardedEngine>(
      new ShardedEngine(options, static_cast<u32>(backings.size())));
  for (std::size_t s = 0; s < backings.size(); ++s) {
    ShardBacking& b = backings[s];
    if (b.device == nullptr || b.generator == nullptr) {
      return Status::InvalidArgument(
          "sharded: backing needs a device and a generator");
    }
    // Shard engines run obs-free (the shard layer owns the deterministic
    // metrics; see header comment) and compress serially on their own
    // run-loop thread: the per-shard threads *are* the parallelism, and
    // sharing a compress pool with the run loops would deadlock it.
    b.engine.obs = nullptr;
    b.engine.compress_pool = nullptr;
    Shard& sh = *se->shards_[s];
    sh.backing = b;
    sh.engine = std::make_unique<core::Engine>(b.engine, b.device,
                                               b.generator, b.cost_model);
    sh.ring = std::make_unique<MpscRing<SubOp>>(se->options_.ring_capacity);
  }
  se->completions_ = std::make_unique<MpscRing<SubDone>>(
      static_cast<std::size_t>(se->options_.ring_capacity) *
      se->shards_.size());
  se->RegisterObservability();
  se->pool_ = std::make_unique<WorkerPool>(se->shards_.size());
  return se;
}

void ShardedEngine::RegisterObservability() {
  if (options_.obs == nullptr) return;
  obs::MetricRegistry* m = options_.obs->metrics();
  if (m == nullptr) return;
  for (u32 s = 0; s < shards_.size(); ++s) {
    obs::LabelSet labels{{"shard", std::to_string(s)}};
    shards_[s]->dispatched_total =
        m->GetCounter("edc_shard_dispatched_total", labels,
                      "Sub-requests dispatched into this shard's ring");
    shards_[s]->blocks_total =
        m->GetCounter("edc_shard_blocks_total", labels,
                      "4 KiB blocks dispatched to this shard");
    shards_[s]->inflight_depth =
        m->GetGauge("edc_shard_inflight_depth", labels,
                    "Sub-requests dispatched but not yet applied");
  }
  tenant_requests_.resize(options_.tenants, nullptr);
  tenant_throttled_.resize(options_.tenants, nullptr);
  tenant_throttle_us_.resize(options_.tenants, nullptr);
  for (u32 t = 0; t < options_.tenants; ++t) {
    obs::LabelSet labels{{"tenant", std::to_string(t)}};
    tenant_requests_[t] =
        m->GetCounter("edc_tenant_requests_total", labels,
                      "Requests submitted by this tenant");
    tenant_throttled_[t] =
        m->GetCounter("edc_tenant_throttled_total", labels,
                      "Requests delayed by the tenant's IOPS cap");
    tenant_throttle_us_[t] = m->GetCounter(
        "edc_tenant_throttle_delay_us_total", labels,
        "Total simulated throttle delay added by the IOPS cap");
  }
  dispatch_batch_hist_ = m->GetHistogram(
      "edc_shard_dispatch_batch", {},
      {1, 2, 4, 8, 16, 32, 64, 128},
      "Requests moved from the WFQ backlog per dispatch pump");
  straddled_total_ =
      m->GetCounter("edc_sharded_straddled_total", {},
                    "Requests split across more than one shard");
  applied_total_ =
      m->GetCounter("edc_sharded_applied_total", {},
                    "Completions applied (in seq order)");
}

Status ShardedEngine::StartRunLoops() {
  if (running_) return Status::Ok();
  dispatcher_.Rebind();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    {
      sync::MutexLock lock(&sh.wake_mu);
      sh.stop = false;
      sh.work_hint = false;
    }
    sh.loop = pool_->Submit([this, s] { RunLoop(s); });
  }
  running_ = true;
  return Status::Ok();
}

Status ShardedEngine::StopRunLoops() {
  if (!running_) return Status::Ok();
  dispatcher_.Check("StopRunLoops");
  Status drained = Drain();
  for (auto& sh : shards_) {
    sync::MutexLock lock(&sh->wake_mu);
    sh->stop = true;
    sh->wake_cv.NotifyAll();
  }
  for (auto& sh : shards_) {
    if (sh->loop.valid()) sh->loop.get();
  }
  // Control-plane ops (audit, recovery, flush, data reads) now run on
  // the dispatcher thread.
  for (auto& sh : shards_) sh->engine->RebindOwnerThread();
  running_ = false;
  return drained;
}

Result<u64> ShardedEngine::Submit(const Request& request) {
  dispatcher_.Check("shard::Submit");
  if (!running_) {
    return Status::FailedPrecondition("sharded: run loops not started");
  }
  if (request.tenant >= options_.tenants) {
    return Status::InvalidArgument("sharded: tenant out of range");
  }

  PendingReq pending;
  pending.req = request;
  pending.admitted = buckets_[request.tenant].Admit(request.arrival);
  if (tenant_requests_.size() > request.tenant &&
      tenant_requests_[request.tenant] != nullptr) {
    tenant_requests_[request.tenant]->Inc();
    if (pending.admitted > request.arrival) {
      tenant_throttled_[request.tenant]->Inc();
      tenant_throttle_us_[request.tenant]->Inc(static_cast<u64>(
          ToMicros(pending.admitted - request.arrival)));
    }
  }

  const u64 handle = next_handle_++;
  backlog_.emplace(handle, std::move(pending));
  wfq_.Push(request.tenant, handle, PageUnits(request.size));

  // Pump until this request has left the backlog (one Submit enqueues
  // one request, so this is at most ceil(backlog / max_batch) pumps).
  awaited_handle_ = handle;
  while (backlog_.count(handle) != 0) {
    Status st = DispatchBatch();
    if (!st.ok()) {
      awaited_handle_ = ~static_cast<u64>(0);
      return st;
    }
  }
  awaited_handle_ = ~static_cast<u64>(0);
  return awaited_seq_;
}

Status ShardedEngine::DispatchBatch() {
  u32 dispatched = 0;
  while (dispatched < options_.max_batch && !wfq_.empty()) {
    // The in-flight window bounds memory and keeps the apply points
    // deterministic: completions are applied exactly when the window is
    // full, in seq order, nowhere else.
    while (apply_next_ + options_.window <= next_seq_) {
      Status st = ApplyNext();
      if (!st.ok()) return st;
    }
    u32 tenant = 0;
    u64 handle = 0;
    bool popped = wfq_.Pop(&tenant, &handle);
    EDC_CHECK(popped);
    Status st = DispatchOne(handle);
    if (!st.ok()) return st;
    ++dispatched;
  }
  if (dispatched > 0 && dispatch_batch_hist_ != nullptr) {
    dispatch_batch_hist_->Observe(static_cast<double>(dispatched));
  }
  return Status::Ok();
}

Status ShardedEngine::DispatchOne(u64 handle) {
  auto bit = backlog_.find(handle);
  EDC_CHECK(bit != backlog_.end());
  PendingReq pending = std::move(bit->second);
  backlog_.erase(bit);

  const u64 seq = next_seq_++;
  if (handle == awaited_handle_) awaited_seq_ = seq;

  std::vector<ShardRouter::Part> parts;
  router_.Split(pending.req.offset, pending.req.size, &parts);
  EDC_CHECK(!parts.empty());

  InFlight fl;
  fl.tenant = pending.req.tenant;
  fl.kind = pending.req.kind;
  fl.submitted = pending.req.arrival;
  fl.admitted = pending.admitted;
  fl.n_parts = static_cast<u32>(parts.size());
  fl.part_shards.reserve(parts.size());
  for (const auto& p : parts) fl.part_shards.push_back(p.shard);
  inflight_.emplace(seq, std::move(fl));

  bool straddles = false;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].shard != parts[0].shard) straddles = true;
  }
  if (straddles && straddled_total_ != nullptr) straddled_total_->Inc();

  for (u32 i = 0; i < parts.size(); ++i) {
    const ShardRouter::Part& p = parts[i];
    Shard& sh = *shards_[p.shard];
    SubOp op;
    op.seq = seq;
    op.part = i;
    op.n_parts = static_cast<u32>(parts.size());
    op.kind = pending.req.kind;
    op.arrival = pending.admitted;
    op.offset = p.offset;
    op.size = p.size;
    // A full ring means the shard is behind; wait for it to drain (no
    // completion is *applied* here, so determinism is unaffected).
    while (!sh.ring->TryPush(std::move(op))) {
      CollectCompletions();
      sync::MutexLock lock(&driver_mu_);
      if (!completions_hint_) driver_cv_.Wait(&driver_mu_);
      completions_hint_ = false;
    }
    ++sh.logical_depth;
    if (sh.dispatched_total != nullptr) {
      sh.dispatched_total->Inc();
      sh.blocks_total->Inc(PageUnits(p.size));
      sh.inflight_depth->Set(static_cast<double>(sh.logical_depth));
    }
    WakeShard(sh);
  }
  return Status::Ok();
}

void ShardedEngine::CollectCompletions() {
  SubDone d;
  while (completions_->TryPop(&d)) {
    auto it = inflight_.find(d.seq);
    EDC_CHECK(it != inflight_.end());
    InFlight& fl = it->second;
    ++fl.parts_done;
    if (d.completion > fl.completion) fl.completion = d.completion;
    if (!d.status.ok() &&
        (fl.status.ok() || d.part < fl.error_part)) {
      fl.status = std::move(d.status);
      fl.error_part = d.part;
    }
  }
}

Status ShardedEngine::ApplyNext() {
  EDC_CHECK(apply_next_ < next_seq_);
  for (;;) {
    CollectCompletions();
    auto it = inflight_.find(apply_next_);
    EDC_CHECK(it != inflight_.end());
    InFlight& fl = it->second;
    if (fl.parts_done == fl.n_parts) {
      Completion c;
      c.seq = apply_next_;
      c.tenant = fl.tenant;
      c.kind = fl.kind;
      c.submitted = fl.submitted;
      c.admitted = fl.admitted;
      c.completion = fl.completion;
      c.status = fl.status;
      for (u32 s : fl.part_shards) {
        Shard& sh = *shards_[s];
        EDC_DCHECK(sh.logical_depth > 0);
        --sh.logical_depth;
        if (sh.inflight_depth != nullptr) {
          sh.inflight_depth->Set(static_cast<double>(sh.logical_depth));
        }
      }
      if (applied_total_ != nullptr) applied_total_->Inc();
      inflight_.erase(it);
      ++apply_next_;
      last_applied_ = c;
      if (on_complete_) on_complete_(c);
      return Status::Ok();
    }
    sync::MutexLock lock(&driver_mu_);
    if (!completions_hint_) driver_cv_.Wait(&driver_mu_);
    completions_hint_ = false;
  }
}

Status ShardedEngine::Drain() {
  dispatcher_.Check("shard::Drain");
  while (!wfq_.empty()) {
    Status st = DispatchBatch();
    if (!st.ok()) return st;
  }
  while (apply_next_ < next_seq_) {
    Status st = ApplyNext();
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Result<Completion> ShardedEngine::SubmitAndWait(const Request& request) {
  auto seq = Submit(request);
  if (!seq.ok()) return seq.status();
  while (apply_next_ <= *seq) {
    Status st = ApplyNext();
    if (!st.ok()) return st;
  }
  // Drain applies in seq order, so the one we want is the last applied
  // at the moment apply_next_ passes it.
  EDC_CHECK(last_applied_.seq == *seq);
  return last_applied_;
}

void ShardedEngine::WakeShard(Shard& s) {
  sync::MutexLock lock(&s.wake_mu);
  s.work_hint = true;
  s.wake_cv.NotifyOne();
}

void ShardedEngine::RunLoop(std::size_t shard_index) {
  Shard& s = *shards_[shard_index];
  s.engine->RebindOwnerThread();
  for (;;) {
    SubOp op;
    if (s.ring->TryPop(&op)) {
      ProcessSubOp(s, op);
      continue;
    }
    bool should_stop = false;
    {
      sync::MutexLock lock(&s.wake_mu);
      if (!s.work_hint && !s.stop) s.wake_cv.Wait(&s.wake_mu);
      if (s.work_hint) {
        s.work_hint = false;
      } else if (s.stop) {
        should_stop = true;
      }
    }
    if (should_stop) {
      // Final drain: anything pushed before the stop flag was raised.
      while (s.ring->TryPop(&op)) ProcessSubOp(s, op);
      break;
    }
  }
}

void ShardedEngine::ProcessSubOp(Shard& s, const SubOp& op) {
  auto run = [&]() -> Result<SimTime> {
    switch (op.kind) {
      case OpKind::kWrite:
        return s.engine->Write(op.arrival, op.offset, op.size);
      case OpKind::kRead:
        return s.engine->Read(op.arrival, op.offset, op.size);
      case OpKind::kTrim:
        return s.engine->Trim(op.arrival, op.offset, op.size);
    }
    return Status::Internal("sharded: unknown op kind");
  };
  Result<SimTime> done = run();
  SubDone d;
  d.seq = op.seq;
  d.part = op.part;
  if (done.ok()) {
    d.completion = *done;
  } else {
    d.status = done.status();
  }
  PushCompletion(std::move(d));
}

void ShardedEngine::PushCompletion(SubDone&& done) {
  // The completion ring is sized for the whole window, so this loop is
  // effectively one iteration; the yield handles the pathological case
  // of a dispatcher that has not collected in a long time.
  while (!completions_->TryPush(std::move(done))) {
    std::this_thread::yield();
  }
  sync::MutexLock lock(&driver_mu_);
  completions_hint_ = true;
  driver_cv_.NotifyOne();
}

Result<SimTime> ShardedEngine::FlushAllPending(SimTime now) {
  if (running_) {
    return Status::FailedPrecondition(
        "sharded: stop the run loops before FlushAllPending");
  }
  SimTime latest = now;
  for (auto& sh : shards_) {
    auto done = sh->engine->FlushPending(now);
    if (!done.ok()) return done.status();
    latest = std::max(latest, *done);
  }
  return latest;
}

Status ShardedEngine::RecoverAllFromDevice(SimTime now) {
  if (running_) {
    return Status::FailedPrecondition(
        "sharded: stop the run loops before recovery");
  }
  for (auto& sh : shards_) {
    Status st = sh->engine->RecoverFromDevice(now);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

core::AuditReport ShardedEngine::AuditAll() const {
  for (const auto& sh : shards_) {
    core::AuditReport report = sh->engine->Audit();
    if (!report.ok()) return report;
  }
  return core::AuditReport{};
}

Result<Bytes> ShardedEngine::ReadBlockData(Lba block) {
  if (running_) {
    return Status::FailedPrecondition(
        "sharded: stop the run loops before ReadBlockData");
  }
  return shards_[router_.shard_of(block)]->engine->ReadBlockData(block);
}

Status ShardedEngine::RecreateEngine(u32 shard) {
  if (running_) {
    return Status::FailedPrecondition(
        "sharded: stop the run loops before RecreateEngine");
  }
  Shard& sh = *shards_[shard];
  sh.engine.reset();
  const ShardBacking& b = sh.backing;
  sh.engine = std::make_unique<core::Engine>(b.engine, b.device,
                                             b.generator, b.cost_model);
  return Status::Ok();
}

core::EngineStats ShardedEngine::AggregateEngineStats() const {
  core::EngineStats agg;
  for (const auto& sh : shards_) {
    const core::EngineStats& s = sh->engine->stats();
    agg.host_writes += s.host_writes;
    agg.host_reads += s.host_reads;
    agg.logical_bytes_written += s.logical_bytes_written;
    agg.groups_written += s.groups_written;
    agg.merged_blocks += s.merged_blocks;
    agg.blocks_skipped_content += s.blocks_skipped_content;
    agg.blocks_skipped_intensity += s.blocks_skipped_intensity;
    for (std::size_t i = 0; i < agg.groups_by_codec.size(); ++i) {
      agg.groups_by_codec[i] += s.groups_by_codec[i];
    }
    agg.compressed_bytes_total += s.compressed_bytes_total;
    agg.allocated_bytes_total += s.allocated_bytes_total;
    agg.unmapped_block_reads += s.unmapped_block_reads;
    agg.trimmed_blocks += s.trimmed_blocks;
    agg.cache_hits += s.cache_hits;
    agg.cache_misses += s.cache_misses;
    agg.cpu_busy_time += s.cpu_busy_time;
    agg.write_latency_us.Merge(s.write_latency_us);
    agg.read_latency_us.Merge(s.read_latency_us);
    agg.drift_checks += s.drift_checks;
    agg.drift_abs_error_sum += s.drift_abs_error_sum;
    agg.program_failures += s.program_failures;
    agg.program_retries += s.program_retries;
    agg.media_errors += s.media_errors;
    agg.breaker_trips += s.breaker_trips;
    agg.breaker_open = agg.breaker_open || s.breaker_open;
    agg.degraded_groups += s.degraded_groups;
    agg.journal_bytes_written += s.journal_bytes_written;
    agg.journal_checkpoints += s.journal_checkpoints;
    agg.recovered_groups += s.recovered_groups;
    agg.read_retries += s.read_retries;
    agg.scrub_runs += s.scrub_runs;
    agg.scrub_groups_scanned += s.scrub_groups_scanned;
    agg.scrub_crc_errors += s.scrub_crc_errors;
    agg.scrub_repaired += s.scrub_repaired;
    agg.scrub_unrepairable += s.scrub_unrepairable;
  }
  return agg;
}

ssd::DeviceStats ShardedEngine::AggregateDeviceStats() const {
  std::vector<ssd::DeviceStats> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& sh : shards_) {
    per_shard.push_back(sh->backing.device->stats());
  }
  return ssd::FoldParallel(per_shard);
}

}  // namespace edc::shard
