#include "ssd/raid.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/crc32.hpp"
#include "obs/observer.hpp"

namespace edc::ssd {
namespace {

/// XOR `b` into `acc`, growing `acc` as needed. Empty pages (unwritten /
/// timing-only) contribute zeros, so mixed-population stripes still XOR
/// to the right content.
void XorInto(Bytes* acc, ByteSpan b) {
  if (b.empty()) return;
  if (acc->size() < b.size()) acc->resize(b.size(), 0);
  for (std::size_t i = 0; i < b.size(); ++i) (*acc)[i] ^= b[i];
}

ByteSpan FirstPage(const IoResult& io) {
  if (io.pages.empty()) return {};
  return io.pages.front();
}

bool AllZero(const Bytes& b) {
  for (u8 v : b) {
    if (v != 0) return false;
  }
  return true;
}

void PutU32(Bytes* b, std::size_t off, u32 v) {
  for (int i = 0; i < 4; ++i) {
    (*b)[off + static_cast<std::size_t>(i)] =
        static_cast<u8>((v >> (8 * i)) & 0xFF);
  }
}

void PutU64(Bytes* b, std::size_t off, u64 v) {
  for (int i = 0; i < 8; ++i) {
    (*b)[off + static_cast<std::size_t>(i)] =
        static_cast<u8>((v >> (8 * i)) & 0xFF);
  }
}

u32 GetU32(ByteSpan b, std::size_t off) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<u32>(b[off + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

u64 GetU64(ByteSpan b, std::size_t off) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<u64>(b[off + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

constexpr u64 kSuperblockMagic = 0x4544435241495335ull;  // "EDCRAIS5"
constexpr std::size_t kSuperblockBytes = 44;

}  // namespace

Rais::Rais(const RaisConfig& config) : config_(config) {
  data_disks_per_row_ = config_.level == RaisLevel::kRais5
                            ? config_.num_disks - 1
                            : config_.num_disks;
  for (u32 i = 0; i < config_.num_disks; ++i) {
    // Each member rolls an independent fault stream; otherwise every disk
    // would fail the same pages in lockstep and parity could never help.
    SsdConfig member = config_.member;
    member.fault.seed += 0x9E3779B97F4A7C15ull * (i + 1);
    disks_.push_back(std::make_unique<Ssd>(member));
  }
  for (u32 j = 0; j < config_.num_spares; ++j) {
    SsdConfig spare = config_.member;
    spare.fault.seed +=
        0x9E3779B97F4A7C15ull * (config_.num_disks + j + 1);
    // The scheduled fail-stop targets primary members; a spare that died
    // on the same schedule could never absorb a rebuild.
    spare.fault.fail_member_at_op = 0;
    spares_.push_back(std::make_unique<Ssd>(spare));
  }
  member_pages_ = disks_[0]->logical_pages();
  // With spares configured, the top member-local page of every device is
  // reserved for the array superblock (the durable rebuild cursor).
  u64 usable = member_pages_ - (config_.num_spares > 0 ? 1 : 0);
  rows_ = usable / config_.chunk_pages;
}

void Rais::AttachObs(obs::Observer* observer, u32 tid) {
  trace_ = observer != nullptr ? observer->trace() : nullptr;
  trace_tid_ = tid;
  degraded_gauge_ = nullptr;
  if (observer != nullptr && observer->metrics() != nullptr) {
    degraded_gauge_ = observer->metrics()->GetGauge(
        "edc_rais_degraded", {},
        "1 while a RAIS member is failed and its content is only "
        "reachable through parity, else 0");
    rebuild_progress_gauge_ = observer->metrics()->GetGauge(
        "edc_rais_rebuild_progress", {},
        "Rows rebuilt / total rows: 1 healthy, 0 degraded with no "
        "rebuild running (or array lost), cursor fraction mid-rebuild");
    SetDegradedGauge();
  }
  for (u32 i = 0; i < config_.num_disks; ++i) {
    if (trace_ != nullptr) {
      trace_->NameThread(tid + 1 + i, "rais member " + std::to_string(i));
    }
    disks_[i]->AttachObs(observer, tid + 1 + i);
  }
  for (u32 j = 0; j < config_.num_spares; ++j) {
    if (spares_[j] == nullptr) continue;
    u32 lane = tid + 1 + config_.num_disks + j;
    if (trace_ != nullptr) {
      trace_->NameThread(lane, "rais spare " + std::to_string(j));
    }
    spares_[j]->AttachObs(observer, lane);
  }
}

void Rais::SetDegradedGauge() {
  if (degraded_gauge_ != nullptr) {
    degraded_gauge_->Set(dead_member_ == kNoMember ? 0.0 : 1.0);
  }
  if (rebuild_progress_gauge_ != nullptr) {
    double progress;
    if (array_failed_) {
      progress = 0.0;
    } else if (dead_member_ == kNoMember) {
      progress = 1.0;  // healthy (includes just-finished rebuilds)
    } else if (rebuilding_ && rows_ > 0) {
      progress = static_cast<double>(rebuild_cursor_row_) /
                 static_cast<double>(rows_);
    } else {
      progress = 0.0;  // degraded with no rebuild running
    }
    rebuild_progress_gauge_->Set(progress);
  }
}

u64 Rais::logical_pages() const {
  // Each stripe row provides data_disks_per_row_ chunks of data.
  return rows_ * data_disks_per_row_ * config_.chunk_pages;
}

Rais::Placement Rais::Place(Lba lba) const {
  const u64 chunk = config_.chunk_pages;
  const u32 n = config_.num_disks;
  u64 chunk_index = lba / chunk;
  u64 in_chunk = lba % chunk;
  u64 row = chunk_index / data_disks_per_row_;
  u64 k = chunk_index % data_disks_per_row_;

  Placement p{};
  p.disk_lba = row * chunk + in_chunk;
  if (config_.level == RaisLevel::kRais5) {
    // Left-symmetric rotation: parity moves one disk left each row.
    u32 parity = static_cast<u32>((n - 1) - (row % n));
    p.parity_disk = parity;
    p.parity_lba = row * chunk + in_chunk;
    p.data_disk = static_cast<u32>((parity + 1 + k) % n);
  } else {
    p.data_disk = static_cast<u32>(k);
    p.parity_disk = p.data_disk;
    p.parity_lba = p.disk_lba;
  }
  return p;
}

Status Rais::ArrayBeginOp() {
  ++array_ops_;
  if (array_power_lost_) {
    return Status::Unavailable("rais: power lost");
  }
  if (config_.power_cut_at_array_op != 0 &&
      array_ops_ > config_.power_cut_at_array_op) {
    ForceArrayPowerLoss();
    return Status::Unavailable("rais: power cut at array operation " +
                               std::to_string(array_ops_));
  }
  return Status::Ok();
}

void Rais::ForceArrayPowerLoss() {
  array_power_lost_ = true;
  for (auto& d : disks_) d->fault().ForcePowerLoss();
  for (auto& s : spares_) {
    if (s != nullptr) s->fault().ForcePowerLoss();
  }
}

void Rais::RestorePower() {
  array_power_lost_ = false;
  config_.power_cut_at_array_op = 0;
  for (auto& d : disks_) d->RestorePower();
  for (auto& s : spares_) {
    if (s != nullptr) s->RestorePower();
  }
}

Ssd* Rais::EffectiveDisk(u32 disk, u64 row) {
  if (disk != dead_member_) return disks_[disk].get();
  if (active_spare_ != kNoMember && row < rebuild_cursor_row_) {
    return spares_[active_spare_].get();
  }
  return nullptr;
}

Status Rais::ArrayFailedStatus() const {
  return Status::DataLoss("RAIS5: members " + std::to_string(dead_member_) +
                          " and " + std::to_string(second_dead_member_) +
                          " failed; array lost");
}

Status Rais::DoubleFaultError(Lba lba, u32 member_a, u32 member_b,
                              SimTime now) const {
  if (trace_ != nullptr) {
    trace_->Instant("rais.data_loss", "rais", trace_tid_, now,
                    {{"lba", lba},
                     {"member_a", member_a},
                     {"member_b", member_b}});
  }
  return Status::DataLoss(
      "RAIS5: unrecoverable page " + std::to_string(lba) + ": members " +
      std::to_string(member_a) + " and " + std::to_string(member_b) +
      " both failed");
}

void Rais::NoteMemberDeath(u32 member, SimTime now) {
  if (member == dead_member_ || member == second_dead_member_) return;
  ++members_failed_;
  if (trace_ != nullptr) {
    trace_->Instant("rais.member_failed", "rais", trace_tid_, now,
                    {{"member", member}});
  }
  if (dead_member_ == kNoMember) {
    dead_member_ = member;
    SetDegradedGauge();
    if (config_.level == RaisLevel::kRais5) StartRebuild(now);
    return;
  }
  second_dead_member_ = member;
  array_failed_ = true;
  SetDegradedGauge();
  if (trace_ != nullptr) {
    trace_->Instant("rais.array_failed", "rais", trace_tid_, now,
                    {{"member_a", dead_member_},
                     {"member_b", second_dead_member_}});
  }
}

Status Rais::HandleMemberError(Ssd* dev, u32 slot, const Status& st,
                               SimTime now, bool* retry) {
  *retry = false;
  if (st.code() != StatusCode::kUnavailable) return st;
  if (dev != nullptr && active_spare_ != kNoMember &&
      dev == spares_[active_spare_].get()) {
    // A spare dying mid-rebuild takes the already-copied rows with it.
    if (dev->fault().member_failed()) {
      array_failed_ = true;
      SetDegradedGauge();
      if (trace_ != nullptr) {
        trace_->Instant("rais.array_failed", "rais", trace_tid_, now,
                        {{"member_a", dead_member_},
                         {"spare", active_spare_}});
      }
      return Status::DataLoss(
          "RAIS5: spare failed during rebuild of member " +
          std::to_string(dead_member_));
    }
    return st;
  }
  if (slot < config_.num_disks && slot != dead_member_ &&
      disks_[slot]->fault().member_failed()) {
    NoteMemberDeath(slot, now);
    if (array_failed_) return ArrayFailedStatus();
    *retry = true;
    return Status::Ok();
  }
  return st;
}

Status Rais::FailMemberNow(u32 member, SimTime now) {
  if (member >= config_.num_disks) {
    return Status::InvalidArgument("rais: no member " +
                                   std::to_string(member));
  }
  disks_[member]->fault().FailMemberNow();
  NoteMemberDeath(member, now);
  if (array_failed_) return ArrayFailedStatus();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Write

Result<IoResult> Rais::Write(Lba first, std::span<const Bytes> payloads,
                             SimTime arrival) {
  EDC_RETURN_IF_ERROR(ArrayBeginOp());
  MaybeBackgroundWork(arrival);
  IoResult agg;
  agg.start = arrival;
  agg.completion = arrival;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (config_.level == RaisLevel::kRais5) {
      auto one = WriteOne5(first + i, payloads[i], arrival);
      if (!one.ok()) return one.status();
      agg.cost += one->cost;
      agg.completion = std::max(agg.completion, one->completion);
    } else {
      Placement p = Place(first + i);
      std::span<const Bytes> one(&payloads[i], 1);
      auto r = disks_[p.data_disk]->Write(p.disk_lba, one, arrival);
      if (!r.ok()) {
        if (r.status().code() == StatusCode::kUnavailable &&
            disks_[p.data_disk]->fault().member_failed()) {
          return Status::DataLoss("RAIS0: member " +
                                  std::to_string(p.data_disk) +
                                  " failed; no redundancy");
        }
        return r.status();
      }
      agg.cost += r->cost;
      agg.completion = std::max(agg.completion, r->completion);
    }
  }
  busy_until_ = std::max(busy_until_, agg.completion);
  return agg;
}

Result<IoResult> Rais::WriteOne5(Lba lba, const Bytes& payload,
                                 SimTime arrival) {
  std::span<const Bytes> one(&payload, 1);
  // At most two passes: the first may discover a fail-stop mid-sequence,
  // the retry re-routes through the degraded path. A third distinct
  // failure means the array is lost (handled inside the loop).
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (array_failed_) return ArrayFailedStatus();
    Placement p = Place(lba);
    const u64 row = p.disk_lba / config_.chunk_pages;
    Ssd* dd = EffectiveDisk(p.data_disk, row);
    Ssd* pd = EffectiveDisk(p.parity_disk, row);
    bool retry = false;
    IoResult agg;
    agg.start = arrival;
    agg.completion = arrival;

    if (dd != nullptr && pd != nullptr) {
      // Read-modify-write parity update. Old data/parity may be unwritten
      // (first touch): the reads then cost nothing physical but the
      // command sequence is still serialized through both members.
      auto old_data = dd->Read(p.disk_lba, 1, arrival);
      if (!old_data.ok()) {
        Status st = HandleMemberError(dd, p.data_disk, old_data.status(),
                                      arrival, &retry);
        if (!retry) return st;
        continue;
      }
      auto old_parity = pd->Read(p.parity_lba, 1, arrival);
      if (!old_parity.ok()) {
        Status st = HandleMemberError(pd, p.parity_disk,
                                      old_parity.status(), arrival, &retry);
        if (!retry) return st;
        continue;
      }
      SimTime rmw_ready =
          std::max(old_data->completion, old_parity->completion);

      auto new_data = dd->Write(p.disk_lba, one, rmw_ready);
      if (!new_data.ok()) {
        Status st = HandleMemberError(dd, p.data_disk, new_data.status(),
                                      arrival, &retry);
        if (!retry) return st;
        continue;
      }
      // Parity update: new_parity = old_parity XOR old_data XOR new_data.
      // With empty (timing-only) payloads everywhere this degenerates to
      // an empty parity write; with real data it keeps the stripe
      // reconstructible after a member read fault.
      std::vector<Bytes> parity_payload(1);
      XorInto(&parity_payload[0], FirstPage(*old_parity));
      XorInto(&parity_payload[0], FirstPage(*old_data));
      XorInto(&parity_payload[0], payload);
      auto new_parity =
          pd->Write(p.parity_lba, parity_payload, rmw_ready);
      if (!new_parity.ok()) {
        Status st = HandleMemberError(pd, p.parity_disk,
                                      new_parity.status(), arrival, &retry);
        if (!retry) return st;
        continue;
      }

      agg.cost += old_data->cost;
      agg.cost += old_parity->cost;
      agg.cost += new_data->cost;
      agg.cost += new_parity->cost;
      agg.completion = std::max(
          agg.completion,
          std::max(new_data->completion, new_parity->completion));
      return agg;
    }

    if (pd == nullptr) {
      // Parity chunk sits in the degraded window: write the data alone;
      // the rebuild recomputes this row's parity when it gets there.
      auto w = dd->Write(p.disk_lba, one, arrival);
      if (!w.ok()) {
        Status st = HandleMemberError(dd, p.data_disk, w.status(), arrival,
                                      &retry);
        if (!retry) return st;
        continue;
      }
      ++degraded_writes_;
      if (trace_ != nullptr) {
        trace_->Instant("rais.degraded_write", "rais", trace_tid_, arrival,
                        {{"lba", lba}, {"member", p.parity_disk}});
      }
      agg.cost += w->cost;
      agg.completion = std::max(agg.completion, w->completion);
      return agg;
    }

    // Data member degraded: fold the new content into parity only, so
    // the page stays reconstructible without its device.
    // new_parity = XOR(other data chunks at this offset) XOR new_data.
    Bytes acc;
    SimTime ready = arrival;
    bool restart = false;
    for (u32 d = 0; d < config_.num_disks; ++d) {
      if (d == p.parity_disk || d == p.data_disk) continue;
      Ssd* s = EffectiveDisk(d, row);
      if (s == nullptr) return ArrayFailedStatus();
      auto r = s->Read(p.disk_lba, 1, arrival);
      if (!r.ok()) {
        Status st = HandleMemberError(s, d, r.status(), arrival, &retry);
        if (!retry) return st;
        restart = true;
        break;
      }
      XorInto(&acc, FirstPage(*r));
      agg.cost += r->cost;
      ready = std::max(ready, r->completion);
    }
    if (restart) continue;
    XorInto(&acc, payload);
    std::vector<Bytes> parity_payload(1);
    parity_payload[0] = std::move(acc);
    auto w = pd->Write(p.parity_lba, parity_payload, ready);
    if (!w.ok()) {
      Status st = HandleMemberError(pd, p.parity_disk, w.status(), arrival,
                                    &retry);
      if (!retry) return st;
      continue;
    }
    ++degraded_writes_;
    if (trace_ != nullptr) {
      trace_->Instant("rais.degraded_write", "rais", trace_tid_, arrival,
                      {{"lba", lba}, {"member", p.data_disk}});
    }
    agg.cost += w->cost;
    agg.completion = std::max(agg.completion, w->completion);
    return agg;
  }
  return Status::Unavailable("rais: write retries exhausted for page " +
                             std::to_string(lba));
}

// ---------------------------------------------------------------------------
// Read

Result<IoResult> Rais::Read(Lba first, u64 n, SimTime arrival) {
  EDC_RETURN_IF_ERROR(ArrayBeginOp());
  MaybeBackgroundWork(arrival);
  IoResult agg;
  agg.start = arrival;
  agg.completion = arrival;
  for (u64 i = 0; i < n; ++i) {
    if (config_.level == RaisLevel::kRais5) {
      auto one = ReadOne5(first + i, arrival);
      if (!one.ok()) return one.status();
      agg.cost += one->cost;
      agg.completion = std::max(agg.completion, one->completion);
      if (!one->pages.empty()) {
        agg.pages.push_back(std::move(one->pages.front()));
      } else {
        agg.pages.emplace_back();
      }
    } else {
      Placement p = Place(first + i);
      auto r = disks_[p.data_disk]->Read(p.disk_lba, 1, arrival);
      if (!r.ok()) {
        if (r.status().code() == StatusCode::kUnavailable &&
            disks_[p.data_disk]->fault().member_failed()) {
          return Status::DataLoss("RAIS0: member " +
                                  std::to_string(p.data_disk) +
                                  " failed; no redundancy");
        }
        return r.status();
      }
      agg.cost += r->cost;
      agg.completion = std::max(agg.completion, r->completion);
      if (!r->pages.empty()) {
        agg.pages.push_back(std::move(r->pages.front()));
      } else {
        agg.pages.emplace_back();
      }
    }
  }
  busy_until_ = std::max(busy_until_, agg.completion);
  return agg;
}

Result<IoResult> Rais::ReconstructPage(Lba lba, u32 skip, SimTime arrival) {
  Placement p = Place(lba);
  const u64 row = p.disk_lba / config_.chunk_pages;
  IoResult agg;
  agg.start = arrival;
  agg.completion = arrival;
  Bytes rebuilt;
  for (u32 d = 0; d < config_.num_disks; ++d) {
    if (d == skip) continue;
    Ssd* s = EffectiveDisk(d, row);
    if (s == nullptr) {
      // Two chunks of the row are missing: data loss, name both members.
      ++unrecoverable_reads_;
      return DoubleFaultError(lba, skip, d, arrival);
    }
    auto rr = s->Read(p.disk_lba, 1, arrival);
    if (!rr.ok()) {
      if (rr.status().code() == StatusCode::kUnavailable &&
          d != dead_member_ && disks_[d]->fault().member_failed()) {
        NoteMemberDeath(d, arrival);
        ++unrecoverable_reads_;
        return DoubleFaultError(lba, skip, d, arrival);
      }
      if (rr.status().code() == StatusCode::kMediaError) {
        ++unrecoverable_reads_;
        return DoubleFaultError(lba, skip, d, arrival);
      }
      return rr.status();
    }
    agg.cost += rr->cost;
    agg.completion = std::max(agg.completion, rr->completion);
    XorInto(&rebuilt, FirstPage(*rr));
  }
  agg.pages.push_back(std::move(rebuilt));
  return agg;
}

Result<IoResult> Rais::ReadOne5(Lba lba, SimTime arrival) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (array_failed_) return ArrayFailedStatus();
    Placement p = Place(lba);
    const u64 row = p.disk_lba / config_.chunk_pages;
    Ssd* dd = EffectiveDisk(p.data_disk, row);
    if (dd == nullptr) {
      // The page's device is dead and this row is not rebuilt yet: serve
      // it from parity — the persistent degraded-mode read path.
      auto rec = ReconstructPage(lba, p.data_disk, arrival);
      if (rec.ok()) {
        ++degraded_reads_;
        if (trace_ != nullptr) {
          trace_->Instant("rais.degraded_read", "rais", trace_tid_, arrival,
                          {{"lba", lba}, {"member", p.data_disk}});
        }
      }
      return rec;
    }
    auto r = dd->Read(p.disk_lba, 1, arrival);
    if (r.ok()) return r;
    if (r.status().code() == StatusCode::kMediaError) {
      // Transient UCE on a live member: rebuild the page as the XOR of
      // every other member at the same member address.
      auto rec = ReconstructPage(lba, p.data_disk, arrival);
      if (rec.ok()) {
        ++reconstructed_reads_;
        if (trace_ != nullptr) {
          trace_->Instant("rais.reconstruct", "device", trace_tid_, arrival,
                          {{"lba", lba}, {"member", p.data_disk}});
        }
      }
      return rec;
    }
    bool retry = false;
    Status st =
        HandleMemberError(dd, p.data_disk, r.status(), arrival, &retry);
    if (!retry) return st;
  }
  return Status::Unavailable("rais: read retries exhausted for page " +
                             std::to_string(lba));
}

// ---------------------------------------------------------------------------
// Trim

Result<IoResult> Rais::Trim(Lba first, u64 n, SimTime arrival) {
  EDC_RETURN_IF_ERROR(ArrayBeginOp());
  MaybeBackgroundWork(arrival);
  IoResult agg;
  agg.start = arrival;
  agg.completion = arrival;
  for (u64 i = 0; i < n; ++i) {
    if (config_.level == RaisLevel::kRais5) {
      auto one = TrimOne5(first + i, arrival);
      if (!one.ok()) return one.status();
      agg.cost += one->cost;
      agg.completion = std::max(agg.completion, one->completion);
    } else {
      Placement p = Place(first + i);
      auto r = disks_[p.data_disk]->Trim(p.disk_lba, 1, arrival);
      if (!r.ok()) {
        if (r.status().code() == StatusCode::kUnavailable &&
            disks_[p.data_disk]->fault().member_failed()) {
          return Status::DataLoss("RAIS0: member " +
                                  std::to_string(p.data_disk) +
                                  " failed; no redundancy");
        }
        return r.status();
      }
      agg.cost += r->cost;
      agg.completion = std::max(agg.completion, r->completion);
    }
  }
  busy_until_ = std::max(busy_until_, agg.completion);
  return agg;
}

Result<IoResult> Rais::TrimOne5(Lba lba, SimTime arrival) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (array_failed_) return ArrayFailedStatus();
    Placement p = Place(lba);
    const u64 row = p.disk_lba / config_.chunk_pages;
    Ssd* dd = EffectiveDisk(p.data_disk, row);
    Ssd* pd = EffectiveDisk(p.parity_disk, row);
    bool retry = false;
    IoResult agg;
    agg.start = arrival;
    agg.completion = arrival;

    if (dd != nullptr && pd != nullptr) {
      // Parity-safe trim: the departing content must leave parity, or a
      // later reconstruction of *another* chunk in this row would XOR in
      // stale data. Unwritten/timing-only pages contribute nothing, so
      // those keep the cheap metadata-only path.
      auto old_data = dd->Read(p.disk_lba, 1, arrival);
      if (!old_data.ok()) {
        Status st = HandleMemberError(dd, p.data_disk, old_data.status(),
                                      arrival, &retry);
        if (!retry) return st;
        continue;
      }
      if (FirstPage(*old_data).empty()) {
        auto t = dd->Trim(p.disk_lba, 1, arrival);
        if (!t.ok()) {
          Status st = HandleMemberError(dd, p.data_disk, t.status(),
                                        arrival, &retry);
          if (!retry) return st;
          continue;
        }
        agg.cost += t->cost;
        agg.completion = std::max(agg.completion, t->completion);
        return agg;
      }
      auto old_parity = pd->Read(p.parity_lba, 1, arrival);
      if (!old_parity.ok()) {
        Status st = HandleMemberError(pd, p.parity_disk,
                                      old_parity.status(), arrival, &retry);
        if (!retry) return st;
        continue;
      }
      SimTime ready =
          std::max(old_data->completion, old_parity->completion);
      auto t = dd->Trim(p.disk_lba, 1, ready);
      if (!t.ok()) {
        Status st = HandleMemberError(dd, p.data_disk, t.status(), arrival,
                                      &retry);
        if (!retry) return st;
        continue;
      }
      std::vector<Bytes> parity_payload(1);
      XorInto(&parity_payload[0], FirstPage(*old_parity));
      XorInto(&parity_payload[0], FirstPage(*old_data));
      auto w = pd->Write(p.parity_lba, parity_payload, ready);
      if (!w.ok()) {
        Status st = HandleMemberError(pd, p.parity_disk, w.status(),
                                      arrival, &retry);
        if (!retry) return st;
        continue;
      }
      agg.cost += old_data->cost;
      agg.cost += old_parity->cost;
      agg.cost += t->cost;
      agg.cost += w->cost;
      agg.completion =
          std::max(agg.completion, std::max(t->completion, w->completion));
      return agg;
    }

    if (pd == nullptr) {
      // Parity degraded: trim the data; the rebuild recomputes parity
      // from the (now empty) chunk when it reaches this row.
      auto t = dd->Trim(p.disk_lba, 1, arrival);
      if (!t.ok()) {
        Status st = HandleMemberError(dd, p.data_disk, t.status(), arrival,
                                      &retry);
        if (!retry) return st;
        continue;
      }
      ++degraded_writes_;
      agg.cost += t->cost;
      agg.completion = std::max(agg.completion, t->completion);
      return agg;
    }

    // Data member degraded: logically clearing the dead chunk means
    // parity becomes the XOR of the surviving data chunks (the dead page
    // then reconstructs to zeros/empty).
    Bytes acc;
    SimTime ready = arrival;
    bool restart = false;
    for (u32 d = 0; d < config_.num_disks; ++d) {
      if (d == p.parity_disk || d == p.data_disk) continue;
      Ssd* s = EffectiveDisk(d, row);
      if (s == nullptr) return ArrayFailedStatus();
      auto r = s->Read(p.disk_lba, 1, arrival);
      if (!r.ok()) {
        Status st = HandleMemberError(s, d, r.status(), arrival, &retry);
        if (!retry) return st;
        restart = true;
        break;
      }
      XorInto(&acc, FirstPage(*r));
      agg.cost += r->cost;
      ready = std::max(ready, r->completion);
    }
    if (restart) continue;
    std::vector<Bytes> parity_payload(1);
    parity_payload[0] = std::move(acc);
    auto w = pd->Write(p.parity_lba, parity_payload, ready);
    if (!w.ok()) {
      Status st = HandleMemberError(pd, p.parity_disk, w.status(), arrival,
                                    &retry);
      if (!retry) return st;
      continue;
    }
    ++degraded_writes_;
    agg.cost += w->cost;
    agg.completion = std::max(agg.completion, w->completion);
    return agg;
  }
  return Status::Unavailable("rais: trim retries exhausted for page " +
                             std::to_string(lba));
}

// ---------------------------------------------------------------------------
// Hot-spare rebuild

void Rais::StartRebuild(SimTime now) {
  if (config_.level != RaisLevel::kRais5) return;
  if (rebuilding_ || dead_member_ == kNoMember || array_failed_) return;
  u32 s = kNoMember;
  for (u32 j = 0; j < spares_.size(); ++j) {
    if (spares_[j] != nullptr) {
      s = j;
      break;
    }
  }
  if (s == kNoMember) return;  // no spare: stay degraded
  active_spare_ = s;
  rebuilding_ = true;
  rebuild_cursor_row_ = 0;
  SetDegradedGauge();
  if (trace_ != nullptr) {
    trace_->Instant("rais.rebuild_start", "rais", trace_tid_, now,
                    {{"member", dead_member_}, {"spare", s}});
  }
  WriteSuperblock(now);
}

Status Rais::RebuildRow(u64 row, SimTime now) {
  const u64 chunk = config_.chunk_pages;
  Ssd* spare = spares_[active_spare_].get();
  for (u64 ic = 0; ic < chunk; ++ic) {
    Lba addr = row * chunk + ic;
    Bytes rebuilt;
    for (u32 d = 0; d < config_.num_disks; ++d) {
      if (d == dead_member_) continue;
      auto r = disks_[d]->Read(addr, 1, now);
      if (!r.ok()) return r.status();
      XorInto(&rebuilt, FirstPage(*r));
    }
    // An empty XOR means every surviving chunk is empty, so the dead
    // member's page was empty too: leave the spare page unwritten.
    if (!rebuilt.empty()) {
      std::vector<Bytes> one(1);
      one[0] = std::move(rebuilt);
      auto w = spare->Write(addr, one, now);
      if (!w.ok()) return w.status();
    }
  }
  return Status::Ok();
}

void Rais::FinishRebuild(SimTime now) {
  u32 dead = dead_member_;
  // The spare takes over the dead slot wholesale; the failed device is
  // discarded with its fail-stop state.
  disks_[dead] = std::move(spares_[active_spare_]);
  active_spare_ = kNoMember;
  dead_member_ = kNoMember;
  rebuilding_ = false;
  rebuild_cursor_row_ = 0;
  ++rebuilds_completed_;
  SetDegradedGauge();
  WriteSuperblock(now);
  if (trace_ != nullptr) {
    trace_->Instant("rais.rebuild_done", "rais", trace_tid_, now,
                    {{"member", dead}, {"rows", rows_}});
  }
}

Result<bool> Rais::PumpRebuild(SimTime now) {
  if (!rebuilding_ || array_power_lost_ || array_failed_) {
    return rebuilding_;
  }
  u32 steps = std::max<u32>(1, config_.rebuild_rows_per_step);
  while (steps-- > 0 && rebuild_cursor_row_ < rows_) {
    EDC_RETURN_IF_ERROR(RebuildRow(rebuild_cursor_row_, now));
    ++rebuild_cursor_row_;
    ++rebuild_rows_done_;
    if (config_.rebuild_checkpoint_rows != 0 &&
        rebuild_cursor_row_ < rows_ &&
        rebuild_cursor_row_ % config_.rebuild_checkpoint_rows == 0) {
      WriteSuperblock(now);
      if (trace_ != nullptr) {
        trace_->Instant("rais.rebuild_checkpoint", "rais", trace_tid_, now,
                        {{"row", rebuild_cursor_row_}});
      }
    }
  }
  SetDegradedGauge();  // refresh edc_rais_rebuild_progress
  if (rebuild_cursor_row_ >= rows_) FinishRebuild(now);
  return rebuilding_;
}

void Rais::MaybeBackgroundWork(SimTime now) {
  if (!rebuilding_ || array_power_lost_ || array_failed_) return;
  if (config_.rebuild_idle_window == 0) return;
  // The array must have been idle for the configured window; the rebuild
  // step then spends the gap (mirrors Ssd::MaybeBackgroundGc).
  if (now - busy_until_ < config_.rebuild_idle_window) return;
  auto active = PumpRebuild(now);
  if (!active.ok()) return;  // power cut mid-step: resume after recovery
}

// ---------------------------------------------------------------------------
// Superblock + recovery

Bytes Rais::EncodeSuperblock(const Superblock& sb) {
  Bytes b(kSuperblockBytes, 0);
  PutU64(&b, 0, kSuperblockMagic);
  PutU64(&b, 8, sb.epoch);
  PutU32(&b, 16, sb.state);
  PutU32(&b, 20, sb.dead_member);
  PutU32(&b, 24, sb.spare);
  // 28..31 reserved.
  PutU64(&b, 32, sb.cursor_row);
  PutU32(&b, 40, Crc32(ByteSpan(b.data(), 40)));
  return b;
}

bool Rais::DecodeSuperblock(ByteSpan image, Superblock* out) {
  if (image.size() < kSuperblockBytes) return false;
  if (GetU64(image, 0) != kSuperblockMagic) return false;
  if (GetU32(image, 40) != Crc32(image.subspan(0, 40))) return false;
  out->epoch = GetU64(image, 8);
  out->state = GetU32(image, 16);
  out->dead_member = GetU32(image, 20);
  out->spare = GetU32(image, 24);
  out->cursor_row = GetU64(image, 32);
  return true;
}

void Rais::WriteSuperblock(SimTime now) {
  if (config_.num_spares == 0) return;
  ++sb_epoch_;
  Superblock sb;
  sb.epoch = sb_epoch_;
  sb.state = rebuilding_ ? 2u : (dead_member_ != kNoMember ? 1u : 0u);
  sb.dead_member = dead_member_;
  sb.spare = active_spare_;
  sb.cursor_row = rebuild_cursor_row_;
  std::vector<Bytes> one(1, EncodeSuperblock(sb));
  const Lba addr = member_pages_ - 1;
  auto write_to = [&](Ssd* dev) {
    if (dev == nullptr) return;
    // Best-effort broadcast: dead or powerless devices are skipped; any
    // surviving copy with the newest epoch is enough for recovery.
    auto w = dev->Write(addr, one, now);
    if (!w.ok()) return;
  };
  for (u32 d = 0; d < config_.num_disks; ++d) {
    if (d == dead_member_) continue;
    write_to(disks_[d].get());
  }
  for (auto& s : spares_) write_to(s.get());
}

Status Rais::RecoverArrayState(SimTime now) {
  if (array_failed_) return ArrayFailedStatus();
  // Member health is re-derived from the persistent fail-stop state, not
  // from anything in RAM: a power cycle forgets nothing about dead disks.
  dead_member_ = kNoMember;
  second_dead_member_ = kNoMember;
  for (u32 d = 0; d < config_.num_disks; ++d) {
    if (!disks_[d]->fault().member_failed()) continue;
    if (dead_member_ == kNoMember) {
      dead_member_ = d;
    } else {
      second_dead_member_ = d;
    }
  }
  if (second_dead_member_ != kNoMember) {
    array_failed_ = true;
    SetDegradedGauge();
    return ArrayFailedStatus();
  }
  rebuilding_ = false;
  active_spare_ = kNoMember;
  rebuild_cursor_row_ = 0;
  if (config_.num_spares > 0) {
    // Newest valid superblock wins; every live member and spare holds a
    // best-effort copy.
    Superblock best;
    bool found = false;
    const Lba addr = member_pages_ - 1;
    auto consider = [&](Ssd* dev) {
      if (dev == nullptr) return;
      auto r = dev->Read(addr, 1, now);
      if (!r.ok() || r->pages.empty()) return;
      Superblock sb;
      if (!DecodeSuperblock(r->pages.front(), &sb)) return;
      if (!found || sb.epoch > best.epoch) {
        best = sb;
        found = true;
      }
    };
    for (auto& d : disks_) consider(d.get());
    for (auto& s : spares_) consider(s.get());
    if (found) {
      sb_epoch_ = std::max(sb_epoch_, best.epoch);
      if (best.state == 2u && dead_member_ != kNoMember &&
          best.dead_member == dead_member_ &&
          best.spare < config_.num_spares &&
          spares_[best.spare] != nullptr) {
        // Resume the interrupted rebuild from the last durable
        // checkpoint; rows between the checkpoint and the actual
        // progress are reconstructed again (idempotent).
        rebuilding_ = true;
        active_spare_ = best.spare;
        rebuild_cursor_row_ = best.cursor_row;
      }
    }
  }
  SetDegradedGauge();
  if (dead_member_ != kNoMember && !rebuilding_) StartRebuild(now);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Scrub + repair

Result<IoResult> Rais::ReadRebuilt(Lba first, u64 n, SimTime arrival) {
  if (config_.level != RaisLevel::kRais5) {
    return Read(first, n, arrival);
  }
  if (array_failed_) return ArrayFailedStatus();
  IoResult agg;
  agg.start = arrival;
  agg.completion = arrival;
  for (u64 i = 0; i < n; ++i) {
    Placement p = Place(first + i);
    auto rec = ReconstructPage(first + i, p.data_disk, arrival);
    if (!rec.ok()) return rec.status();
    agg.cost += rec->cost;
    agg.completion = std::max(agg.completion, rec->completion);
    if (!rec->pages.empty()) {
      agg.pages.push_back(std::move(rec->pages.front()));
    } else {
      agg.pages.emplace_back();
    }
  }
  return agg;
}

Result<IoResult> Rais::WriteRepair(Lba first,
                                   std::span<const Bytes> payloads,
                                   SimTime arrival) {
  if (config_.level != RaisLevel::kRais5) {
    return Write(first, payloads, arrival);
  }
  if (array_failed_) return ArrayFailedStatus();
  IoResult agg;
  agg.start = arrival;
  agg.completion = arrival;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    Placement p = Place(first + i);
    const u64 row = p.disk_lba / config_.chunk_pages;
    Ssd* dd = EffectiveDisk(p.data_disk, row);
    if (dd == nullptr) {
      return Status::FailedPrecondition(
          "rais: cannot repair page " + std::to_string(first + i) +
          " onto dead member " + std::to_string(p.data_disk));
    }
    std::span<const Bytes> one(&payloads[i], 1);
    auto w = dd->Write(p.disk_lba, one, arrival);
    if (!w.ok()) return w.status();
    agg.cost += w->cost;
    agg.completion = std::max(agg.completion, w->completion);
  }
  return agg;
}

Result<ParityScrubResult> Rais::ScrubParity(SimTime now) {
  ParityScrubResult res;
  res.completion = now;
  if (config_.level != RaisLevel::kRais5) return res;
  if (array_failed_) return ArrayFailedStatus();
  if (dead_member_ != kNoMember) {
    return Status::FailedPrecondition(
        "rais: parity scrub requires a healthy array (member " +
        std::to_string(dead_member_) + " is dead)");
  }
  const u64 chunk = config_.chunk_pages;
  const u32 n = config_.num_disks;
  for (u64 row = 0; row < rows_; ++row) {
    const u32 parity = static_cast<u32>((n - 1) - (row % n));
    bool mismatch = false;
    for (u64 ic = 0; ic < chunk; ++ic) {
      Lba addr = row * chunk + ic;
      // A consistent stripe XORs to zero across all chunks (empty pages
      // count as zeros).
      Bytes acc;
      for (u32 d = 0; d < n; ++d) {
        auto r = disks_[d]->Read(addr, 1, now);
        if (!r.ok()) return r.status();
        res.completion = std::max(res.completion, r->completion);
        XorInto(&acc, FirstPage(*r));
      }
      if (AllZero(acc)) continue;
      mismatch = true;
      // Recompute the parity page as the XOR of the data chunks.
      Bytes fix;
      for (u32 d = 0; d < n; ++d) {
        if (d == parity) continue;
        auto r = disks_[d]->Read(addr, 1, now);
        if (!r.ok()) return r.status();
        res.completion = std::max(res.completion, r->completion);
        XorInto(&fix, FirstPage(*r));
      }
      std::vector<Bytes> one(1);
      one[0] = std::move(fix);
      auto w = disks_[parity]->Write(addr, one, now);
      if (!w.ok()) return w.status();
      res.completion = std::max(res.completion, w->completion);
    }
    ++res.rows_scanned;
    ++scrub_rows_;
    if (mismatch) {
      ++res.mismatches;
      ++scrub_parity_mismatches_;
      ++res.repaired;
      ++scrub_parity_repaired_;
      if (trace_ != nullptr) {
        trace_->Instant("rais.scrub_repair", "rais", trace_tid_, now,
                        {{"row", row}});
      }
    }
  }
  return res;
}

// ---------------------------------------------------------------------------

SimTime Rais::next_free_time() const {
  SimTime earliest = disks_[0]->next_free_time();
  for (const auto& d : disks_) {
    earliest = std::min(earliest, d->next_free_time());
  }
  return earliest;
}

DeviceStats Rais::stats() const {
  std::vector<DeviceStats> members;
  members.reserve(disks_.size() + spares_.size());
  for (const auto& d : disks_) {
    if (d != nullptr) members.push_back(d->stats());
  }
  for (const auto& sp : spares_) {
    if (sp != nullptr) members.push_back(sp->stats());
  }
  DeviceStats s = FoldParallel(members);
  s.reconstructed_reads = reconstructed_reads_;
  s.members_failed = members_failed_;
  s.degraded_reads = degraded_reads_;
  s.degraded_writes = degraded_writes_;
  s.unrecoverable_reads = unrecoverable_reads_;
  s.rebuild_rows_done = rebuild_rows_done_;
  s.rebuilds_completed = rebuilds_completed_;
  s.scrub_rows = scrub_rows_;
  s.scrub_parity_mismatches = scrub_parity_mismatches_;
  s.scrub_parity_repaired = scrub_parity_repaired_;
  return s;
}

}  // namespace edc::ssd
