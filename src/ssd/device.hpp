// Abstract block device: the interface the EDC engine talks to. Both the
// single simulated SSD and the RAIS arrays implement it. Devices are
// *temporal*: every operation carries an arrival time and returns a
// completion time computed against the device's internal queue/service
// model, alongside the physical work performed.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "ssd/ftl.hpp"

namespace edc::obs {
class Observer;
}

namespace edc::ssd {

/// Outcome of one device operation.
struct IoResult {
  SimTime start = 0;       // when service began (>= arrival)
  SimTime completion = 0;  // when the operation finished
  OpCost cost;             // physical flash work (incl. foreground GC)
  std::vector<Bytes> pages;  // read payloads (empty in modeled mode)

  SimTime latency(SimTime arrival) const { return completion - arrival; }
};

struct DeviceStats {
  u64 host_pages_read = 0;
  u64 host_pages_written = 0;
  u64 gc_pages_copied = 0;
  u64 gc_runs = 0;
  u64 background_reclaims = 0;
  u64 total_erases = 0;
  u32 max_erase_count = 0;
  double mean_erase_count = 0;
  double waf = 1.0;
  SimTime busy_time = 0;  // total time the device was serving
  double energy_j = 0;    // device energy consumed (flash ops / spindle)
  // Fault-injection observability (zero on fault-free devices).
  u64 read_faults = 0;          // uncorrectable read errors surfaced
  u64 program_faults = 0;       // page program failures surfaced
  u64 pages_corrupted = 0;      // latent bit flips injected into reads
  u64 reconstructed_reads = 0;  // pages rebuilt from RAIS-5 parity
  // Member-failure lifecycle (RAIS arrays; zero on single devices).
  u64 members_failed = 0;       // whole-member fail-stop events observed
  u64 degraded_reads = 0;       // dead-member pages served via parity
  u64 degraded_writes = 0;      // writes/trims that skipped a dead member
  u64 unrecoverable_reads = 0;  // double-fault reads surfaced as kDataLoss
  u64 rebuild_rows_done = 0;    // stripe rows reconstructed onto a spare
  u64 rebuilds_completed = 0;   // hot-spare rebuilds finished
  u64 scrub_rows = 0;           // stripe rows scanned by parity scrub
  u64 scrub_parity_mismatches = 0;  // rows whose parity disagreed
  u64 scrub_parity_repaired = 0;    // rows whose parity was rewritten

  bool operator==(const DeviceStats&) const = default;
};

/// Stats of devices that serve side by side (RAIS members, shard
/// devices) as one: counters and energy summed in input order, busy_time
/// and max_erase_count the max (the devices run in parallel),
/// mean_erase_count the mean of the means (0 for no input), and waf
/// recomputed from the summed pages (1.0 when nothing was written).
inline DeviceStats FoldParallel(std::span<const DeviceStats> devices) {
  DeviceStats agg;
  double mean_erase_sum = 0;
  for (const DeviceStats& d : devices) {
    agg.host_pages_read += d.host_pages_read;
    agg.host_pages_written += d.host_pages_written;
    agg.gc_pages_copied += d.gc_pages_copied;
    agg.gc_runs += d.gc_runs;
    agg.background_reclaims += d.background_reclaims;
    agg.total_erases += d.total_erases;
    agg.max_erase_count = std::max(agg.max_erase_count, d.max_erase_count);
    mean_erase_sum += d.mean_erase_count;
    agg.busy_time = std::max(agg.busy_time, d.busy_time);
    agg.energy_j += d.energy_j;
    agg.read_faults += d.read_faults;
    agg.program_faults += d.program_faults;
    agg.pages_corrupted += d.pages_corrupted;
    agg.reconstructed_reads += d.reconstructed_reads;
    agg.members_failed += d.members_failed;
    agg.degraded_reads += d.degraded_reads;
    agg.degraded_writes += d.degraded_writes;
    agg.unrecoverable_reads += d.unrecoverable_reads;
    agg.rebuild_rows_done += d.rebuild_rows_done;
    agg.rebuilds_completed += d.rebuilds_completed;
    agg.scrub_rows += d.scrub_rows;
    agg.scrub_parity_mismatches += d.scrub_parity_mismatches;
    agg.scrub_parity_repaired += d.scrub_parity_repaired;
  }
  if (!devices.empty()) {
    agg.mean_erase_count =
        mean_erase_sum / static_cast<double>(devices.size());
  }
  agg.waf = agg.host_pages_written == 0
                ? 1.0
                : static_cast<double>(agg.host_pages_written +
                                      agg.gc_pages_copied) /
                      static_cast<double>(agg.host_pages_written);
  return agg;
}

/// Outcome of one whole-device parity scrub pass (see Device::ScrubParity).
struct ParityScrubResult {
  u64 rows_scanned = 0;
  u64 mismatches = 0;   // stripe rows whose chunks did not XOR to zero
  u64 repaired = 0;     // rows whose parity chunk was recomputed/rewritten
  SimTime completion = 0;
};

class Device {
 public:
  virtual ~Device() = default;

  /// Logical pages exposed to the layer above.
  virtual u64 logical_pages() const = 0;

  /// Write `payloads.size()` consecutive pages starting at `first`.
  /// Payload entries may be empty (modeled mode / no data retention).
  virtual Result<IoResult> Write(Lba first, std::span<const Bytes> payloads,
                                 SimTime arrival) = 0;

  /// Timing-only write of `n` consecutive pages (no payloads).
  Result<IoResult> WriteModeled(Lba first, u64 n, SimTime arrival) {
    std::vector<Bytes> empty(static_cast<std::size_t>(n));
    return Write(first, empty, arrival);
  }

  /// Read `n` consecutive pages starting at `first`.
  virtual Result<IoResult> Read(Lba first, u64 n, SimTime arrival) = 0;

  /// Discard `n` consecutive pages (TRIM).
  virtual Result<IoResult> Trim(Lba first, u64 n, SimTime arrival) = 0;

  /// Read `n` pages *from redundancy* instead of the primary copy: a RAIS
  /// array reconstructs each page as the XOR of the other members in its
  /// stripe row, ignoring whatever the data member holds. The scrub layer
  /// uses this to recover content whose primary copy failed CRC. Devices
  /// without redundancy fall back to a plain read.
  virtual Result<IoResult> ReadRebuilt(Lba first, u64 n, SimTime arrival) {
    return Read(first, n, arrival);
  }

  /// Write known-good content back over a corrupted primary copy. On a
  /// RAIS array this writes the data chunk only, *without* the usual
  /// read-modify-write parity update: the content being written is what
  /// parity already accounts for, so an RMW against the corrupt old data
  /// would poison the parity. Plain devices fall back to a normal write.
  virtual Result<IoResult> WriteRepair(Lba first,
                                       std::span<const Bytes> payloads,
                                       SimTime arrival) {
    return Write(first, payloads, arrival);
  }

  /// Background parity scrub: scan every stripe row, check that the
  /// chunks XOR to zero, and rewrite the parity chunk where they do not.
  /// No-op (all-zero result) on devices without redundancy.
  virtual Result<ParityScrubResult> ScrubParity(SimTime now) {
    ParityScrubResult r;
    r.completion = now;
    return r;
  }

  virtual DeviceStats stats() const = 0;

  /// Opt into observability: emit device-level trace events (GC runs,
  /// injected faults, parity reconstructions) on lane `tid` of the
  /// observer's trace recorder. Default is a no-op; null detaches.
  virtual void AttachObs(obs::Observer* /*observer*/, u32 /*tid*/) {}

  /// When the device would start serving a request submitted now — the
  /// queue-backlog signal the paper's feedback mechanism (Fig. 6) feeds
  /// back into compression selection.
  virtual SimTime next_free_time() const = 0;
};

}  // namespace edc::ssd
