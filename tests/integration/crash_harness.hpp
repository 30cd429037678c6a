// Crash-consistency sweep harness.
//
// Replays a seeded mixed write/trim/read trace against a durable engine on
// a fault-injected SSD, cutting power at every k-th device operation. After
// each cut the device is rebooted, the engine recovers from the on-flash
// journal + extent headers, and the harness verifies:
//   * the full StateAuditor invariant catalogue holds on the recovered
//     state;
//   * every *acknowledged* operation survived byte-identically (a shadow
//     model tracks per-lba versions, bumped only when the engine acks);
//   * the at-most-one operation in flight at the cut either fully applied
//     or fully rolled back — per block, nothing else is legal.
//
// Shared by the tier-1 scaled test (small trace, fast) and the full
// acceptance sweep (>= 2k ops, label crash-consistency).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "edc/engine.hpp"
#include "ssd/ssd.hpp"

namespace edc::core::crashtest {

struct SweepParams {
  u64 seed = 1;
  u64 n_ops = 160;     // host operations in the trace
  u64 k = 7;           // cut power at every k-th device operation
  Lba lba_space = 40;  // working set, in 4 KiB blocks
  u32 max_blocks = 4;  // largest request, in blocks
  u64 max_cuts = 0;    // stop the sweep after this many cuts (0 = all)
};

struct Op {
  enum Kind : u8 { kWrite, kTrim, kRead } kind;
  Lba first;
  u32 n_blocks;
};

/// Deterministic mixed trace: ~70% writes, ~20% trims, ~10% reads.
inline std::vector<Op> MakeTrace(const SweepParams& p) {
  Pcg32 rng(p.seed, /*stream=*/0xC4A5);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(p.n_ops));
  for (u64 i = 0; i < p.n_ops; ++i) {
    Op op;
    u32 roll = rng.NextBounded(10);
    op.kind = roll < 7 ? Op::kWrite : roll < 9 ? Op::kTrim : Op::kRead;
    op.n_blocks = 1 + rng.NextBounded(p.max_blocks);
    op.first = rng.NextBounded(
        static_cast<u32>(p.lba_space - op.n_blocks + 1));
    ops.push_back(op);
  }
  return ops;
}

inline ssd::SsdConfig SweepDeviceConfig(u64 cut_at_op) {
  ssd::SsdConfig cfg;
  cfg.geometry.pages_per_block = 16;
  cfg.geometry.num_blocks = 256;
  cfg.store_data = true;
  cfg.fault.power_cut_at_op = cut_at_op;
  return cfg;
}

inline EngineConfig SweepEngineConfig() {
  EngineConfig ec;
  ec.scheme = Scheme::kEdc;
  ec.mode = ExecutionMode::kFunctional;
  ec.durability.enabled = true;
  ec.durability.journal_pages = 16;
  return ec;
}

/// Shadow model + in-flight-op record after a (possibly cut) trace replay.
struct ReplayOutcome {
  bool cut_fired = false;
  SimTime clock = 0;
  std::unordered_map<Lba, u64> acked;  // version per lba; absent = zeros
  Op failed{};                         // meaningful iff cut_fired
};

/// Replay the trace on `engine` until completion or the first failed op.
/// Ops are acked into the shadow model only when the engine returns ok.
inline ReplayOutcome ReplayUntilCut(Engine& engine,
                                    const std::vector<Op>& trace) {
  ReplayOutcome out;
  for (const Op& op : trace) {
    out.clock += kMillisecond;
    u64 offset = op.first * kLogicalBlockSize;
    u32 size = op.n_blocks * static_cast<u32>(kLogicalBlockSize);
    Status st = Status::Ok();
    switch (op.kind) {
      case Op::kWrite:
        st = engine.Write(out.clock, offset, size).status();
        if (st.ok()) {
          for (u32 i = 0; i < op.n_blocks; ++i) ++out.acked[op.first + i];
        }
        break;
      case Op::kTrim:
        st = engine.Trim(out.clock, offset, size).status();
        if (st.ok()) {
          for (u32 i = 0; i < op.n_blocks; ++i) {
            out.acked.erase(op.first + i);
          }
        }
        break;
      case Op::kRead:
        st = engine.Read(out.clock, offset, size).status();
        break;
    }
    if (!st.ok()) {
      // The only legal failure in this sweep is the armed power cut.
      EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
      out.cut_fired = true;
      out.failed = op;
      return out;
    }
  }
  return out;
}

/// Verify a recovered engine against the shadow model. Each block must
/// hold its acknowledged content; blocks covered by the in-flight op may
/// instead hold that op's intended effect (applied-or-rolled-back).
inline void VerifyRecovered(Engine& engine,
                            const datagen::ContentGenerator& gen,
                            const SweepParams& p, const ReplayOutcome& run,
                            u64 cut) {
  AuditReport report = engine.Audit();
  ASSERT_TRUE(report.ok()) << "cut " << cut << ": " << report.ToString();
  for (Lba lba = 0; lba < p.lba_space; ++lba) {
    auto got = engine.ReadBlockData(lba);
    ASSERT_TRUE(got.ok()) << "cut " << cut << " lba " << lba << ": "
                          << got.status().ToString();
    auto it = run.acked.find(lba);
    const u64 acked_version = it == run.acked.end() ? 0 : it->second;
    Bytes expect_acked = acked_version == 0
                             ? Bytes(kLogicalBlockSize, 0)
                             : gen.Generate(lba, acked_version,
                                            kLogicalBlockSize);
    bool in_failed_op = run.cut_fired && lba >= run.failed.first &&
                        lba < run.failed.first + run.failed.n_blocks;
    if (in_failed_op && run.failed.kind == Op::kWrite) {
      Bytes expect_new =
          gen.Generate(lba, acked_version + 1, kLogicalBlockSize);
      ASSERT_TRUE(*got == expect_acked || *got == expect_new)
          << "cut " << cut << " lba " << lba
          << ": holds neither pre- nor post-op content";
    } else if (in_failed_op && run.failed.kind == Op::kTrim) {
      ASSERT_TRUE(*got == expect_acked ||
                  *got == Bytes(kLogicalBlockSize, 0))
          << "cut " << cut << " lba " << lba
          << ": holds neither pre-trim content nor zeros";
    } else {
      ASSERT_EQ(*got, expect_acked)
          << "cut " << cut << " lba " << lba << ": acknowledged write lost";
    }
  }
}

/// One sweep point: replay the trace on a fresh device that loses power
/// at device operation `cut`, reboot, recover, verify. Returns false when
/// the replay completed without tripping the cut (the trace's device-op
/// count was passed).
inline bool RunCrashPoint(const SweepParams& p,
                          const datagen::ContentGenerator& gen,
                          const std::vector<Op>& trace,
                          const EngineConfig& ec, u64 cut) {
  ssd::Ssd dev(SweepDeviceConfig(cut));
  Engine engine(ec, &dev, &gen, nullptr);
  ReplayOutcome run = ReplayUntilCut(engine, trace);
  if (::testing::Test::HasFatalFailure() || !run.cut_fired) {
    return run.cut_fired;
  }
  dev.RestorePower();
  // Reboot model: recovery rebuilds this engine's entire host-side
  // state from the journal + extents; nothing pre-cut survives in RAM.
  Status recovered = engine.RecoverFromDevice(run.clock);
  EXPECT_TRUE(recovered.ok()) << "cut " << cut << ": "
                              << recovered.ToString();
  if (recovered.ok()) VerifyRecovered(engine, gen, p, run, cut);
  return true;
}

/// The sweep: cut power at device operation k, 2k, 3k, ... (see
/// RunCrashPoint) until a replay completes without tripping the cut or
/// `max_cuts` points were checked. The points are independent replays of
/// a deterministic trace, so worker threads claim them from a shared
/// counter; the set of points checked is the same as a serial sweep's.
/// Replays are deterministic, so once cut i lies beyond the trace every
/// later cut does too.
inline void RunCrashSweep(const SweepParams& p) {
  auto profile = datagen::ProfileByName("linux");
  ASSERT_TRUE(profile.ok());
  const datagen::ContentGenerator gen(*profile, p.seed + 1000);
  const std::vector<Op> trace = MakeTrace(p);
  const EngineConfig ec = SweepEngineConfig();

  // Point i cuts at device op (i + 1) * k; `end` shrinks to the first
  // point whose cut lies beyond the trace.
  std::atomic<u64> next{0};
  std::atomic<u64> end{p.max_cuts != 0 ? p.max_cuts : ~u64{0}};
  std::atomic<u64> recoveries_verified{0};
  auto worker = [&] {
    for (;;) {
      const u64 i = next.fetch_add(1);
      if (i >= end.load() || ::testing::Test::HasFatalFailure()) return;
      if (RunCrashPoint(p, gen, trace, ec, (i + 1) * p.k)) {
        if (::testing::Test::HasFailure()) return;
        recoveries_verified.fetch_add(1);
        continue;
      }
      u64 seen = end.load();
      while (i < seen && !end.compare_exchange_weak(seen, i)) {
      }
    }
  };
  const u32 n_workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  std::vector<std::thread> workers;
  for (u32 w = 1; w < n_workers; ++w) workers.emplace_back(worker);
  worker();
  for (std::thread& t : workers) t.join();
  if (::testing::Test::HasFailure()) return;
  EXPECT_GT(recoveries_verified.load(), 0u)
      << "sweep parameters produced no cuts at all";
  EXPECT_EQ(recoveries_verified.load(), end.load())
      << "every cut point before the end of the trace must be checked";
}

}  // namespace edc::core::crashtest
