// Durable-mode engine behaviour: crash recovery from the on-flash journal
// + extent headers, clean remount (FlushPending, then RecoverFromDevice on
// a fresh engine), program-failure retry/relocation, the degradation
// breaker, and read-side integrity verification.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "edc/engine.hpp"
#include "ssd/raid.hpp"
#include "ssd/ssd.hpp"

namespace edc::core {
namespace {

ssd::SsdConfig DeviceConfig() {
  ssd::SsdConfig cfg;
  cfg.geometry.pages_per_block = 16;
  cfg.geometry.num_blocks = 128;
  cfg.store_data = true;
  return cfg;
}

EngineConfig DurableEngineConfig(Scheme scheme = Scheme::kEdc) {
  EngineConfig ec;
  ec.scheme = scheme;
  ec.mode = ExecutionMode::kFunctional;
  ec.durability.enabled = true;
  ec.durability.journal_pages = 16;
  return ec;
}

datagen::ContentGenerator MakeGenerator() {
  auto profile = datagen::ProfileByName("linux");
  EXPECT_TRUE(profile.ok());
  return datagen::ContentGenerator(*profile, 99);
}

void ExpectAuditClean(const Engine& e) {
  AuditReport report = e.Audit();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Random overwrites of 1..6 blocks over [0, 300), then a flush: every
// write is installed and journaled when this returns.
void WriteWorkload(Engine& e, int rounds, u64 seed, SimTime* now) {
  Pcg32 rng(seed, 3);
  for (int i = 0; i < rounds; ++i) {
    Lba first = rng.NextBounded(300);
    u32 n = 1 + rng.NextBounded(6);
    *now += FromMicros(rng.NextRange(10, 2000));
    ASSERT_TRUE(e.Write(*now, first * kLogicalBlockSize,
                        n * static_cast<u32>(kLogicalBlockSize))
                    .ok());
  }
  *now += kSecond;
  ASSERT_TRUE(e.FlushPending(*now).ok());
}

TEST(Recovery, CleanShutdownRebuildsTheFullEngineState) {
  auto gen = MakeGenerator();
  ssd::Ssd dev(DeviceConfig());
  EngineConfig ec = DurableEngineConfig();
  Engine writer(ec, &dev, &gen, nullptr);

  SimTime t = 0;
  for (u64 lba = 0; lba < 48; lba += 4) {
    ASSERT_TRUE(
        writer.Write(t += kMillisecond, lba * kLogicalBlockSize,
                     4 * kLogicalBlockSize)
            .ok());
  }
  // Overwrites and trims so the journal carries releases too.
  ASSERT_TRUE(writer.Write(t += kMillisecond, 8 * kLogicalBlockSize,
                           2 * kLogicalBlockSize)
                  .ok());
  ASSERT_TRUE(writer.Trim(t += kMillisecond, 20 * kLogicalBlockSize,
                          4 * kLogicalBlockSize)
                  .ok());
  ExpectAuditClean(writer);

  Engine recovered(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(recovered.RecoverFromDevice(t).ok());
  ExpectAuditClean(recovered);
  EXPECT_EQ(recovered.stats().recovered_groups,
            recovered.map().num_groups());
  EXPECT_EQ(recovered.map().num_groups(), writer.map().num_groups());
  for (Lba lba = 0; lba < 48; ++lba) {
    auto got = recovered.ReadBlockData(lba);
    ASSERT_TRUE(got.ok()) << "lba " << lba;
    EXPECT_EQ(*got, writer.ExpectedBlockData(lba)) << "lba " << lba;
  }
  // Trimmed blocks stay zeros after recovery.
  auto gone = recovered.ReadBlockData(21);
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(*gone, Bytes(kLogicalBlockSize, 0));
}

TEST(Recovery, CleanRemountReadsEverythingBack) {
  auto gen = MakeGenerator();
  ssd::Ssd dev(DeviceConfig());
  EngineConfig ec = DurableEngineConfig();
  Engine original(ec, &dev, &gen, nullptr);
  SimTime t = 0;
  WriteWorkload(original, 150, 9, &t);

  Engine remounted(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(remounted.RecoverFromDevice(t).ok());
  ExpectAuditClean(remounted);
  EXPECT_EQ(remounted.map().Serialize(), original.map().Serialize());
  for (Lba b = 0; b < 320; ++b) {
    auto want = original.ReadBlockData(b);
    auto got = remounted.ReadBlockData(b);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << "block " << b;
    ASSERT_EQ(*got, *want) << "block " << b;
    ASSERT_EQ(*got, original.ExpectedBlockData(b)) << "block " << b;
  }
}

TEST(Recovery, RemountedEngineKeepsWorking) {
  auto gen = MakeGenerator();
  ssd::Ssd dev(DeviceConfig());
  EngineConfig ec = DurableEngineConfig();
  SimTime t = 0;
  {
    Engine original(ec, &dev, &gen, nullptr);
    WriteWorkload(original, 80, 11, &t);
  }
  Engine e(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(e.RecoverFromDevice(t).ok());

  // Overwrite a few blocks and trim others; state stays coherent, on the
  // host and on flash (a second remount sees the same).
  t += 10 * kSecond;
  ASSERT_TRUE(e.Write(t, 0, 4 * kLogicalBlockSize).ok());
  ASSERT_TRUE(e.FlushPending(t += kSecond).ok());
  ASSERT_TRUE(
      e.Trim(t += kSecond, 10 * kLogicalBlockSize, 2 * kLogicalBlockSize)
          .ok());
  ExpectAuditClean(e);
  Engine again(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(again.RecoverFromDevice(t).ok());
  ExpectAuditClean(again);
  for (Engine* engine : {&e, &again}) {
    for (Lba b = 0; b < 320; ++b) {
      auto got = engine->ReadBlockData(b);
      ASSERT_TRUE(got.ok()) << "block " << b;
      ASSERT_EQ(*got, e.ExpectedBlockData(b)) << "block " << b;
    }
    auto trimmed = engine->ReadBlockData(10);
    ASSERT_TRUE(trimmed.ok());
    EXPECT_EQ(*trimmed, Bytes(kLogicalBlockSize, 0));
  }
}

TEST(Recovery, NeverWrittenDeviceRecoversEmpty) {
  auto gen = MakeGenerator();
  ssd::Ssd dev(DeviceConfig());
  EngineConfig ec = DurableEngineConfig();
  Engine e(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(e.RecoverFromDevice(0).ok());
  ExpectAuditClean(e);
  EXPECT_EQ(e.map().num_groups(), 0u);
  auto data = e.ReadBlockData(0);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes(kLogicalBlockSize, 0));

  // The recovered empty engine serves writes, and they survive a remount.
  ASSERT_TRUE(e.Write(kMillisecond, 0, 2 * kLogicalBlockSize).ok());
  ASSERT_TRUE(e.FlushPending(kSecond).ok());
  Engine again(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(again.RecoverFromDevice(kSecond).ok());
  for (Lba b = 0; b < 2; ++b) {
    auto got = again.ReadBlockData(b);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, e.ExpectedBlockData(b)) << "block " << b;
  }
}

TEST(Recovery, JournalBitFlipFallsBackOrFailsNeverWrongBytes) {
  // A flipped bit in the active journal half makes recovery use an older
  // state — the older generation in the other half, or the valid prefix
  // of the active one — or fail with kDataLoss. Whatever it recovers
  // holds only bytes the host wrote: every block reads back as zeros or
  // as one of its written versions.
  auto gen = MakeGenerator();
  EngineConfig ec = DurableEngineConfig(Scheme::kLzf);
  ec.use_seq_detector = false;
  ec.durability.journal_pages = 2;  // 4 KiB halves: several generations
  constexpr Lba kBlocks = 24;

  Pcg32 rng(5, 9);
  int recovered_older = 0;
  for (int trial = 0; trial < 30; ++trial) {
    ssd::Ssd dev(DeviceConfig());
    Engine writer(ec, &dev, &gen, nullptr);
    SimTime t = 0;
    for (u64 op = 0; op < 300; ++op) {
      Lba lba = (op * 7) % kBlocks;
      u32 n = 1 + static_cast<u32>(op % 2);
      ASSERT_TRUE(writer.Write(t += kMillisecond, lba * kLogicalBlockSize,
                               n * kLogicalBlockSize)
                      .ok());
    }
    ASSERT_GT(writer.stats().journal_checkpoints, 0u);
    const std::unordered_map<Lba, u64> written =
        *writer.MutableVersionsForTest();

    // The active half is the one holding the newer generation.
    const Lba journal_base = dev.logical_pages() - 2;
    Lba active = journal_base;
    u64 newest = 0;
    for (Lba page = journal_base; page < journal_base + 2; ++page) {
      auto io = dev.Read(page, 1, t);
      ASSERT_TRUE(io.ok());
      auto parsed = ParseJournal(io->pages[0]);
      if (parsed.ok() && parsed->generation > newest) {
        newest = parsed->generation;
        active = page;
      }
    }
    ASSERT_GT(newest, 1u);
    auto io = dev.Read(active, 1, t);
    ASSERT_TRUE(io.ok());
    Bytes page = io->pages[0];
    std::size_t used = page.size();
    while (used > 0 && page[used - 1] == 0) --used;
    std::size_t at = rng.NextBounded(static_cast<u32>(used));
    page[at] ^= static_cast<u8>(1u << rng.NextBounded(8));
    std::vector<Bytes> flipped{page};
    ASSERT_TRUE(dev.Write(active, flipped, t).ok());

    Engine recovered(ec, &dev, &gen, nullptr);
    Status s = recovered.RecoverFromDevice(t);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kDataLoss)
          << "flip at byte " << at << ": " << s.ToString();
      continue;
    }
    ExpectAuditClean(recovered);
    bool older = false;
    for (Lba b = 0; b < kBlocks + 1; ++b) {
      auto got = recovered.ReadBlockData(b);
      ASSERT_TRUE(got.ok()) << "block " << b;
      auto it = written.find(b);
      const u64 last = it == written.end() ? 0 : it->second;
      bool host_wrote = *got == Bytes(kLogicalBlockSize, 0);
      for (u64 v = 1; v <= last && !host_wrote; ++v) {
        host_wrote = *got == gen.Generate(b, v, kLogicalBlockSize);
      }
      ASSERT_TRUE(host_wrote)
          << "flip at byte " << at << ": block " << b
          << " holds bytes the host never wrote";
      older = older || *got != writer.ExpectedBlockData(b);
    }
    if (older) ++recovered_older;
  }
  EXPECT_GT(recovered_older, 0)
      << "no flip made recovery fall back to an older state";
}

// Overwrites `victim` twice: the first copy lands elsewhere and frees
// the victim's extent (install allocates before it releases), the second
// reuses that hole.
void RewriteIntoHole(Engine& e, Lba victim, SimTime* t) {
  const GroupInfo hole = *e.map().Find(victim);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(e.Write(*t += kMillisecond, victim * kLogicalBlockSize,
                        kLogicalBlockSize)
                    .ok());
  }
  auto refilled = e.map().Find(victim);
  ASSERT_TRUE(refilled.has_value());
  ASSERT_EQ(refilled->start_quantum, hole.start_quantum)
      << "the rewrite must land in the freed hole for this test to bite";
  ASSERT_EQ(refilled->quanta, hole.quanta);
}

TEST(Recovery, SubPageNeighboursSurviveARewriteOfTheirPage) {
  // Sub-page extents share a flash page, and a page program rewrites the
  // whole page: re-placing one extent must re-send its neighbours' bytes
  // exactly, both before a power cut and after recovery (which must
  // relearn the page from flash).
  auto gen = MakeGenerator();
  ssd::Ssd dev(DeviceConfig());
  EngineConfig ec = DurableEngineConfig(Scheme::kGzip);
  ec.use_seq_detector = false;
  Engine writer(ec, &dev, &gen, nullptr);
  constexpr Lba kBlocks = 16;
  SimTime t = 0;
  for (Lba b = 0; b < kBlocks; ++b) {
    ASSERT_TRUE(writer.Write(t += kMillisecond, b * kLogicalBlockSize,
                             kLogicalBlockSize)
                    .ok());
  }
  // A block whose sub-page extent shares its page with another one.
  std::unordered_map<u64, int> sub_page_extents;
  for (Lba b = 0; b < kBlocks; ++b) {
    auto g = writer.map().Find(b);
    ASSERT_TRUE(g.has_value());
    if (g->quanta < kQuantaPerBlock) {
      ++sub_page_extents[g->start_quantum / kQuantaPerBlock];
    }
  }
  Lba victim = kBlocks;
  for (Lba b = 0; b < kBlocks && victim == kBlocks; ++b) {
    auto g = writer.map().Find(b);
    if (g->quanta < kQuantaPerBlock &&
        sub_page_extents[g->start_quantum / kQuantaPerBlock] >= 2) {
      victim = b;
    }
  }
  ASSERT_LT(victim, kBlocks) << "no page holds two sub-page extents";

  RewriteIntoHole(writer, victim, &t);
  dev.fault().ForcePowerLoss();
  dev.RestorePower();
  Engine recovered(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(recovered.RecoverFromDevice(t).ok());
  ExpectAuditClean(recovered);

  RewriteIntoHole(recovered, victim, &t);
  dev.fault().ForcePowerLoss();
  dev.RestorePower();
  Engine again(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(again.RecoverFromDevice(t).ok());
  ExpectAuditClean(again);
  for (Lba b = 0; b < kBlocks; ++b) {
    auto got = again.ReadBlockData(b);
    ASSERT_TRUE(got.ok()) << "block " << b;
    EXPECT_EQ(*got, recovered.ExpectedBlockData(b)) << "block " << b;
  }
  // Reads through the device pass the extent check too.
  ASSERT_TRUE(
      again.Read(t += kMillisecond, 0, kBlocks * kLogicalBlockSize).ok());
}

TEST(Recovery, PowerCutMidWorkloadLosesNoAcknowledgedWrite) {
  auto gen = MakeGenerator();
  ssd::SsdConfig dcfg = DeviceConfig();
  dcfg.fault.power_cut_at_op = 37;
  ssd::Ssd dev(dcfg);
  EngineConfig ec = DurableEngineConfig();
  Engine writer(ec, &dev, &gen, nullptr);

  // Shadow model: version per lba, bumped only when the engine acks.
  std::unordered_map<Lba, u64> acked;
  SimTime t = 0;
  Lba failed_first = 0;
  u32 failed_blocks = 0;
  for (u64 op = 0;; ++op) {
    Lba first = (op * 5) % 40;
    u32 n = 1 + static_cast<u32>(op % 4);
    auto done = writer.Write(t += kMillisecond, first * kLogicalBlockSize,
                             n * kLogicalBlockSize);
    if (!done.ok()) {
      EXPECT_EQ(done.status().code(), StatusCode::kUnavailable);
      failed_first = first;
      failed_blocks = n;
      break;
    }
    for (u32 i = 0; i < n; ++i) ++acked[first + i];
    ASSERT_LT(op, 1000u) << "the cut must fire within the workload";
  }

  dev.RestorePower();
  Engine recovered(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(recovered.RecoverFromDevice(t).ok());
  ExpectAuditClean(recovered);

  for (Lba lba = 0; lba < 40; ++lba) {
    auto got = recovered.ReadBlockData(lba);
    ASSERT_TRUE(got.ok()) << "lba " << lba;
    auto it = acked.find(lba);
    Bytes expect_acked = it == acked.end()
                             ? Bytes(kLogicalBlockSize, 0)
                             : gen.Generate(lba, it->second,
                                            kLogicalBlockSize);
    bool in_failed_op =
        lba >= failed_first && lba < failed_first + failed_blocks;
    if (in_failed_op) {
      // The in-flight op was never acked: either outcome is legal, but
      // nothing else is.
      Bytes expect_new = gen.Generate(
          lba, (it == acked.end() ? 0 : it->second) + 1, kLogicalBlockSize);
      EXPECT_TRUE(*got == expect_acked || *got == expect_new)
          << "lba " << lba << " holds neither pre- nor post-op content";
    } else {
      EXPECT_EQ(*got, expect_acked) << "acked lba " << lba;
    }
  }
}

TEST(Recovery, GenerationSwitchCheckpointsAndStillRecovers) {
  auto gen = MakeGenerator();
  ssd::Ssd dev(DeviceConfig());
  EngineConfig ec = DurableEngineConfig();
  ec.durability.journal_pages = 2;  // 4 KiB halves: force generation churn
  Engine writer(ec, &dev, &gen, nullptr);

  SimTime t = 0;
  for (u64 op = 0; op < 300; ++op) {
    Lba lba = op % 24;
    ASSERT_TRUE(writer.Write(t += kMillisecond, lba * kLogicalBlockSize,
                             kLogicalBlockSize)
                    .ok())
        << "op " << op;
  }
  EXPECT_GT(writer.stats().journal_checkpoints, 0u)
      << "4 KiB halves must overflow during 300 installs";

  Engine recovered(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(recovered.RecoverFromDevice(t).ok());
  ExpectAuditClean(recovered);
  for (Lba lba = 0; lba < 24; ++lba) {
    auto got = recovered.ReadBlockData(lba);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, writer.ExpectedBlockData(lba)) << "lba " << lba;
  }
}

TEST(Recovery, RecoveryIsRepeatable) {
  auto gen = MakeGenerator();
  ssd::Ssd dev(DeviceConfig());
  EngineConfig ec = DurableEngineConfig();
  Engine writer(ec, &dev, &gen, nullptr);
  SimTime t = 0;
  for (u64 lba = 0; lba < 16; lba += 2) {
    ASSERT_TRUE(writer.Write(t += kMillisecond, lba * kLogicalBlockSize,
                             2 * kLogicalBlockSize)
                    .ok());
  }

  Engine recovered(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(recovered.RecoverFromDevice(t).ok());
  // The recovered engine keeps serving writes, and a second crashless
  // recovery from its checkpointed generation sees the same state.
  ASSERT_TRUE(recovered.Write(t += kMillisecond, 0, kLogicalBlockSize).ok());
  Engine again(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(again.RecoverFromDevice(t).ok());
  ExpectAuditClean(again);
  for (Lba lba = 0; lba < 16; ++lba) {
    auto got = again.ReadBlockData(lba);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, recovered.ExpectedBlockData(lba)) << "lba " << lba;
  }
}

TEST(Recovery, RecoveryWhilePowerIsStillLostFailsHonestly) {
  auto gen = MakeGenerator();
  ssd::SsdConfig dcfg = DeviceConfig();
  dcfg.fault.power_cut_at_op = 3;
  ssd::Ssd dev(dcfg);
  EngineConfig ec = DurableEngineConfig();
  Engine writer(ec, &dev, &gen, nullptr);
  SimTime t = 0;
  Status last = Status::Ok();
  for (u64 op = 0; op < 8 && last.ok(); ++op) {
    last = writer
               .Write(t += kMillisecond, op * kLogicalBlockSize,
                      kLogicalBlockSize)
               .status();
  }
  EXPECT_EQ(last.code(), StatusCode::kUnavailable);
  Engine recovered(ec, &dev, &gen, nullptr);
  // Without RestorePower the device still refuses every op.
  EXPECT_FALSE(recovered.RecoverFromDevice(t).ok());
}

TEST(Recovery, ProgramFailuresRetryWithZeroDataLoss) {
  auto gen = MakeGenerator();
  ssd::SsdConfig dcfg = DeviceConfig();
  dcfg.fault.seed = 17;
  dcfg.fault.p_program_fail = 0.02;
  ssd::Ssd dev(dcfg);
  EngineConfig ec = DurableEngineConfig();
  Engine e(ec, &dev, &gen, nullptr);

  SimTime t = 0;
  for (u64 op = 0; op < 200; ++op) {
    Lba first = (op * 7) % 48;
    u32 n = 1 + static_cast<u32>(op % 3);
    ASSERT_TRUE(e.Write(t += kMillisecond, first * kLogicalBlockSize,
                        n * kLogicalBlockSize)
                    .ok())
        << "op " << op << " must survive program failures via retries";
  }
  EXPECT_GT(e.stats().program_failures, 0u) << "p=0.02 must fire in ~600 "
                                               "page programs";
  EXPECT_GT(e.stats().program_retries, 0u);
  ExpectAuditClean(e);
  // Relocated groups left quarantined extents behind; the tiling invariant
  // (checked by the audit above) still covers them.
  EXPECT_GT(e.map().allocator().quarantined_quanta(), 0u);
  for (Lba lba = 0; lba < 48; ++lba) {
    auto got = e.ReadBlockData(lba);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, e.ExpectedBlockData(lba)) << "lba " << lba;
  }
}

TEST(Recovery, BreakerDemotesToUncompressedAfterErrorBudget) {
  auto gen = MakeGenerator();
  ssd::SsdConfig dcfg = DeviceConfig();
  dcfg.fault.seed = 23;
  dcfg.fault.p_program_fail = 0.05;
  ssd::Ssd dev(dcfg);
  EngineConfig ec = DurableEngineConfig(Scheme::kGzip);
  ec.breaker_error_budget = 3;
  Engine e(ec, &dev, &gen, nullptr);

  SimTime t = 0;
  for (u64 op = 0; op < 150; ++op) {
    Lba lba = op % 32;
    ASSERT_TRUE(e.Write(t += kMillisecond, lba * kLogicalBlockSize,
                        kLogicalBlockSize)
                    .ok())
        << "op " << op;
  }
  const EngineStats& s = e.stats();
  ASSERT_TRUE(s.breaker_open) << "p=0.05 must exhaust a 3-error budget";
  EXPECT_EQ(s.breaker_trips, 1u);
  EXPECT_GT(s.degraded_groups, 0u);
  // Demoted groups really are stored uncompressed.
  EXPECT_GT(s.groups_by_codec[static_cast<int>(codec::CodecId::kStore)], 0u);
  ExpectAuditClean(e);
  for (Lba lba = 0; lba < 32; ++lba) {
    auto got = e.ReadBlockData(lba);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, e.ExpectedBlockData(lba)) << "lba " << lba;
  }
}

TEST(Recovery, ReadVerifyCatchesAScribbledExtent) {
  auto gen = MakeGenerator();
  ssd::Ssd dev(DeviceConfig());
  EngineConfig ec = DurableEngineConfig();
  Engine e(ec, &dev, &gen, nullptr);
  SimTime t = 0;
  ASSERT_TRUE(e.Write(t += kMillisecond, 0, 4 * kLogicalBlockSize).ok());
  ASSERT_TRUE(e.Read(t += kMillisecond, 0, 4 * kLogicalBlockSize).ok());

  // Scribble the extent's first flash page behind the engine's back.
  auto g = e.map().Find(0);
  ASSERT_TRUE(g.has_value());
  Lba page = g->start_quantum / kQuantaPerBlock;
  std::vector<Bytes> garbage{Bytes(kLogicalBlockSize, 0xFF)};
  ASSERT_TRUE(dev.Write(page, garbage, t).ok());

  auto r = e.Read(t += kMillisecond, 0, 4 * kLogicalBlockSize);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_GE(e.stats().media_errors, 1u);
}

TEST(Recovery, LatentCorruptionAfterRebootIsCaughtByExtentCrc) {
  // A page corrupted in flight after a power cycle must surface as an
  // integrity failure — never as silently wrong bytes. Exercises
  // RestorePower x latent bit corruption: recovery itself succeeds (the
  // corruption is armed afterwards), the verified read then refuses.
  auto gen = MakeGenerator();
  ssd::Ssd dev(DeviceConfig());
  EngineConfig ec = DurableEngineConfig();
  SimTime t = 0;
  {
    Engine writer(ec, &dev, &gen, nullptr);
    ASSERT_TRUE(
        writer.Write(t += kMillisecond, 0, 4 * kLogicalBlockSize).ok());
    dev.fault().ForcePowerLoss();
    ASSERT_EQ(writer.Read(t, 0, kLogicalBlockSize).status().code(),
              StatusCode::kUnavailable);
  }
  dev.RestorePower();
  Engine e(ec, &dev, &gen, nullptr);
  ASSERT_TRUE(e.RecoverFromDevice(t).ok());

  auto g = e.map().Find(0);
  ASSERT_TRUE(g.has_value());
  Lba page = g->start_quantum / kQuantaPerBlock;
  dev.fault().ForceCorruptReadOnce(page);
  auto r = e.Read(t += kMillisecond, 0, 4 * kLogicalBlockSize);
  ASSERT_FALSE(r.ok()) << "a flipped bit must not pass the extent CRC";
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_GE(e.stats().media_errors, 1u);
  // The corruption was transient (read path only): the next read serves
  // the true content again.
  auto again = e.Read(t += kMillisecond, 0, 4 * kLogicalBlockSize);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST(Recovery, TransientUnavailabilityIsRetriedWithBackoff) {
  auto gen = MakeGenerator();
  ssd::Ssd dev(DeviceConfig());
  EngineConfig ec = DurableEngineConfig();
  ec.read_retry_attempts = 3;
  Engine e(ec, &dev, &gen, nullptr);
  SimTime t = 0;
  ASSERT_TRUE(e.Write(t += kMillisecond, 0, 4 * kLogicalBlockSize).ok());

  dev.fault().ForceUnavailableOnce(2);
  t += kMillisecond;
  auto r = e.Read(t, 0, 4 * kLogicalBlockSize);
  ASSERT_TRUE(r.ok()) << "two transient failures within a 3-retry budget: "
                      << r.status().ToString();
  EXPECT_EQ(e.stats().read_retries, 2u);
  // Each retry waits out its linear backoff in sim time.
  EXPECT_GE(*r, t + 3 * ec.read_retry_backoff);
}

TEST(Recovery, RetryBudgetExhaustionSurfacesUnavailable) {
  auto gen = MakeGenerator();
  ssd::Ssd dev(DeviceConfig());
  EngineConfig ec = DurableEngineConfig();
  ec.read_retry_attempts = 2;
  Engine e(ec, &dev, &gen, nullptr);
  SimTime t = 0;
  ASSERT_TRUE(e.Write(t += kMillisecond, 0, kLogicalBlockSize).ok());

  dev.fault().ForceUnavailableOnce(5);
  auto r = e.Read(t += kMillisecond, 0, kLogicalBlockSize);
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(e.stats().read_retries, 2u);
}

TEST(Recovery, RetriesNeverMaskDataLoss) {
  auto gen = MakeGenerator();
  ssd::Ssd dev(DeviceConfig());
  EngineConfig ec = DurableEngineConfig();
  ec.read_retry_attempts = 3;
  Engine e(ec, &dev, &gen, nullptr);
  SimTime t = 0;
  ASSERT_TRUE(e.Write(t += kMillisecond, 0, 4 * kLogicalBlockSize).ok());

  auto g = e.map().Find(0);
  ASSERT_TRUE(g.has_value());
  Lba page = g->start_quantum / kQuantaPerBlock;
  std::vector<Bytes> garbage{Bytes(kLogicalBlockSize, 0xFF)};
  ASSERT_TRUE(dev.Write(page, garbage, t).ok());

  auto r = e.Read(t += kMillisecond, 0, 4 * kLogicalBlockSize);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(e.stats().read_retries, 0u)
      << "kDataLoss is not transient; retrying it would re-read known-bad "
         "content";
}

TEST(Recovery, MemberUceOnRais5IsTransparentToTheEngine) {
  auto gen = MakeGenerator();
  ssd::RaisConfig rcfg;
  rcfg.level = ssd::RaisLevel::kRais5;
  rcfg.num_disks = 4;
  rcfg.chunk_pages = 2;
  rcfg.member.geometry.pages_per_block = 16;
  rcfg.member.geometry.num_blocks = 64;
  rcfg.member.store_data = true;
  ssd::Rais dev(rcfg);
  EngineConfig ec = DurableEngineConfig();
  Engine e(ec, &dev, &gen, nullptr);

  SimTime t = 0;
  for (u64 lba = 0; lba < 16; lba += 4) {
    ASSERT_TRUE(e.Write(t += kMillisecond, lba * kLogicalBlockSize,
                        4 * kLogicalBlockSize)
                    .ok());
  }
  // Arm a one-shot UCE on the member page backing lba 4's extent; the
  // array reconstructs it from parity and the engine's end-to-end extent
  // verification proves the rebuilt bytes are identical.
  auto g = e.map().Find(4);
  ASSERT_TRUE(g.has_value());
  Lba page = g->start_quantum / kQuantaPerBlock;
  ssd::Rais::Placement p = dev.Place(page);
  dev.member_for_test(p.data_disk).fault().ForceReadFaultOnce(p.disk_lba);

  auto r = e.Read(t += kMillisecond, 4 * kLogicalBlockSize,
                  kLogicalBlockSize);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(dev.reconstructed_reads(), 1u);
  EXPECT_EQ(e.stats().media_errors, 0u);
  auto got = e.ReadBlockData(4);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, e.ExpectedBlockData(4));
}

}  // namespace
}  // namespace edc::core
