// The contract of functional-mode codec offload (EngineConfig::
// compress_pool): real codec work moves onto worker threads, but every
// simulated observable — latencies, stats, mapping, stored payloads —
// stays byte-identical to the serial seed path, for any thread count.
// These tests replay the same trace through stacks that differ only in
// the attached pool (none / 1 thread / 8 threads) and require exact
// equality, down to the mapping table and every stored frame. Run under
// TSan (see
// docs/testing.md) this is also the data-race canary for the offload.
#include <gtest/gtest.h>

#include "common/worker_pool.hpp"
#include "sim/replay.hpp"
#include "trace/synthetic.hpp"

namespace edc::sim {
namespace {

using core::ExecutionMode;
using core::Scheme;
using core::Stack;
using core::StackConfig;

StackConfig PoolConfig(Scheme scheme, WorkerPool* pool) {
  StackConfig cfg;
  cfg.scheme = scheme;
  cfg.mode = ExecutionMode::kFunctional;
  cfg.content_profile = "fin";
  cfg.seed = 77;
  cfg.cpu_contexts = 4;  // same simulated parallelism in every variant
  cfg.compress_pool = pool;
  cfg.ssd.geometry.pages_per_block = 32;
  cfg.ssd.geometry.num_blocks = 2048;
  cfg.ssd.store_data = false;
  return cfg;
}

// A trace whose writes regularly exceed the sequentiality detector's
// 16-block merge window (64 KiB), so single Write() calls seal several
// runs at once — the case the batched pool path overlaps.
trace::Trace MultiRunTrace() {
  auto p = trace::PresetByName("Fin1", 2.0);
  EXPECT_TRUE(p.ok());
  p->working_set_blocks = 4000;
  p->size_pages_mu = 2.0;    // median ~7 pages ...
  p->size_pages_sigma = 1.0;  // ... with a heavy tail past 16 blocks
  p->max_pages = 64;          // up to 256 KiB per request
  p->seq_fraction = 0.5;
  return GenerateSynthetic(*p, 11);
}

void ExpectSameStats(const RunningStats& a, const RunningStats& b,
                     const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.sum(), b.sum()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void ExpectIdentical(const ReplayResult& a, const ReplayResult& b,
                     const char* what) {
  EXPECT_EQ(a.requests, b.requests) << what;
  ExpectSameStats(a.response_us, b.response_us, what);
  EXPECT_EQ(a.compression_ratio, b.compression_ratio) << what;
  EXPECT_EQ(a.p50_us, b.p50_us) << what;
  EXPECT_EQ(a.p99_us, b.p99_us) << what;

  const core::EngineStats& ea = a.engine;
  const core::EngineStats& eb = b.engine;
  EXPECT_EQ(ea.host_writes, eb.host_writes) << what;
  EXPECT_EQ(ea.host_reads, eb.host_reads) << what;
  EXPECT_EQ(ea.logical_bytes_written, eb.logical_bytes_written) << what;
  EXPECT_EQ(ea.groups_written, eb.groups_written) << what;
  EXPECT_EQ(ea.merged_blocks, eb.merged_blocks) << what;
  EXPECT_EQ(ea.blocks_skipped_content, eb.blocks_skipped_content) << what;
  EXPECT_EQ(ea.blocks_skipped_intensity, eb.blocks_skipped_intensity)
      << what;
  EXPECT_EQ(ea.groups_by_codec, eb.groups_by_codec) << what;
  EXPECT_EQ(ea.compressed_bytes_total, eb.compressed_bytes_total) << what;
  EXPECT_EQ(ea.allocated_bytes_total, eb.allocated_bytes_total) << what;
  EXPECT_EQ(ea.cpu_busy_time, eb.cpu_busy_time) << what;
  ExpectSameStats(ea.write_latency_us, eb.write_latency_us, what);
  ExpectSameStats(ea.read_latency_us, eb.read_latency_us, what);
}

// Everything the engine persists must be equal: the mapping table, the
// version oracle (seen through the expected content of every written
// block) and every stored compressed frame, by group id.
void ExpectSameStoredState(core::Engine& a, core::Engine& b,
                           const trace::Trace& t, const char* what) {
  EXPECT_EQ(a.map().Serialize(), b.map().Serialize()) << what;
  for (const auto& r : t.records) {
    if (r.op != trace::OpType::kWrite) continue;
    for (u64 i = 0; i < r.block_count(); ++i) {
      Lba block = r.first_block() + i;
      ASSERT_EQ(a.ExpectedBlockData(block), b.ExpectedBlockData(block))
          << what << ": block " << block;
    }
  }
  EXPECT_EQ(*a.MutablePayloadsForTest(), *b.MutablePayloadsForTest())
      << what;
}

void RunDeterminismCheck(Scheme scheme) {
  const trace::Trace t = MultiRunTrace();
  ASSERT_GT(t.records.size(), 200u);

  WorkerPool pool1(1);
  WorkerPool pool8(8);
  struct Variant {
    const char* name;
    WorkerPool* pool;
  };
  const Variant variants[] = {
      {"serial", nullptr}, {"pool1", &pool1}, {"pool8", &pool8}};

  std::vector<ReplayResult> results;
  std::vector<std::unique_ptr<Stack>> stacks;
  for (const Variant& v : variants) {
    auto stack = Stack::Create(PoolConfig(scheme, v.pool));
    ASSERT_TRUE(stack.ok()) << v.name << ": " << stack.status().ToString();
    auto result = ReplayTrace(**stack, t);
    ASSERT_TRUE(result.ok()) << v.name << ": "
                             << result.status().ToString();
    results.push_back(std::move(*result));
    stacks.push_back(std::move(*stack));
  }

  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE(variants[i].name);
    ExpectIdentical(results[0], results[i], variants[i].name);
    // Equality here means the pool changed nothing the engine persists.
    ExpectSameStoredState(stacks[0]->engine(), stacks[i]->engine(), t,
                          variants[i].name);
  }

  // Spot-check reads straight through the pooled stack too.
  core::Engine& serial = stacks[0]->engine();
  core::Engine& pooled = stacks[2]->engine();
  int checked = 0;
  for (const auto& r : t.records) {
    if (r.op != trace::OpType::kWrite || ++checked > 100) continue;
    Lba b = r.first_block();
    auto got_serial = serial.ReadBlockData(b);
    auto got_pooled = pooled.ReadBlockData(b);
    ASSERT_TRUE(got_serial.ok());
    ASSERT_TRUE(got_pooled.ok());
    ASSERT_EQ(*got_serial, *got_pooled) << "block " << b;
  }
}

TEST(ParallelDeterminism, EdcIdenticalAcrossPoolSizes) {
  RunDeterminismCheck(Scheme::kEdc);
}

TEST(ParallelDeterminism, GzipIdenticalAcrossPoolSizes) {
  RunDeterminismCheck(Scheme::kGzip);
}

TEST(ParallelDeterminism, LzfIdenticalAcrossPoolSizes) {
  RunDeterminismCheck(Scheme::kLzf);
}

// With backlog feedback enabled, EDC policy decisions depend on installs,
// so the engine must fall back to the one-at-a-time pool path — and stay
// exactly deterministic doing it.
TEST(ParallelDeterminism, EdcBacklogFeedbackStaysSerialAndIdentical) {
  const trace::Trace t = MultiRunTrace();
  WorkerPool pool8(8);

  StackConfig serial_cfg = PoolConfig(Scheme::kEdc, nullptr);
  serial_cfg.elastic.backlog_saturate = 2'000'000;  // 2 ms
  StackConfig pooled_cfg = PoolConfig(Scheme::kEdc, &pool8);
  pooled_cfg.elastic.backlog_saturate = 2'000'000;

  auto a = Stack::Create(serial_cfg);
  auto b = Stack::Create(pooled_cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ra = ReplayTrace(**a, t);
  auto rb = ReplayTrace(**b, t);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ExpectIdentical(*ra, *rb, "backlog-feedback");
  ExpectSameStoredState((*a)->engine(), (*b)->engine(), t,
                        "backlog-feedback");
}

}  // namespace
}  // namespace edc::sim
