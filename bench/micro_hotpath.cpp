// Micro-benchmark — the per-I/O hot-path primitives this repo's mapping
// and codec layers are built on:
//
//   * mapping lookup/churn: FlatIndex (open addressing, contiguous
//     slots) against the std::unordered_map it replaced, same keys, same
//     access sequence — plus the end-to-end BlockMap install/find/release
//     cycle;
//   * CRC-32 throughput: the slicing-by-8 kernel against a bytewise
//     single-table reference (compiled here, so the comparison survives
//     future changes to common/crc32.cpp);
//   * codec scratch arenas: per-call compress/decompress cost with a
//     reused codec::Scratch vs. the fresh-allocation path;
//   * SIMD backends: every compiled-in codec::Backend (scalar, and on
//     x86 sse42/avx2) measured kernel-by-kernel — match extension, LZ
//     copy, bit-pack flush, CRC-32 — plus whole-codec compress/decompress
//     with that backend forced active;
//   * content synthesis: ns per 4 KiB block per chunk kind, and for the
//     profile's own kind mix, for the fin and prxy profiles, plus the
//     generator's construction time (vocabulary and Zipf tables) — the
//     harness cost functional replays pay on their write path;
//   * observability overhead: the same functional-mode replay with no
//     observer, a metrics+trace observer, and the full continuous
//     telemetry stack (sampler + watchdog + flight recorder), so the
//     cost of leaving telemetry on is a tracked number
//     (docs/observability.md#continuous-telemetry).
//
//   $ ./micro_hotpath --json=BENCH_hotpath.json
//
// The committed baseline lives in BENCH_hotpath.json (refreshed by
// scripts/bench_baseline.sh; see docs/performance.md).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "codec/backend.hpp"
#include "codec/codec.hpp"
#include "codec/scratch.hpp"
#include "common/bitio.hpp"
#include "common/crc32.hpp"
#include "common/flat_index.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "datagen/generator.hpp"
#include "datagen/profile.hpp"
#include "edc/mapping.hpp"
#include "edc/shard.hpp"
#include "obs/observer.hpp"
#include "obs/watchdog.hpp"
#include "sim/replay.hpp"
#include "trace/synthetic.hpp"

using namespace edc;

namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double PerSec(std::size_t ops, double seconds) {
  return seconds <= 0 ? 0 : static_cast<double>(ops) / seconds;
}

double Mbps(std::size_t bytes, double seconds) {
  if (seconds <= 0) return 0;
  return static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds;
}

/// Bytewise single-table CRC-32 — the pre-slicing reference kernel, kept
/// here so the benchmark always compares against the same baseline.
u32 BytewiseCrc32(ByteSpan data, u32 seed = 0) {
  static const auto table = [] {
    std::array<u32, 256> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      }
      t[i] = c;
    }
    return t;
  }();
  u32 crc = ~seed;
  for (u8 b : data) crc = (crc >> 8) ^ table[(crc ^ b) & 0xFF];
  return ~crc;
}

struct MappingResult {
  double flat_lookups_per_sec = 0;
  double unordered_lookups_per_sec = 0;
  double lookup_speedup = 0;
  double flat_churn_per_sec = 0;
  double unordered_churn_per_sec = 0;
  double churn_speedup = 0;
  double blockmap_find_per_sec = 0;
  double blockmap_cycle_per_sec = 0;  // install + find + release
};

MappingResult BenchMapping(std::size_t n_keys, std::size_t lookups) {
  MappingResult r;
  // Round the key count down to a power of two so the chained-lookup key
  // derivation below is a mask, not a division (a division's ~25-cycle
  // latency would sit inside both serial chains and dilute the contrast).
  while ((n_keys & (n_keys - 1)) != 0) n_keys &= n_keys - 1;
  const u64 key_mask = n_keys - 1;

  // Key population shaped like the real index: dense LBAs. Both structures
  // are pre-sized, as the real BlockMap is (from the device capacity), so
  // everything measured below is steady-state behaviour.
  std::vector<u64> keys(n_keys);
  for (std::size_t i = 0; i < n_keys; ++i) keys[i] = i;
  std::vector<u64> probe(lookups);
  Pcg32 rng(20170529);
  for (std::size_t i = 0; i < lookups; ++i) {
    probe[i] = keys[rng.NextBounded(static_cast<u32>(n_keys))];
  }

  FlatIndex flat;
  flat.Reserve(n_keys);
  for (u64 k : keys) flat.Insert(k, k * 3);
  std::unordered_map<u64, u64> umap;
  umap.reserve(n_keys);
  for (u64 k : keys) umap.emplace(k, k * 3);

  // Steady-state churn: erase + reinsert in a hash-scattered order — the
  // overwrite pattern the mapping sees once the working set is resident.
  // FlatIndex recycles its slots in place; the node-based map pays a
  // delete/new pair per cycle. (Bulk-loading fresh keys is a one-off
  // construction event that Reserve already amortizes, so it is not the
  // number worth tracking.)
  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_keys; ++i) {
    u64 k = probe[i % lookups];
    flat.Erase(k);
    flat.Insert(k, k * 3);
  }
  r.flat_churn_per_sec = PerSec(n_keys, Seconds(t0));

  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_keys; ++i) {
    u64 k = probe[i % lookups];
    umap.erase(k);
    umap.emplace(k, k * 3);
  }
  r.unordered_churn_per_sec = PerSec(n_keys, Seconds(t0));

  // Lookups: a dependent chain — each fetched value derives the next key
  // (pure ALU, no shared memory traffic), mirroring the per-I/O path where
  // the mapping result decides what happens next. This measures the latency
  // a request actually pays; an independent-probe loop would instead
  // measure how many misses the out-of-order window can overlap, which
  // flatters the node-based map. Values are key*3, so both structures walk
  // the identical key sequence.
  u64 sink = 0;
  u64 k = 0;
  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < lookups; ++i) {
    const u64* v = flat.Find(k);
    sink += *v;
    k = Mix64(*v + i) & key_mask;
  }
  r.flat_lookups_per_sec = PerSec(lookups, Seconds(t0));

  k = 0;
  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < lookups; ++i) {
    auto it = umap.find(k);
    sink += it->second;
    k = Mix64(it->second + i) & key_mask;
  }
  r.unordered_lookups_per_sec = PerSec(lookups, Seconds(t0));
  if (sink == 0) std::puts("");  // keep `sink` observable

  r.lookup_speedup = r.flat_lookups_per_sec /
                     std::max(r.unordered_lookups_per_sec, 1e-9);
  r.churn_speedup = r.flat_churn_per_sec /
                     std::max(r.unordered_churn_per_sec, 1e-9);

  // End-to-end BlockMap: a steady-state working set being overwritten.
  const std::size_t working_set = 4096;
  core::BlockMap map(working_set * core::kQuantaPerBlock * 4);
  for (Lba lba = 0; lba < working_set; ++lba) {
    (void)map.Install(lba, 1, codec::CodecId::kLzf, 2048, 2);
  }
  t0 = std::chrono::steady_clock::now();
  std::size_t found = 0;
  for (std::size_t i = 0; i < lookups; ++i) {
    found += map.Find(probe[i] % working_set).has_value() ? 1u : 0u;
  }
  r.blockmap_find_per_sec = PerSec(lookups, Seconds(t0));

  const std::size_t cycles = 200000;
  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < cycles; ++i) {
    Lba lba = probe[i % lookups] % working_set;
    (void)map.Install(lba, 1, codec::CodecId::kLzf, 2048, 2);
    found += map.Find(lba).has_value() ? 1u : 0u;
    (void)map.Release(lba);
  }
  r.blockmap_cycle_per_sec = PerSec(cycles, Seconds(t0));
  if (found == 0) std::puts("");
  return r;
}

struct CrcResult {
  double slicing_mbps = 0;
  double bytewise_mbps = 0;
  double time_reduction_pct = 0;
  double short_slicing_mbps = 0;  // 12-byte buffers (fast-path check)
};

CrcResult BenchCrc(const Bytes& corpus) {
  CrcResult r;
  const int reps = 64;
  u32 sink = 0;

  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) sink ^= Crc32(corpus);
  r.slicing_mbps = Mbps(corpus.size() * static_cast<std::size_t>(reps),
                        Seconds(t0));

  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) sink ^= BytewiseCrc32(corpus);
  r.bytewise_mbps = Mbps(corpus.size() * static_cast<std::size_t>(reps),
                         Seconds(t0));

  // Short buffers take the bytewise fast path inside Crc32.
  const std::size_t short_len = 12;
  const std::size_t short_iters = 2000000;
  t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < short_iters; ++i) {
    sink ^= Crc32(ByteSpan(corpus.data() + (i % 1024), short_len));
  }
  r.short_slicing_mbps = Mbps(short_len * short_iters, Seconds(t0));
  if (sink == 0) std::puts("");

  // Time per byte is 1/throughput, so the fraction of CRC time removed is
  // 1 - (bytewise_mbps / slicing_mbps) inverted: 1 - slow/fast.
  r.time_reduction_pct =
      100.0 * (1.0 - r.bytewise_mbps / std::max(r.slicing_mbps, 1e-9));
  return r;
}

struct CodecScratchResult {
  std::string name;
  double fresh_comp_us = 0;
  double scratch_comp_us = 0;
  double comp_reduction_pct = 0;
  double fresh_decomp_us = 0;
  double scratch_decomp_us = 0;
  double decomp_reduction_pct = 0;
};

std::vector<CodecScratchResult> BenchScratch(
    const std::vector<Bytes>& blocks) {
  std::vector<CodecScratchResult> out;
  codec::Scratch scratch;
  for (codec::CodecId id : codec::AllCodecs()) {
    if (id == codec::CodecId::kStore) continue;
    const codec::Codec& c = codec::GetCodec(id);
    CodecScratchResult r;
    r.name = std::string(c.name());
    const int reps = id == codec::CodecId::kBzip2 ? 8 : 64;

    std::vector<Bytes> compressed(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      (void)c.Compress(blocks[i], &compressed[i]);
    }
    const std::size_t calls =
        blocks.size() * static_cast<std::size_t>(reps);

    auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      for (const Bytes& b : blocks) {
        Bytes o;
        (void)c.Compress(b, &o);
      }
    }
    r.fresh_comp_us = 1e6 * Seconds(t0) / static_cast<double>(calls);

    Bytes reused;
    t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      for (const Bytes& b : blocks) {
        reused.clear();
        (void)c.Compress(b, &reused, &scratch);
      }
    }
    r.scratch_comp_us = 1e6 * Seconds(t0) / static_cast<double>(calls);

    t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        Bytes o;
        (void)c.Decompress(compressed[i], blocks[i].size(), &o);
      }
    }
    r.fresh_decomp_us = 1e6 * Seconds(t0) / static_cast<double>(calls);

    t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        reused.clear();
        (void)c.Decompress(compressed[i], blocks[i].size(), &reused,
                           &scratch);
      }
    }
    r.scratch_decomp_us = 1e6 * Seconds(t0) / static_cast<double>(calls);

    r.comp_reduction_pct =
        100.0 * (1.0 - r.scratch_comp_us / std::max(r.fresh_comp_us, 1e-9));
    r.decomp_reduction_pct =
        100.0 *
        (1.0 - r.scratch_decomp_us / std::max(r.fresh_decomp_us, 1e-9));
    out.push_back(r);
  }
  return out;
}

struct BackendResult {
  std::string name;
  int tier = 0;
  double match_mbps = 0;    // match-length extension over matching runs
  double copy_mbps = 0;     // LZ copy, 64-byte distance (vector path)
  double pack_mbps = 0;     // Huffman bit-pack flush throughput
  double crc_mbps = 0;      // CRC-32 of the 8 MiB corpus
  double lzf_comp_us = 0;   // whole-codec cost with this backend forced
  double lzfast_comp_us = 0;
  double gzip_comp_us = 0;
  double gzip_decomp_us = 0;
};

std::vector<BackendResult> BenchBackends(const Bytes& corpus,
                                         const std::vector<Bytes>& blocks) {
  std::vector<BackendResult> out;
  codec::Scratch scratch;
  const std::size_t chunk = 4096;

  for (const codec::Backend* bk : codec::AvailableBackends()) {
    BackendResult r;
    r.name = bk->name;
    r.tier = bk->tier;
    std::size_t sink = 0;

    // Match extension: identical 4 KiB runs, so the kernel scans the full
    // limit every call. Cache-resident working set (2 x 64 KiB) — the
    // number measures the extension loop, not DRAM bandwidth.
    const std::size_t match_span = 64u << 10;
    const Bytes dup(corpus.begin(),
                    corpus.begin() + static_cast<std::ptrdiff_t>(match_span));
    const int match_reps = 1024;
    auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < match_reps; ++rep) {
      for (std::size_t off = 0; off + chunk <= match_span; off += chunk) {
        sink += bk->match_length(corpus.data() + off, dup.data() + off, chunk);
      }
    }
    r.match_mbps =
        Mbps(match_span * static_cast<std::size_t>(match_reps), Seconds(t0));

    // LZ copy: one long match at distance 64 filling a cache-resident
    // 64 KiB buffer — the non-overlapping vector path decoders hit on
    // repetitive data.
    Bytes buf(64u << 10);
    for (std::size_t i = 0; i < 64; ++i) buf[i] = static_cast<u8>(i * 37);
    const int copy_reps = 8192;
    t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < copy_reps; ++rep) {
      bk->lz_copy(buf.data() + 64, 64, buf.size() - 64);
    }
    r.copy_mbps = Mbps((buf.size() - 64) * static_cast<std::size_t>(copy_reps),
                       Seconds(t0));
    sink += buf[buf.size() - 1];

    // Bit-pack flush: 17-bit writes through a BitWriter wired to this
    // backend's flush kernel (the deflate/bzip2 encode inner loop).
    Bytes packed;
    const std::size_t pack_iters = 4u << 20;
    packed.reserve(pack_iters * 3);
    BitWriter bw(&packed, bk->pack_flush);
    t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < pack_iters; ++i) {
      bw.WriteBits(i & 0x1FFFF, 17);
    }
    bw.AlignToByte();
    r.pack_mbps = Mbps(packed.size(), Seconds(t0));
    sink += packed.size();

    // CRC-32 over the corpus.
    const int crc_reps = 32;
    u32 crc_sink = 0;
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < crc_reps; ++i) crc_sink ^= bk->crc32(corpus, 0);
    r.crc_mbps = Mbps(corpus.size() * static_cast<std::size_t>(crc_reps),
                      Seconds(t0));
    sink += crc_sink;

    // Whole-codec cost with this backend forced active (4 KiB blocks,
    // reused scratch — the steady-state write path).
    codec::SetActiveBackendForTesting(bk);
    auto comp_us = [&](codec::CodecId id, int reps) {
      const codec::Codec& c = codec::GetCodec(id);
      Bytes o;
      auto t = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) {
        for (const Bytes& b : blocks) {
          o.clear();
          (void)c.Compress(b, &o, &scratch);
        }
      }
      return 1e6 * Seconds(t) /
             static_cast<double>(blocks.size() * static_cast<std::size_t>(reps));
    };
    r.lzf_comp_us = comp_us(codec::CodecId::kLzf, 64);
    r.lzfast_comp_us = comp_us(codec::CodecId::kLzFast, 64);
    r.gzip_comp_us = comp_us(codec::CodecId::kGzip, 16);
    {
      const codec::Codec& c = codec::GetCodec(codec::CodecId::kGzip);
      std::vector<Bytes> compressed(blocks.size());
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        (void)c.Compress(blocks[i], &compressed[i], &scratch);
      }
      Bytes o;
      const int reps = 16;
      t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          o.clear();
          (void)c.Decompress(compressed[i], blocks[i].size(), &o, &scratch);
        }
      }
      r.gzip_decomp_us =
          1e6 * Seconds(t0) /
          static_cast<double>(blocks.size() * static_cast<std::size_t>(reps));
    }
    codec::SetActiveBackendForTesting(nullptr);

    if (sink == 0) std::puts("");
    out.push_back(r);
  }
  return out;
}

struct DatagenResult {
  std::string profile;
  double construct_ms = 0;  // ContentGenerator constructor, median
  std::array<double, datagen::kNumChunkKinds> kind_ns{};  // per 4 KiB block
  double mix_ns = 0;  // consecutive LBAs: the profile's own kind mix
};

std::string KindName(std::size_t k) {
  return std::string(
      datagen::ChunkKindName(static_cast<datagen::ChunkKind>(k)));
}

// Median ns per 4 KiB GenerateInto over `lbas` (versions 1..), 5 passes.
double GenerateNsPerBlock(const datagen::ContentGenerator& gen,
                          const std::vector<Lba>& lbas) {
  if (lbas.empty()) return 0;
  Bytes block(kLogicalBlockSize);
  std::vector<double> passes;
  for (u64 pass = 0; pass < 5; ++pass) {
    auto t0 = std::chrono::steady_clock::now();
    for (Lba lba : lbas) gen.GenerateInto(lba, pass + 1, block);
    passes.push_back(Seconds(t0) * 1e9 / static_cast<double>(lbas.size()));
  }
  std::sort(passes.begin(), passes.end());
  return passes[passes.size() / 2];
}

DatagenResult BenchDatagen(const std::string& profile_name, u64 seed) {
  DatagenResult r;
  r.profile = profile_name;
  auto profile = datagen::ProfileByName(profile_name);
  if (!profile.ok()) return r;
  std::vector<double> builds;
  for (int i = 0; i < 5; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    datagen::ContentGenerator probe(*profile, seed + static_cast<u64>(i));
    builds.push_back(Seconds(t0) * 1e3);
  }
  std::sort(builds.begin(), builds.end());
  r.construct_ms = builds[builds.size() / 2];

  const datagen::ContentGenerator gen(*profile, seed);
  constexpr std::size_t kBlocksPerKind = 1000;
  std::array<std::vector<Lba>, datagen::kNumChunkKinds> by_kind;
  std::vector<Lba> mix;
  for (Lba lba = 0; lba < 200000; ++lba) {
    auto& v = by_kind[static_cast<std::size_t>(gen.KindForLba(lba))];
    if (v.size() < kBlocksPerKind) v.push_back(lba);
    if (mix.size() < kBlocksPerKind) mix.push_back(lba);
  }
  for (std::size_t k = 0; k < datagen::kNumChunkKinds; ++k) {
    r.kind_ns[k] = GenerateNsPerBlock(gen, by_kind[k]);
  }
  r.mix_ns = GenerateNsPerBlock(gen, mix);
  return r;
}

struct ObsOverheadResult {
  std::size_t requests = 0;       // per measured replay
  double off_req_per_sec = 0;     // no observer attached
  double obs_req_per_sec = 0;     // metrics + trace observer
  double full_req_per_sec = 0;    // + sampler, watchdog, flight recorder
  double obs_overhead_pct = 0;    // wall-time increase vs. observer off
  double full_overhead_pct = 0;
};

// Replays one functional-mode trace three times — observer off, the
// always-on metrics+trace observer, and the full continuous-telemetry
// stack — and reports host-request throughput for each. The interesting
// number is the overhead of the *sampler cadence* (every completed
// window snapshots the whole registry), which is why the period here is
// 10 ms, 10x denser than the trace_replay default.
ObsOverheadResult BenchObs(u64 seed) {
  ObsOverheadResult r;
  auto params = trace::PresetByName("Fin2", 4.0);
  if (!params.ok()) return r;
  params->working_set_blocks = 4000;  // overwrites + reads of old data
  const trace::Trace t = trace::GenerateSynthetic(*params, seed);

  core::StackConfig base;
  base.scheme = core::Scheme::kEdc;
  base.mode = core::ExecutionMode::kFunctional;
  base.content_profile = "fin";
  base.seed = seed;
  base.ssd.geometry.pages_per_block = 32;
  base.ssd.geometry.num_blocks = 2048;  // 256 MiB
  base.ssd.store_data = false;

  auto run = [&](obs::Observer* observer) -> double {
    core::StackConfig cfg = base;
    cfg.obs = observer;
    auto stack = core::Stack::Create(cfg);
    if (!stack.ok()) {
      std::fprintf(stderr, "obs bench: %s\n",
                   stack.status().ToString().c_str());
      return 0;
    }
    auto t0 = std::chrono::steady_clock::now();
    auto result = sim::ReplayTrace(**stack, t);
    const double elapsed = Seconds(t0);
    if (!result.ok()) {
      std::fprintf(stderr, "obs bench: %s\n",
                   result.status().ToString().c_str());
      return 0;
    }
    r.requests = result->requests;
    return PerSec(result->requests, elapsed);
  };

  (void)run(nullptr);  // warm-up: page in the codec tables and allocator
  r.off_req_per_sec = run(nullptr);
  {
    obs::Observer observer;
    r.obs_req_per_sec = run(&observer);
  }
  {
    obs::Observer::Options oo;
    oo.sampler = true;
    oo.sample_period = 10 * kMillisecond;
    oo.flight_recorder = true;
    oo.health_rules = obs::DefaultHealthRules();
    obs::Observer observer(oo);
    if (observer.ok()) r.full_req_per_sec = run(&observer);
  }
  r.obs_overhead_pct =
      100.0 * (r.off_req_per_sec / std::max(r.obs_req_per_sec, 1e-9) - 1.0);
  r.full_overhead_pct =
      100.0 * (r.off_req_per_sec / std::max(r.full_req_per_sec, 1e-9) - 1.0);
  return r;
}

struct ShardScalingRow {
  u32 shards = 0;
  double makespan_ms = 0;   // simulated; max completion incl. final flush
  double sim_write_mbps = 0;
  double speedup = 0;  // vs. the shards=1 row
};

struct ShardScalingResult {
  u64 requests = 0;
  u64 write_bytes = 0;
  double direct_sim_mbps = 0;  // plain Stack, no sharded fabric
  std::vector<ShardScalingRow> rows;
};

// Aggregate write throughput of the sharded engine on a closed-loop
// fill_random workload: every request arrives at t=0, so each shard's
// device serializes its share (SSD admission is start = max(arrival,
// busy_until)) and the *simulated* makespan — max completion over all
// requests and the final merge-buffer flush — shrinks as shards are
// added. Throughput is logical bytes over simulated makespan, which is
// the honest number on a 1-CPU box: the shard run-loops interleave on
// real cores, but the simulated devices genuinely run in parallel.
// The direct row replays the same ops against a plain Stack engine; the
// shards=1 row must stay within a few percent of it (the fabric tax).
ShardScalingResult BenchShardScaling(u64 seed) {
  ShardScalingResult out;
  const u64 n_ops = 4000;
  const Lba lba_space = 8192;  // 32 MiB working set, ~2 overwrite laps
  const u32 op_blocks = 4;     // 16 KiB requests

  struct WriteOp {
    Lba first;
    u32 n_blocks;
  };
  Pcg32 rng(seed, /*stream=*/0xF111);
  std::vector<WriteOp> ops;
  ops.reserve(n_ops);
  for (u64 i = 0; i < n_ops; ++i) {
    WriteOp op;
    op.n_blocks = 1 + rng.NextBounded(op_blocks);
    op.first = rng.NextBounded(
        static_cast<u32>(lba_space - op.n_blocks + 1));
    ops.push_back(op);
    out.write_bytes += op.n_blocks * kLogicalBlockSize;
  }
  out.requests = n_ops;

  core::StackConfig cfg;
  cfg.mode = core::ExecutionMode::kFunctional;
  cfg.content_profile = "fin";
  cfg.seed = seed;
  cfg.ssd.geometry.pages_per_block = 32;
  cfg.ssd.geometry.num_blocks = 2048;  // 256 MiB raw, split across shards
  cfg.ssd.store_data = false;

  auto mbps_of = [&](SimTime makespan) {
    return makespan == 0 ? 0.0
                         : static_cast<double>(out.write_bytes) /
                               (1024.0 * 1024.0) /
                               (static_cast<double>(makespan) /
                                static_cast<double>(kSecond));
  };

  // Direct baseline: the same ops straight into a plain Stack engine.
  {
    auto stack = core::Stack::Create(cfg);
    if (!stack.ok()) {
      std::fprintf(stderr, "shard bench: %s\n",
                   stack.status().ToString().c_str());
      return out;
    }
    SimTime makespan = 0;
    for (const WriteOp& op : ops) {
      auto done = (**stack).engine().Write(
          0, op.first * kLogicalBlockSize,
          op.n_blocks * static_cast<u32>(kLogicalBlockSize));
      if (done.ok()) makespan = std::max(makespan, *done);
    }
    auto flushed = (**stack).engine().FlushPending(makespan);
    if (flushed.ok()) makespan = std::max(makespan, *flushed);
    out.direct_sim_mbps = mbps_of(makespan);
  }

  for (u32 shards : {1u, 2u, 4u, 8u}) {
    shard::ShardedOptions so;
    so.shards = shards;
    auto se = shard::ShardedEngine::Create(so, cfg);
    if (!se.ok()) {
      std::fprintf(stderr, "shard bench: %s\n",
                   se.status().ToString().c_str());
      return out;
    }
    SimTime makespan = 0;
    (**se).SetCompletionCallback([&](const shard::Completion& c) {
      if (c.status.ok()) makespan = std::max(makespan, c.completion);
    });
    if (!(**se).StartRunLoops().ok()) return out;
    for (const WriteOp& op : ops) {
      shard::Request req;
      req.kind = shard::OpKind::kWrite;
      req.arrival = 0;
      req.offset = op.first * kLogicalBlockSize;
      req.size = op.n_blocks * static_cast<u32>(kLogicalBlockSize);
      (void)(**se).Submit(req);
    }
    (void)(**se).Drain();
    (void)(**se).StopRunLoops();
    auto flushed = (**se).FlushAllPending(makespan);
    if (flushed.ok()) makespan = std::max(makespan, *flushed);

    ShardScalingRow row;
    row.shards = shards;
    row.makespan_ms =
        static_cast<double>(makespan) / static_cast<double>(kMillisecond);
    row.sim_write_mbps = mbps_of(makespan);
    out.rows.push_back(row);
  }
  const double base = out.rows.empty() ? 0 : out.rows[0].sim_write_mbps;
  for (ShardScalingRow& row : out.rows) {
    row.speedup = base <= 0 ? 0 : row.sim_write_mbps / base;
  }
  return out;
}

void WriteJson(const std::string& path, const MappingResult& m,
               const CrcResult& crc,
               const std::vector<CodecScratchResult>& codecs,
               const std::vector<BackendResult>& backends,
               const ObsOverheadResult& obs,
               const ShardScalingResult& sharding,
               const std::vector<DatagenResult>& datagen_rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"mapping\": {\n");
  std::fprintf(f, "    \"flat_lookups_per_sec\": %.0f,\n",
               m.flat_lookups_per_sec);
  std::fprintf(f, "    \"unordered_lookups_per_sec\": %.0f,\n",
               m.unordered_lookups_per_sec);
  std::fprintf(f, "    \"lookup_speedup\": %.2f,\n", m.lookup_speedup);
  std::fprintf(f, "    \"flat_churn_per_sec\": %.0f,\n",
               m.flat_churn_per_sec);
  std::fprintf(f, "    \"unordered_churn_per_sec\": %.0f,\n",
               m.unordered_churn_per_sec);
  std::fprintf(f, "    \"churn_speedup\": %.2f,\n", m.churn_speedup);
  std::fprintf(f, "    \"blockmap_find_per_sec\": %.0f,\n",
               m.blockmap_find_per_sec);
  std::fprintf(f, "    \"blockmap_install_find_release_per_sec\": %.0f\n",
               m.blockmap_cycle_per_sec);
  std::fprintf(f, "  },\n  \"crc32\": {\n");
  std::fprintf(f, "    \"slicing_by_8_mbps\": %.1f,\n", crc.slicing_mbps);
  std::fprintf(f, "    \"bytewise_mbps\": %.1f,\n", crc.bytewise_mbps);
  std::fprintf(f, "    \"time_reduction_pct\": %.1f,\n",
               crc.time_reduction_pct);
  std::fprintf(f, "    \"short_buffer_mbps\": %.1f\n",
               crc.short_slicing_mbps);
  std::fprintf(f, "  },\n  \"codec_scratch\": [\n");
  for (std::size_t i = 0; i < codecs.size(); ++i) {
    const CodecScratchResult& r = codecs[i];
    std::fprintf(
        f,
        "    {\"codec\": \"%s\", \"fresh_comp_us\": %.2f, "
        "\"scratch_comp_us\": %.2f, \"comp_reduction_pct\": %.1f, "
        "\"fresh_decomp_us\": %.2f, \"scratch_decomp_us\": %.2f, "
        "\"decomp_reduction_pct\": %.1f}%s\n",
        r.name.c_str(), r.fresh_comp_us, r.scratch_comp_us,
        r.comp_reduction_pct, r.fresh_decomp_us, r.scratch_decomp_us,
        r.decomp_reduction_pct, i + 1 < codecs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"backends\": [\n");
  for (std::size_t i = 0; i < backends.size(); ++i) {
    const BackendResult& r = backends[i];
    std::fprintf(
        f,
        "    {\"backend\": \"%s\", \"tier\": %d, "
        "\"match_length_mbps\": %.0f, \"lz_copy_mbps\": %.0f, "
        "\"pack_flush_mbps\": %.0f, \"crc32_mbps\": %.0f, "
        "\"lzf_comp_us\": %.2f, \"lzfast_comp_us\": %.2f, "
        "\"gzip_comp_us\": %.2f, \"gzip_decomp_us\": %.2f}%s\n",
        r.name.c_str(), r.tier, r.match_mbps, r.copy_mbps, r.pack_mbps,
        r.crc_mbps, r.lzf_comp_us, r.lzfast_comp_us, r.gzip_comp_us,
        r.gzip_decomp_us, i + 1 < backends.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"obs\": {\n");
  std::fprintf(f, "    \"replay_requests\": %zu,\n", obs.requests);
  std::fprintf(f, "    \"observer_off_req_per_sec\": %.0f,\n",
               obs.off_req_per_sec);
  std::fprintf(f, "    \"observer_on_req_per_sec\": %.0f,\n",
               obs.obs_req_per_sec);
  std::fprintf(f, "    \"full_telemetry_req_per_sec\": %.0f,\n",
               obs.full_req_per_sec);
  std::fprintf(f, "    \"observer_overhead_pct\": %.1f,\n",
               obs.obs_overhead_pct);
  std::fprintf(f, "    \"full_telemetry_overhead_pct\": %.1f\n",
               obs.full_overhead_pct);
  std::fprintf(f, "  },\n  \"shard_scaling\": {\n");
  std::fprintf(f, "    \"workload\": \"fill_random\",\n");
  std::fprintf(f, "    \"requests\": %llu,\n",
               static_cast<unsigned long long>(sharding.requests));
  std::fprintf(f, "    \"write_bytes\": %llu,\n",
               static_cast<unsigned long long>(sharding.write_bytes));
  std::fprintf(f, "    \"direct_sim_write_mbps\": %.1f,\n",
               sharding.direct_sim_mbps);
  std::fprintf(f, "    \"rows\": [\n");
  for (std::size_t i = 0; i < sharding.rows.size(); ++i) {
    const ShardScalingRow& r = sharding.rows[i];
    std::fprintf(f,
                 "      {\"shards\": %u, \"sim_makespan_ms\": %.2f, "
                 "\"sim_write_mbps\": %.1f, \"speedup\": %.2f}%s\n",
                 r.shards, r.makespan_ms, r.sim_write_mbps, r.speedup,
                 i + 1 < sharding.rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n  \"datagen\": [\n");
  for (std::size_t i = 0; i < datagen_rows.size(); ++i) {
    const DatagenResult& r = datagen_rows[i];
    std::fprintf(f, "    {\"profile\": \"%s\", \"construct_ms\": %.3f",
                 r.profile.c_str(), r.construct_ms);
    for (std::size_t k = 0; k < datagen::kNumChunkKinds; ++k) {
      std::fprintf(f, ", \"%s_ns_per_block\": %.0f", KindName(k).c_str(),
                   r.kind_ns[k]);
    }
    std::fprintf(f, ", \"mix_ns_per_block\": %.0f}%s\n", r.mix_ns,
                 i + 1 < datagen_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[bench] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::ParseArgs(argc, argv);
  std::size_t n_keys = 1u << 20;
  std::size_t lookups = 4u << 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--keys=", 7) == 0) {
      n_keys = static_cast<std::size_t>(std::atoll(argv[i] + 7));
    }
  }

  std::printf("Hot-path micro benchmark — %zu index keys, %zu lookups\n",
              n_keys, lookups);

  MappingResult m = BenchMapping(n_keys, lookups);
  TextTable map_table({"structure", "lookups/s", "churn/s"});
  map_table.AddRow({"FlatIndex", TextTable::Num(m.flat_lookups_per_sec, 0),
                    TextTable::Num(m.flat_churn_per_sec, 0)});
  map_table.AddRow({"unordered_map",
                    TextTable::Num(m.unordered_lookups_per_sec, 0),
                    TextTable::Num(m.unordered_churn_per_sec, 0)});
  map_table.AddRow({"speedup", TextTable::Num(m.lookup_speedup, 2),
                    TextTable::Num(m.churn_speedup, 2)});
  std::fputs(map_table.ToString().c_str(), stdout);
  std::printf("BlockMap: %.0f finds/s, %.0f install+find+release cycles/s\n",
              m.blockmap_find_per_sec, m.blockmap_cycle_per_sec);

  std::vector<DatagenResult> datagen_rows;
  std::vector<std::string> datagen_header = {"profile", "construct ms"};
  for (std::size_t k = 0; k < datagen::kNumChunkKinds; ++k) {
    datagen_header.push_back(KindName(k) + " ns");
  }
  datagen_header.push_back("mix ns");
  TextTable datagen_table(datagen_header);
  for (const char* name : {"fin", "prxy"}) {
    datagen_rows.push_back(BenchDatagen(name, opt.seed));
    const DatagenResult& r = datagen_rows.back();
    std::vector<std::string> row = {r.profile,
                                    TextTable::Num(r.construct_ms, 3)};
    for (double ns : r.kind_ns) row.push_back(TextTable::Num(ns, 0));
    row.push_back(TextTable::Num(r.mix_ns, 0));
    datagen_table.AddRow(row);
  }
  std::printf("\nContent synthesis (ns per 4 KiB block, median of 5 passes "
              "over 1000 blocks)\n%s",
              datagen_table.ToString().c_str());

  auto profile = datagen::ProfileByName("fin");
  if (!profile.ok()) {
    std::fprintf(stderr, "error: %s\n", profile.status().ToString().c_str());
    return 1;
  }
  const Bytes corpus =
      datagen::ContentGenerator(*profile, opt.seed)
          .GenerateCorpus(8u << 20, 4096);

  CrcResult crc = BenchCrc(corpus);
  std::printf("\nCRC-32: slicing-by-8 %.1f MB/s, bytewise %.1f MB/s "
              "(%.1f%% less time/byte), short-buffer %.1f MB/s\n",
              crc.slicing_mbps, crc.bytewise_mbps, crc.time_reduction_pct,
              crc.short_slicing_mbps);

  std::vector<Bytes> blocks;
  for (std::size_t off = 0; off + 4096 <= corpus.size() && blocks.size() < 64;
       off += 4096) {
    blocks.emplace_back(corpus.begin() + static_cast<std::ptrdiff_t>(off),
                        corpus.begin() + static_cast<std::ptrdiff_t>(off) +
                            4096);
  }
  std::vector<CodecScratchResult> codecs = BenchScratch(blocks);
  TextTable codec_table({"codec", "comp us (fresh)", "comp us (scratch)",
                         "comp saved %", "decomp us (fresh)",
                         "decomp us (scratch)", "decomp saved %"});
  for (const CodecScratchResult& r : codecs) {
    codec_table.AddRow({r.name, TextTable::Num(r.fresh_comp_us, 2),
                        TextTable::Num(r.scratch_comp_us, 2),
                        TextTable::Num(r.comp_reduction_pct, 1),
                        TextTable::Num(r.fresh_decomp_us, 2),
                        TextTable::Num(r.scratch_decomp_us, 2),
                        TextTable::Num(r.decomp_reduction_pct, 1)});
  }
  std::printf("\n%s", codec_table.ToString().c_str());

  std::vector<BackendResult> backends = BenchBackends(corpus, blocks);
  TextTable bk_table({"backend", "match MB/s", "copy MB/s", "pack MB/s",
                      "crc32 MB/s", "lzf us", "lzfast us", "gzip us",
                      "gunzip us"});
  for (const BackendResult& r : backends) {
    bk_table.AddRow({r.name, TextTable::Num(r.match_mbps, 0),
                     TextTable::Num(r.copy_mbps, 0),
                     TextTable::Num(r.pack_mbps, 0),
                     TextTable::Num(r.crc_mbps, 0),
                     TextTable::Num(r.lzf_comp_us, 2),
                     TextTable::Num(r.lzfast_comp_us, 2),
                     TextTable::Num(r.gzip_comp_us, 2),
                     TextTable::Num(r.gzip_decomp_us, 2)});
  }
  std::printf("\nSIMD backends (active: %s)\n%s",
              codec::ActiveBackend().name, bk_table.ToString().c_str());

  ObsOverheadResult obs = BenchObs(opt.seed);
  TextTable obs_table({"observer", "req/s", "overhead %"});
  obs_table.AddRow({"off", TextTable::Num(obs.off_req_per_sec, 0), "-"});
  obs_table.AddRow({"metrics+trace", TextTable::Num(obs.obs_req_per_sec, 0),
                    TextTable::Num(obs.obs_overhead_pct, 1)});
  obs_table.AddRow({"full telemetry", TextTable::Num(obs.full_req_per_sec, 0),
                    TextTable::Num(obs.full_overhead_pct, 1)});
  std::printf("\nObservability overhead (functional replay, %zu requests, "
              "10 ms sampler)\n%s",
              obs.requests, obs_table.ToString().c_str());

  ShardScalingResult sharding = BenchShardScaling(opt.seed);
  TextTable shard_table({"shards", "sim makespan ms", "sim MB/s", "speedup"});
  for (const ShardScalingRow& r : sharding.rows) {
    shard_table.AddRow({TextTable::Num(r.shards, 0),
                        TextTable::Num(r.makespan_ms, 2),
                        TextTable::Num(r.sim_write_mbps, 1),
                        TextTable::Num(r.speedup, 2)});
  }
  std::printf("\nShard scaling (fill_random, closed loop, %llu writes, "
              "direct baseline %.1f sim MB/s)\n%s",
              static_cast<unsigned long long>(sharding.requests),
              sharding.direct_sim_mbps, shard_table.ToString().c_str());

  if (!opt.json_path.empty()) {
    WriteJson(opt.json_path, m, crc, codecs, backends, obs, sharding,
              datagen_rows);
  }
  return 0;
}
