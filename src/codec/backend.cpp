#include "codec/backend.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "codec/backend_x86.hpp"
#include "codec/match.hpp"
#include "common/cpu.hpp"
#include "common/crc32.hpp"
#include "common/sync.hpp"

namespace edc::codec {
namespace {

// ---------------------------------------------------------------------
// Scalar kernels — byte-for-byte the behaviour the codecs had before the
// kernel table existed. The scalar backend is the reference every other
// backend is property-tested against.

std::size_t ScalarMatchLength(const u8* a, const u8* b, std::size_t limit) {
  return MatchLength(a, b, limit);
}

// Two-byte probe at [best_len - 1, best_len]: a strictly longer match
// must agree on byte best_len (and all before it), so equality here is a
// necessary condition — exactly the reject ChainMatcher always used.
bool ScalarChainProbe(const u8* cand, const u8* pos, std::size_t best_len) {
  return Read16(cand + best_len - 1) == Read16(pos + best_len - 1);
}

// Four-byte probe at [best_len - 3, best_len] once enough bytes exist:
// still only necessary-condition bytes, so it prunes more chain
// candidates without ever skipping a winning one. Plain memcpy loads —
// the "wide" part is the stronger reject, not the instruction set — so
// the SIMD backends share this one implementation.
bool WideChainProbe(const u8* cand, const u8* pos, std::size_t best_len) {
  if (best_len >= 3) {
    u32 ca, cb;
    std::memcpy(&ca, cand + best_len - 3, sizeof(u32));
    std::memcpy(&cb, pos + best_len - 3, sizeof(u32));
    return ca == cb;
  }
  return Read16(cand + best_len - 1) == Read16(pos + best_len - 1);
}

// The push_back-per-byte copy every decoder used.
void ScalarLzCopy(u8* dst, std::size_t dist, std::size_t len) {
  const u8* src = dst - dist;
  for (std::size_t i = 0; i < len; ++i) dst[i] = src[i];
}

// The per-byte flush loop BitWriter defaults to.
void ScalarPackFlush(Bytes* out, u64 word, unsigned nbytes) {
  for (unsigned i = 0; i < nbytes; ++i) {
    out->push_back(static_cast<u8>(word & 0xFF));
    word >>= 8;
  }
}

// Word-at-a-time flush: one resize + one store instead of up to eight
// push_backs. Identical byte stream; endian-safe (explicit LSB-first
// staging that the compiler folds into a single store on little-endian).
// Lives here — not in the SIMD TUs — because it instantiates
// std::vector<u8>::resize, which must stay at the baseline ISA.
void WordPackFlush(Bytes* out, u64 word, unsigned nbytes) {
  u8 staged[8];
  for (unsigned i = 0; i < 8; ++i) {
    staged[i] = static_cast<u8>(word >> (8 * i));
  }
  const std::size_t sz = out->size();
  out->resize(sz + nbytes);
  std::memcpy(out->data() + sz, staged, nbytes);
}

constexpr Backend kScalarBackend = {
    "scalar",
    0,
    &ScalarMatchLength,
    &ScalarChainProbe,
    &ScalarLzCopy,
    &ScalarPackFlush,
    &Crc32Scalar,
};

#if defined(EDC_HAVE_X86_SIMD)
const Backend kSse42Backend = {
    "sse42",
    1,
    &x86::MatchLengthSse2,
    &WideChainProbe,
    &x86::LzCopySse2,
    &WordPackFlush,
    &Crc32Hw,  // falls back to scalar internally if PCLMUL is absent
};

const Backend kAvx2Backend = {
    "avx2",
    2,
    &x86::MatchLengthAvx2,
    &WideChainProbe,
    &x86::LzCopyAvx2,
    &WordPackFlush,
    &Crc32Hw,
};
#endif

std::vector<const Backend*> BuildRegistry() {
  std::vector<const Backend*> backends{&kScalarBackend};
#if defined(EDC_HAVE_X86_SIMD)
  const CpuFeatures& f = DetectCpuFeatures();
  if (f.sse42) backends.push_back(&kSse42Backend);
  if (f.avx2) backends.push_back(&kAvx2Backend);
#endif
  return backends;
}

// ---------------------------------------------------------------------
// pack_flush per-kernel selection. Unlike the vector kernels, the flush
// candidates differ in memory behaviour, not ISA (push_back loop vs
// staged resize+memcpy), and which one wins depends on the allocator and
// µarch — BENCH_hotpath.json caught the word flush losing to scalar on
// the very machine the SSE4.2 backend shipped it on. So the winner is
// measured once at selection time instead of assumed per tier.

using PackFlushFn = void (*)(Bytes* out, u64 word, unsigned nbytes);

const char* g_pack_flush_provenance = "scalar (tier)";
// Fed with the calibration output so the timed loops cannot be
// dead-code-eliminated.
volatile u64 g_calibration_sink = 0;

i64 TimePackFlush(PackFlushFn fn) {
  Bytes out;
  out.reserve(1);  // warm the allocation; growth happens in the loop
  u64 word = 0x0123456789ABCDEFull;
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < 4; ++rep) {
    out.clear();
    // The BitWriter steady state: full 8-byte flushes of changing words,
    // one partial flush at stream end.
    for (int i = 0; i < 4096; ++i) {
      fn(&out, word, 8);
      word = word * 6364136223846793005ull + 1442695040888963407ull;
    }
    fn(&out, word, static_cast<unsigned>(rep % 7) + 1);
    g_calibration_sink = g_calibration_sink + out.size() + out.back();
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
      .count();
}

PackFlushFn CalibratePackFlush() {
  i64 scalar_ns = ~static_cast<u64>(0) >> 1;
  i64 word_ns = scalar_ns;
  // Interleaved best-of-3: min time per kernel rejects one-off stalls
  // (page faults, frequency ramps) that a single back-to-back pass would
  // charge to whichever kernel ran first.
  for (int round = 0; round < 3; ++round) {
    scalar_ns = std::min(scalar_ns, TimePackFlush(&ScalarPackFlush));
    word_ns = std::min(word_ns, TimePackFlush(&WordPackFlush));
  }
  return word_ns <= scalar_ns ? &WordPackFlush : &ScalarPackFlush;
}

/// Composed table (tier-best kernels, calibrated pack_flush), published
/// via g_active under g_select_mu like every other selection.
Backend g_composed;

const Backend* SelectDefault() {
  const int tier_cap = static_cast<int>(ActiveSimdTier());
  const Backend* best = &kScalarBackend;
  for (const Backend* b : AvailableBackends()) {
    if (b->tier <= tier_cap && b->tier >= best->tier) best = b;
  }
  if (best->tier == 0) {
    g_pack_flush_provenance = "scalar (tier)";
    return best;
  }

  PackFlushFn chosen;
  const char* env = std::getenv("EDC_PACK_FLUSH");
  if (env != nullptr && std::string_view(env) == "scalar") {
    chosen = &ScalarPackFlush;
    g_pack_flush_provenance = "scalar (env)";
  } else if (env != nullptr && std::string_view(env) == "word") {
    chosen = &WordPackFlush;
    g_pack_flush_provenance = "word (env)";
  } else {
    chosen = CalibratePackFlush();
    g_pack_flush_provenance = chosen == &ScalarPackFlush
                                  ? "scalar (calibrated)"
                                  : "word (calibrated)";
  }
  if (chosen == best->pack_flush) return best;
  g_composed = *best;
  g_composed.pack_flush = chosen;
  return &g_composed;
}

std::atomic<const Backend*> g_active{nullptr};

/// Serializes the one-time default selection (and the test override), so
/// two first callers racing through ActiveBackend() publish exactly one
/// decision instead of each re-running detection. Reads stay lock-free.
sync::Mutex g_select_mu{sync::lock_rank::kCodecBackend,
                        "codec.Backend.select"};

}  // namespace

const Backend& ScalarBackend() { return kScalarBackend; }

const std::vector<const Backend*>& AvailableBackends() {
  static const std::vector<const Backend*> backends = BuildRegistry();
  return backends;
}

const Backend* FindBackend(std::string_view name) {
  for (const Backend* b : AvailableBackends()) {
    if (name == b->name) return b;
  }
  return nullptr;
}

const Backend& ActiveBackend() {
  const Backend* b = g_active.load(std::memory_order_acquire);
  if (b == nullptr) {
    sync::MutexLock lock(&g_select_mu);
    b = g_active.load(std::memory_order_relaxed);
    if (b == nullptr) {
      b = SelectDefault();
      g_active.store(b, std::memory_order_release);
    }
  }
  return *b;
}

void SetActiveBackendForTesting(const Backend* backend) {
  sync::MutexLock lock(&g_select_mu);
  // A forced backend is the pure registered table (no pack_flush
  // composition) — tests that pin "sse42" get exactly its kernels.
  // nullptr re-runs the full selection, env vars and calibration
  // included, so override tests can exercise EDC_PACK_FLUSH.
  g_active.store(backend == nullptr ? SelectDefault() : backend,
                 std::memory_order_release);
}

const char* PackFlushProvenance() {
  ActiveBackend();  // ensure selection ran
  return g_pack_flush_provenance;
}

}  // namespace edc::codec
