#include "datagen/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"

namespace edc::datagen {
namespace {

// Letter frequencies loosely matching identifier-ish text; used to build a
// deterministic vocabulary per generator seed.
constexpr char kAlphabet[] = "etaonrishdlfcmugypwbvkxjqz_";
constexpr u32 kWordLengths = 10;  // 2..11 letters, within Word::letters

constexpr u64 kNewlineBelow = Pcg32::BoolThreshold(0.4);
constexpr u64 kPeriodBelow = Pcg32::BoolThreshold(0.12);

std::size_t Room(const u8* p, const u8* end) {
  return static_cast<std::size_t>(end - p);
}

EDC_HOT void FillRandom(Pcg32 rng, MutableByteSpan out) {
  for (u8& b : out) b = static_cast<u8>(rng.NextU32());
}

EDC_HOT void FillRuns(Pcg32 rng, MutableByteSpan out) {
  u8* p = out.data();
  u8* const end = p + out.size();
  while (p < end) {
    const u8 value = static_cast<u8>(rng.NextBounded(8) * 31);
    const std::size_t run = 16 + rng.NextBounded(480);
    const std::size_t n = std::min(run, Room(p, end));
    std::memset(p, value, n);
    p += n;
  }
}

}  // namespace

ContentGenerator::ContentGenerator(ContentProfile profile, u64 seed)
    : profile_(std::move(profile)),
      seed_(seed),
      motif_mutation_below_(Pcg32::BoolThreshold(profile_.motif_mutation)),
      word_zipf_(profile_.text_vocabulary, profile_.text_zipf),
      length_zipf_(kWordLengths, 0.8),
      letter_zipf_(sizeof(kAlphabet) - 1, 0.7),
      dup_zipf_(profile_.dup_universe, 0.9) {
  const double text_weight =
      profile_.weights[static_cast<std::size_t>(ChunkKind::kText)];
  EDC_CHECK(profile_.text_vocabulary > 0 || !(text_weight > 0))
      << "ContentProfile.text_vocabulary is 0 but profile '" << profile_.name
      << "' gives text chunks weight " << text_weight;
  static_assert(2 + kWordLengths - 1 <= sizeof(Word::letters));
  Pcg32 rng = Pcg32::Derive(seed_, 0xB0CAB'0000ull);
  vocabulary_.resize(profile_.text_vocabulary);
  for (Word& w : vocabulary_) {
    w.length = static_cast<u8>(2 + length_zipf_.Sample(rng));
    for (u8 i = 0; i < w.length; ++i) {
      w.letters[i] = kAlphabet[letter_zipf_.Sample(rng)];
    }
  }
}

ChunkKind ContentGenerator::KindForLba(Lba lba) const {
  // Deterministic weighted choice keyed by LBA only (not version): a block
  // keeps its content class for its lifetime.
  Pcg32 rng = Pcg32::Derive(seed_ ^ 0x9E3779B97F4A7C15ull, lba);
  double total = profile_.TotalWeight();
  if (total <= 0) return ChunkKind::kRandom;
  double pick = rng.NextDouble() * total;
  for (std::size_t k = 0; k < kNumChunkKinds; ++k) {
    pick -= profile_.weights[k];
    if (pick < 0) return static_cast<ChunkKind>(k);
  }
  return ChunkKind::kZero;
}

Bytes ContentGenerator::Generate(Lba lba, u64 version,
                                 std::size_t size) const {
  Bytes out(size);
  GenerateInto(lba, version, out);
  return out;
}

void ContentGenerator::GenerateInto(Lba lba, u64 version,
                                    MutableByteSpan out) const {
  // Dedup model: some blocks carry pool content that is byte-identical
  // wherever it appears (independent of lba and version).
  if (profile_.dup_fraction > 0) {
    Pcg32 dup_rng = Pcg32::Derive(seed_ ^ 0xDED0Dull, lba * 131 + version);
    if (dup_rng.NextBool(profile_.dup_fraction)) {
      u32 dup_id = dup_zipf_.Sample(dup_rng);
      // Pool entries keep realistic kind mixtures too.
      ChunkKind kind = KindForLba(static_cast<Lba>(dup_id) + 7919);
      FillChunk(kind, Pcg32::Derive(seed_ ^ 0xDED1Dull, dup_id), out);
      return;
    }
  }
  ChunkKind kind = KindForLba(lba);
  if (profile_.update_delta > 0 && version > 0) {
    // Version v = base content with a sparse, version-specific byte
    // mutation — the similarity Delta-FTL-style schemes exploit.
    FillChunk(kind, Pcg32::Derive(seed_ ^ Mix64(1), lba), out);
    Pcg32 mut = Pcg32::Derive(seed_ ^ 0xDE17Aull, lba * 8191 + version);
    auto mutations = static_cast<std::size_t>(
        profile_.update_delta * static_cast<double>(out.size()));
    for (std::size_t m = 0; m < mutations && !out.empty(); ++m) {
      out[mut.NextBounded(static_cast<u32>(out.size()))] =
          static_cast<u8>(mut.NextU32());
    }
    return;
  }
  FillChunk(kind, Pcg32::Derive(seed_ ^ Mix64(version + 1), lba), out);
}

Bytes ContentGenerator::GenerateCorpus(std::size_t total,
                                       std::size_t chunk_size) const {
  Bytes out(total);
  Lba lba = 0;
  for (std::size_t off = 0; off < total; off += chunk_size) {
    GenerateInto(lba++, 0,
                 MutableByteSpan(out).subspan(
                     off, std::min(chunk_size, total - off)));
  }
  return out;
}

void ContentGenerator::FillChunk(ChunkKind kind, Pcg32 rng,
                                 MutableByteSpan out) const {
  switch (kind) {
    case ChunkKind::kRandom:
      FillRandom(rng, out);
      return;
    case ChunkKind::kText:
      FillText(rng, out);
      return;
    case ChunkKind::kMotif:
      FillMotif(rng, out);
      return;
    case ChunkKind::kRuns:
      FillRuns(rng, out);
      return;
    case ChunkKind::kZero:
      break;
  }
  std::fill(out.begin(), out.end(), u8{0});
}

// Chunk fillers stop at the end of `out`, mid-word or mid-record if need be:
// each chunk has its own generator, so draws after its last byte would
// change nothing.

EDC_HOT void ContentGenerator::FillText(Pcg32 rng, MutableByteSpan out) const {
  u8* p = out.data();
  u8* const end = p + out.size();
  std::size_t line_len = 0;
  while (p < end) {
    const Word& w = vocabulary_[word_zipf_.Sample(rng)];
    if (Room(p, end) > sizeof(w.letters)) {
      std::memcpy(p, w.letters, sizeof(w.letters));
      p += w.length;
    } else {
      const std::size_t n = std::min<std::size_t>(w.length, Room(p, end));
      std::memcpy(p, w.letters, n);
      p += n;
      if (p == end) break;
    }
    line_len += w.length + 1u;
    if (line_len > 60 && rng.NextBelow(kNewlineBelow)) {
      *p++ = '\n';
      // Indentation, like source code.
      const std::size_t indent = rng.NextBounded(5) * 2;
      const std::size_t spaces = std::min(indent, Room(p, end));
      std::memset(p, ' ', spaces);
      p += spaces;
      line_len = indent;
    } else {
      *p++ = rng.NextBelow(kPeriodBelow) ? u8{'.'} : u8{' '};
    }
  }
}

void ContentGenerator::FillMotif(Pcg32 rng, MutableByteSpan out) const {
  // A small pool of motifs repeated with point mutations and varying
  // record headers — mimics serialized records / machine code sections.
  Bytes motifs(4 * static_cast<std::size_t>(profile_.motif_length));
  for (u8& b : motifs) b = static_cast<u8>(rng.NextU32());
  FillMotifRecords(rng, motifs, out);
}

EDC_HOT void ContentGenerator::FillMotifRecords(Pcg32 rng, ByteSpan motifs,
                                                MutableByteSpan out) const {
  const std::size_t motif_len = profile_.motif_length;
  u8* p = out.data();
  u8* const end = p + out.size();
  u32 record_id = rng.NextU32();
  while (p < end) {
    const u8* m = motifs.data() + rng.NextBounded(4) * motif_len;
    // 4-byte record header (little repetition) then a mutated motif body.
    ++record_id;
    const u8 header[4] = {
        static_cast<u8>(record_id), static_cast<u8>(record_id >> 8),
        static_cast<u8>(record_id >> 16), static_cast<u8>(record_id >> 24)};
    const std::size_t header_len = std::min(sizeof(header), Room(p, end));
    std::memcpy(p, header, header_len);
    p += header_len;
    const std::size_t body = std::min(motif_len, Room(p, end));
    for (std::size_t i = 0; i < body; ++i) {
      p[i] = rng.NextBelow(motif_mutation_below_)
                 ? static_cast<u8>(rng.NextU32())
                 : m[i];
    }
    p += body;
  }
}

double ByteEntropy(ByteSpan data) {
  if (data.empty()) return 0.0;
  std::array<u64, 256> counts{};
  for (u8 b : data) ++counts[b];
  double n = static_cast<double>(data.size());
  double h = 0.0;
  for (u64 c : counts) {
    if (c == 0) continue;
    double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace edc::datagen
