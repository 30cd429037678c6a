// Deterministic synthetic content generation (SDGen analog).
//
// The generator is a pure function of (profile, seed, lba, version):
// regenerating a block for the same key yields identical bytes, so a trace
// replay can materialize write payloads on demand without storing them, and
// functional tests can verify read-back content after decompression.
//
// Functional-mode engines call it for every block they compress, so it is
// on the write path. The Zipf draws (word, word length, letter, dup-pool
// entry) go through ZipfSampler tables built once in the constructor, each
// returning what Pcg32::NextZipf would from the same generator state, and
// chunks are written straight into the caller's buffer.
// tests/datagen/generator_test.cpp pins the bytes with golden digests.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "datagen/profile.hpp"

namespace edc::datagen {

/// Per-block content generator over a fixed profile. Read-only after
/// construction, so one instance may serve several threads.
class ContentGenerator {
 public:
  /// EDC_CHECK-fails on a profile that can pick text chunks but has an
  /// empty vocabulary (`text_vocabulary == 0`).
  ContentGenerator(ContentProfile profile, u64 seed);

  /// Generate `size` bytes for logical block `lba` at write `version`
  /// (bump the version on overwrite to get different-but-deterministic
  /// content). The chunk kind is chosen per (lba) so a block keeps its
  /// compressibility class across overwrites — matching how file regions
  /// keep their type in real systems.
  Bytes Generate(Lba lba, u64 version, std::size_t size) const;

  /// Generate's bytes for `out.size()`, written into `out` (every byte is
  /// overwritten).
  void GenerateInto(Lba lba, u64 version, MutableByteSpan out) const;

  /// The chunk kind assigned to a given LBA under this profile.
  ChunkKind KindForLba(Lba lba) const;

  /// Generate a flat corpus of `total` bytes made of `chunk_size` chunks
  /// (used by the Fig. 2 codec-efficiency bench).
  Bytes GenerateCorpus(std::size_t total, std::size_t chunk_size = 4096) const;

  const ContentProfile& profile() const { return profile_; }
  u64 seed() const { return seed_; }

 private:
  // Each filler takes its generator by value: a local copy the compiler can
  // keep in registers across the byte stores into `out`.
  void FillChunk(ChunkKind kind, Pcg32 rng, MutableByteSpan out) const;
  void FillText(Pcg32 rng, MutableByteSpan out) const;
  void FillMotif(Pcg32 rng, MutableByteSpan out) const;
  void FillMotifRecords(Pcg32 rng, ByteSpan motifs, MutableByteSpan out) const;

  ContentProfile profile_;
  u64 seed_;
  u64 motif_mutation_below_;  // Pcg32::BoolThreshold(motif_mutation)
  ZipfSampler word_zipf_;     // vocabulary rank
  ZipfSampler length_zipf_;   // word length - 2
  ZipfSampler letter_zipf_;   // letter rank
  ZipfSampler dup_zipf_;      // dup-pool entry
  // A vocabulary word in a fixed slot, so the text filler can copy whole
  // slots and advance by the word's length.
  struct Word {
    char letters[15];
    u8 length;
  };
  std::vector<Word> vocabulary_;  // derived deterministically
};

/// Shannon entropy of the byte distribution in bits/byte (0..8). A cheap
/// proxy for compressibility used by tests and the estimator's baseline.
double ByteEntropy(ByteSpan data);

}  // namespace edc::datagen
