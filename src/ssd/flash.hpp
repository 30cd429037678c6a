// Raw NAND flash array model: pages with free/valid/invalid state,
// erase-before-program discipline, sequential in-block programming and
// per-block erase-count (wear) tracking. Enforces the physical rules the
// FTL must respect; violations are Status errors, not silent corruption.
#pragma once

#include <vector>

#include "common/status.hpp"
#include "ssd/config.hpp"

namespace edc::ssd {

enum class PageState : u8 { kFree = 0, kValid, kInvalid };

class FlashArray {
 public:
  explicit FlashArray(const SsdGeometry& geometry, bool store_data);

  const SsdGeometry& geometry() const { return geometry_; }

  /// Program a free page. Pages within a block must be programmed in
  /// strictly increasing order (NAND constraint). `data` may be empty when
  /// data storage is disabled.
  Status Program(Ppa ppa, ByteSpan data);

  /// Read a valid or invalid (not yet erased) page. Returns the stored
  /// bytes, or an empty buffer when data storage is disabled.
  Result<Bytes> Read(Ppa ppa) const;

  /// Mark a previously-programmed page invalid (out-of-place update).
  Status Invalidate(Ppa ppa);

  /// Erase a whole block, freeing all its pages and bumping its wear.
  Status EraseBlock(u32 block);

  PageState page_state(Ppa ppa) const { return states_.at(ppa); }
  u32 erase_count(u32 block) const { return erase_counts_.at(block); }
  /// Number of valid pages in a block (GC victim selection input).
  u32 valid_pages(u32 block) const { return valid_per_block_.at(block); }
  /// Next unprogrammed page index within a block, pages_per_block if full.
  u32 write_pointer(u32 block) const { return write_ptr_.at(block); }

  u64 total_programs() const { return total_programs_; }
  u64 total_erases() const { return total_erases_; }
  u32 max_erase_count() const;
  double mean_erase_count() const;

  u32 block_of(Ppa ppa) const {
    return static_cast<u32>(ppa / geometry_.pages_per_block);
  }
  u32 page_in_block(Ppa ppa) const {
    return static_cast<u32>(ppa % geometry_.pages_per_block);
  }
  Ppa ppa_of(u32 block, u32 page) const {
    return static_cast<Ppa>(block) * geometry_.pages_per_block + page;
  }

 private:
  SsdGeometry geometry_;
  bool store_data_;
  std::vector<PageState> states_;
  std::vector<u32> write_ptr_;        // per block
  std::vector<u32> valid_per_block_;  // per block
  std::vector<u32> erase_counts_;     // per block
  // Page bytes, only if store_data_: one slot per page of each block that
  // has been programmed since its last erase; an erased or never-written
  // block holds no slots, so storage follows data written, not capacity.
  std::vector<std::vector<Bytes>> data_;
  u64 total_programs_ = 0;
  u64 total_erases_ = 0;
};

}  // namespace edc::ssd
