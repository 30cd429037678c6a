#include "ssd/flash.hpp"

#include <algorithm>
#include <numeric>

namespace edc::ssd {

FlashArray::FlashArray(const SsdGeometry& geometry, bool store_data)
    : geometry_(geometry),
      store_data_(store_data),
      states_(geometry.raw_pages(), PageState::kFree),
      write_ptr_(geometry.num_blocks, 0),
      valid_per_block_(geometry.num_blocks, 0),
      erase_counts_(geometry.num_blocks, 0) {
  if (store_data_) data_.resize(geometry.num_blocks);
}

Status FlashArray::Program(Ppa ppa, ByteSpan data) {
  if (ppa >= states_.size()) {
    return Status::OutOfRange("flash: PPA out of range");
  }
  if (states_[ppa] != PageState::kFree) {
    return Status::FailedPrecondition("flash: program on non-free page");
  }
  u32 block = block_of(ppa);
  u32 in_block = page_in_block(ppa);
  if (in_block != write_ptr_[block]) {
    return Status::FailedPrecondition(
        "flash: out-of-order program within block");
  }
  if (store_data_ && data.size() > geometry_.page_size) {
    return Status::InvalidArgument("flash: payload exceeds page size");
  }
  states_[ppa] = PageState::kValid;
  ++write_ptr_[block];
  ++valid_per_block_[block];
  ++total_programs_;
  if (store_data_) {
    std::vector<Bytes>& pages = data_[block];
    if (pages.empty()) pages.resize(geometry_.pages_per_block);
    pages[in_block].assign(data.begin(), data.end());
  }
  return Status::Ok();
}

Result<Bytes> FlashArray::Read(Ppa ppa) const {
  if (ppa >= states_.size()) {
    return Status::OutOfRange("flash: PPA out of range");
  }
  if (states_[ppa] == PageState::kFree) {
    return Status::FailedPrecondition("flash: read of unwritten page");
  }
  if (!store_data_) return Bytes{};
  return data_[block_of(ppa)][page_in_block(ppa)];
}

Status FlashArray::Invalidate(Ppa ppa) {
  if (ppa >= states_.size()) {
    return Status::OutOfRange("flash: PPA out of range");
  }
  if (states_[ppa] != PageState::kValid) {
    return Status::FailedPrecondition("flash: invalidate of non-valid page");
  }
  states_[ppa] = PageState::kInvalid;
  --valid_per_block_[block_of(ppa)];
  return Status::Ok();
}

Status FlashArray::EraseBlock(u32 block) {
  if (block >= geometry_.num_blocks) {
    return Status::OutOfRange("flash: block out of range");
  }
  if (valid_per_block_[block] != 0) {
    return Status::FailedPrecondition(
        "flash: erase of block with valid pages");
  }
  Ppa base = ppa_of(block, 0);
  for (u32 p = 0; p < geometry_.pages_per_block; ++p) {
    states_[base + p] = PageState::kFree;
  }
  if (store_data_) data_[block] = {};
  write_ptr_[block] = 0;
  ++erase_counts_[block];
  ++total_erases_;
  return Status::Ok();
}

u32 FlashArray::max_erase_count() const {
  return *std::max_element(erase_counts_.begin(), erase_counts_.end());
}

double FlashArray::mean_erase_count() const {
  u64 sum = std::accumulate(erase_counts_.begin(), erase_counts_.end(),
                            u64{0});
  return static_cast<double>(sum) /
         static_cast<double>(erase_counts_.size());
}

}  // namespace edc::ssd
