#include "src/serve/kv_pool.h"

#include <algorithm>

#include "src/common/status.h"

namespace heterollm::serve {

using tensor::Shape;
using tensor::Tensor;

KvBlockPool::KvBlockPool(const model::ModelConfig& config,
                         int64_t block_tokens, int64_t num_blocks,
                         model::ExecutionMode mode)
    : config_(config),
      block_tokens_(block_tokens),
      total_blocks_(num_blocks),
      mode_(mode),
      usable_blocks_(num_blocks) {
  HCHECK_MSG(block_tokens >= 1, "block_tokens must be >= 1");
  HCHECK_MSG(num_blocks >= 1, "a KV pool needs at least one block");
  blocks_.resize(static_cast<size_t>(num_blocks));
  // Seed the free stack descending so pops hand out 0, 1, 2, ... — block
  // ids in fresh pools are deterministic and readable in tests.
  free_list_.reserve(static_cast<size_t>(num_blocks));
  for (int64_t b = num_blocks - 1; b >= 0; --b) {
    free_list_.push_back(static_cast<int32_t>(b));
  }
}

Bytes KvBlockPool::bytes_per_block() const {
  return model::KvCache::BytesForTokens(config_, block_tokens_);
}

int64_t KvBlockPool::BlocksForBudget(const model::ModelConfig& config,
                                     Bytes budget, int64_t block_tokens) {
  HCHECK(block_tokens >= 1);
  const Bytes per_block = model::KvCache::BytesForTokens(config, block_tokens);
  HCHECK(per_block > 0);
  return static_cast<int64_t>(budget / per_block);
}

int64_t KvBlockPool::available_blocks() const {
  return std::max<int64_t>(0, usable_blocks_ - used_blocks_);
}

void KvBlockPool::set_usable_blocks(int64_t usable) {
  usable_blocks_ = std::max<int64_t>(0, std::min(usable, total_blocks_));
}

int32_t KvBlockPool::AllocateBlock() {
  if (free_list_.empty() || used_blocks_ >= usable_blocks_) {
    return -1;
  }
  const int32_t id = free_list_.back();
  free_list_.pop_back();
  Block& b = blocks_[static_cast<size_t>(id)];
  HCHECK(b.refs == 0);
  b.refs = 1;
  ++used_blocks_;
  peak_used_blocks_ = std::max(peak_used_blocks_, used_blocks_);
  if (mode_ == model::ExecutionMode::kCompute) {
    MaterializeStorage(b);
  }
  return id;
}

void KvBlockPool::AddRef(int32_t block) {
  HCHECK(block >= 0 && block < total_blocks_);
  Block& b = blocks_[static_cast<size_t>(block)];
  HCHECK_MSG(b.refs > 0, "AddRef on a free block");
  ++b.refs;
}

void KvBlockPool::ReleaseBlock(int32_t block) {
  HCHECK(block >= 0 && block < total_blocks_);
  Block& b = blocks_[static_cast<size_t>(block)];
  HCHECK_MSG(b.refs > 0, "ReleaseBlock on a free block");
  if (--b.refs == 0) {
    b.k.clear();
    b.v.clear();
    --used_blocks_;
    free_list_.push_back(block);
  }
}

int KvBlockPool::ref_count(int32_t block) const {
  HCHECK(block >= 0 && block < total_blocks_);
  const Block& b = blocks_[static_cast<size_t>(block)];
  HCHECK_MSG(b.refs > 0, "ref_count on a free block");
  return b.refs;
}

std::vector<int> KvBlockPool::RefCounts() const {
  std::vector<int> refs;
  refs.reserve(blocks_.size());
  for (const Block& b : blocks_) {
    refs.push_back(b.refs);
  }
  return refs;
}

int32_t KvBlockPool::ForkBlock(int32_t src, int64_t rows) {
  HCHECK(src >= 0 && src < total_blocks_);
  HCHECK(rows >= 0 && rows <= block_tokens_);
  HCHECK_MSG(blocks_[static_cast<size_t>(src)].refs > 0,
             "ForkBlock on a free block");
  const int32_t id = AllocateBlock();
  if (id < 0) {
    return -1;
  }
  ++cow_forks_;
  if (mode_ == model::ExecutionMode::kCompute && rows > 0) {
    const Block& from = blocks_[static_cast<size_t>(src)];
    Block& to = blocks_[static_cast<size_t>(id)];
    for (int layer = 0; layer < config_.num_layers; ++layer) {
      const auto l = static_cast<size_t>(layer);
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < config_.kv_dim(); ++c) {
          to.k[l].Set(r, c, from.k[l].At(r, c));
          to.v[l].Set(r, c, from.v[l].At(r, c));
        }
      }
    }
  }
  return id;
}

void KvBlockPool::WriteRow(int32_t block, int layer, int64_t row,
                           const Tensor& k, const Tensor& v, int64_t src_row) {
  if (mode_ != model::ExecutionMode::kCompute) {
    return;
  }
  HCHECK(block >= 0 && block < total_blocks_);
  HCHECK(row >= 0 && row < block_tokens_);
  Block& b = blocks_[static_cast<size_t>(block)];
  HCHECK_MSG(b.refs > 0, "WriteRow on a free block");
  for (int64_t c = 0; c < config_.kv_dim(); ++c) {
    b.k[static_cast<size_t>(layer)].Set(row, c, k.At(src_row, c));
    b.v[static_cast<size_t>(layer)].Set(row, c, v.At(src_row, c));
  }
}

Tensor KvBlockPool::ReadK(int32_t block, int layer, int64_t rows) const {
  HCHECK(block >= 0 && block < total_blocks_);
  if (mode_ != model::ExecutionMode::kCompute) {
    return Tensor::Deferred(Shape({rows, config_.kv_dim()}),
                            tensor::DType::kFp16);
  }
  return blocks_[static_cast<size_t>(block)]
      .k[static_cast<size_t>(layer)]
      .SliceRows(0, rows);
}

Tensor KvBlockPool::ReadV(int32_t block, int layer, int64_t rows) const {
  HCHECK(block >= 0 && block < total_blocks_);
  if (mode_ != model::ExecutionMode::kCompute) {
    return Tensor::Deferred(Shape({rows, config_.kv_dim()}),
                            tensor::DType::kFp16);
  }
  return blocks_[static_cast<size_t>(block)]
      .v[static_cast<size_t>(layer)]
      .SliceRows(0, rows);
}

void KvBlockPool::MaterializeStorage(Block& b) {
  if (!b.k.empty()) {
    return;
  }
  const Shape shape({block_tokens_, config_.kv_dim()});
  b.k.reserve(static_cast<size_t>(config_.num_layers));
  b.v.reserve(static_cast<size_t>(config_.num_layers));
  for (int layer = 0; layer < config_.num_layers; ++layer) {
    b.k.push_back(Tensor::Zeros(shape, tensor::DType::kFp16));
    b.v.push_back(Tensor::Zeros(shape, tensor::DType::kFp16));
  }
}

model::KvCache KvBlockPool::MakeCache(int64_t max_tokens) {
  return model::KvCache(config_, this, mode_, max_tokens);
}

}  // namespace heterollm::serve
