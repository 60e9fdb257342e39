// Block-granular KV-cache pool shared across serving sessions.
//
// The pool carves a serving KV budget into fixed-size token blocks
// (`block_tokens` positions each, all layers, K+V) and hands them out
// through the `model::KvBlockBacking` interface, so a `model::KvCache`
// built over the pool allocates storage *as tokens are appended* instead of
// reserving its whole-conversation footprint at admission. Blocks are
// refcounted: the prefix cache (src/serve/prefix_cache.h) pins committed
// prompt blocks with an extra reference so identical system prompts across
// requests share one copy, and `ForkBlock` gives copy-on-write semantics
// when a session appends into a shared tail block.
//
// A soft `usable_blocks` cap lets the scheduler honor runtime KV-budget
// squeezes (ConditionEvent kv_budget_scale) without reconstructing the
// pool: allocation fails once `used_blocks() >= usable_blocks()` even if
// physically free blocks remain.

#ifndef SRC_SERVE_KV_POOL_H_
#define SRC_SERVE_KV_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/model/kv_cache.h"
#include "src/model/model_config.h"

namespace heterollm::serve {

class KvBlockPool : public model::KvBlockBacking {
 public:
  // A pool of `num_blocks` blocks of `block_tokens` positions each.
  // Compute-mode pools materialize per-block FP32 staging tensors lazily on
  // first allocation; simulate-mode pools are pure bookkeeping.
  KvBlockPool(const model::ModelConfig& config, int64_t block_tokens,
              int64_t num_blocks, model::ExecutionMode mode);

  // Blocks a KV byte budget affords: floor(budget / bytes_per_block).
  static int64_t BlocksForBudget(const model::ModelConfig& config,
                                 Bytes budget, int64_t block_tokens);
  // FP16 K+V footprint of one block across all layers.
  Bytes bytes_per_block() const;

  // --- KvBlockBacking ------------------------------------------------------
  int64_t block_tokens() const override { return block_tokens_; }
  int32_t AllocateBlock() override;
  void ReleaseBlock(int32_t block) override;
  int ref_count(int32_t block) const override;
  int32_t ForkBlock(int32_t src, int64_t rows) override;
  void WriteRow(int32_t block, int layer, int64_t row,
                const tensor::Tensor& k, const tensor::Tensor& v,
                int64_t src_row) override;
  tensor::Tensor ReadK(int32_t block, int layer, int64_t rows) const override;
  tensor::Tensor ReadV(int32_t block, int layer, int64_t rows) const override;

  // Pins one extra reference on an allocated block (prefix-cache pin,
  // adopting a cached prefix into a new session).
  void AddRef(int32_t block);

  // --- accounting ----------------------------------------------------------
  int64_t total_blocks() const { return total_blocks_; }
  int64_t used_blocks() const { return used_blocks_; }
  int64_t free_blocks() const { return total_blocks_ - used_blocks_; }
  // High-water mark of used blocks over the pool's lifetime.
  int64_t peak_used_blocks() const { return peak_used_blocks_; }
  // Copy-on-write forks performed.
  int64_t cow_forks() const { return cow_forks_; }
  // Every block's refcount, 0 for free blocks (an accounting audit).
  std::vector<int> RefCounts() const;

  // Soft cap for runtime budget squeezes; clamped to [0, total_blocks].
  void set_usable_blocks(int64_t usable);
  int64_t usable_blocks() const { return usable_blocks_; }
  // Blocks an AllocateBlock can still return under the soft cap.
  int64_t available_blocks() const;

  // A pooled KvCache view over this pool, capped at `max_tokens` positions.
  model::KvCache MakeCache(int64_t max_tokens);

 private:
  struct Block {
    int refs = 0;  // 0 = on the free list
    // Compute-mode storage, one K and one V tensor per layer
    // ([block_tokens, kv_dim]); empty until first allocation.
    std::vector<tensor::Tensor> k;
    std::vector<tensor::Tensor> v;
  };

  void MaterializeStorage(Block& b);

  model::ModelConfig config_;
  int64_t block_tokens_ = 0;
  int64_t total_blocks_ = 0;
  model::ExecutionMode mode_ = model::ExecutionMode::kSimulate;

  std::vector<Block> blocks_;
  std::vector<int32_t> free_list_;  // stack; seeded so pops ascend from 0
  int64_t used_blocks_ = 0;
  int64_t peak_used_blocks_ = 0;
  int64_t usable_blocks_ = 0;
  int64_t cow_forks_ = 0;
};

}  // namespace heterollm::serve

#endif  // SRC_SERVE_KV_POOL_H_
