#include "src/serve/prefix_cache.h"

#include <algorithm>

#include "src/common/status.h"

namespace heterollm::serve {

PrefixCache::PrefixCache(KvBlockPool* pool) : pool_(pool) {
  HCHECK(pool != nullptr);
}

PrefixCache::~PrefixCache() { EvictAll(); }

PrefixCache::Match PrefixCache::Acquire(const std::vector<int32_t>& prompt) {
  Match match;
  const int64_t bt = pool_->block_tokens();
  // Cap matched chunks so at least one prompt token stays uncached.
  const int64_t max_chunks =
      (static_cast<int64_t>(prompt.size()) - 1) / bt;
  ++clock_;
  Node* node = &root_;
  for (int64_t chunk = 0; chunk < max_chunks; ++chunk) {
    const auto begin = prompt.begin() + chunk * bt;
    const std::vector<int32_t> key(begin, begin + bt);
    auto it = node->children.find(key);
    if (it == node->children.end()) {
      break;
    }
    node = it->second.get();
    node->last_touch = clock_;
    pool_->AddRef(node->block);
    match.blocks.push_back(node->block);
  }
  match.tokens = static_cast<int64_t>(match.blocks.size()) * bt;
  return match;
}

int64_t PrefixCache::ProbeTokens(const std::vector<int32_t>& prompt) const {
  const int64_t bt = pool_->block_tokens();
  const int64_t max_chunks = (static_cast<int64_t>(prompt.size()) - 1) / bt;
  const Node* node = &root_;
  int64_t chunks = 0;
  for (; chunks < max_chunks; ++chunks) {
    const auto begin = prompt.begin() + chunks * bt;
    const std::vector<int32_t> key(begin, begin + bt);
    const auto it = node->children.find(key);
    if (it == node->children.end()) {
      break;
    }
    node = it->second.get();
  }
  return chunks * bt;
}

void PrefixCache::Insert(const std::vector<int32_t>& prompt,
                         const std::vector<int32_t>& blocks, int64_t tokens) {
  const int64_t bt = pool_->block_tokens();
  HCHECK(tokens >= 0 &&
         tokens <= static_cast<int64_t>(prompt.size()));
  const int64_t full_chunks =
      std::min(tokens / bt, static_cast<int64_t>(blocks.size()));
  ++clock_;
  Node* node = &root_;
  for (int64_t chunk = 0; chunk < full_chunks; ++chunk) {
    const auto begin = prompt.begin() + chunk * bt;
    std::vector<int32_t> key(begin, begin + bt);
    auto it = node->children.find(key);
    if (it == node->children.end()) {
      auto child = std::make_unique<Node>();
      child->block = blocks[static_cast<size_t>(chunk)];
      pool_->AddRef(child->block);
      ++cached_blocks_;
      it = node->children.emplace(std::move(key), std::move(child)).first;
    }
    node = it->second.get();
    node->last_touch = clock_;
  }
}

std::vector<int32_t> PrefixCache::blocks() const {
  std::vector<int32_t> out;
  std::vector<const Node*> stack = {&root_};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const auto& [key, child] : node->children) {
      out.push_back(child->block);
      stack.push_back(child.get());
    }
  }
  return out;
}

bool PrefixCache::EvictLruLeaf() {
  // Walk the whole trie for the least-recently-touched leaf whose block
  // only the cache still references. Linear in cache size — fine at the
  // few-hundred-block scale a serving budget affords.
  struct Candidate {
    Node* parent = nullptr;
    const std::vector<int32_t>* key = nullptr;
    int64_t last_touch = 0;
  };
  Candidate best;
  std::vector<Node*> stack = {&root_};
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    for (auto& [key, child] : node->children) {
      if (child->children.empty()) {
        if (pool_->ref_count(child->block) == 1 &&
            (best.parent == nullptr || child->last_touch < best.last_touch)) {
          best = {node, &key, child->last_touch};
        }
      } else {
        stack.push_back(child.get());
      }
    }
  }
  if (best.parent == nullptr) {
    return false;
  }
  auto it = best.parent->children.find(*best.key);
  pool_->ReleaseBlock(it->second->block);
  best.parent->children.erase(it);
  --cached_blocks_;
  ++evicted_blocks_;
  return true;
}

int64_t PrefixCache::EvictUntilFree(int64_t need) {
  int64_t freed = 0;
  while (pool_->available_blocks() < need && EvictLruLeaf()) {
    ++freed;
  }
  return freed;
}

int64_t PrefixCache::EvictAll() {
  int64_t freed = 0;
  while (EvictLruLeaf()) {
    ++freed;
  }
  return freed;
}

}  // namespace heterollm::serve
