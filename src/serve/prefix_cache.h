// Cross-request prefix reuse: a token trie over committed KV blocks.
//
// Every edge in the trie is one *block-sized chunk* of prompt tokens; the
// node it leads to holds the pool block whose K/V rows were computed for
// exactly that token prefix. A new request walks the trie with its prompt:
// each matched chunk pins the corresponding block (one extra pool
// reference, transferred to the session via `KvCache::AdoptPrefix`) and
// prefill starts at the first uncached token — the simulator then prices
// only the residual prefill, which is where the TTFT collapse on
// shared-system-prompt workloads comes from (paper §5: prefill dominates
// TTFT).
//
// Only full blocks are cached (a partial tail block is private to its
// session and would need copy-on-write anyway), and a lookup never matches
// the *entire* prompt: at least one token is left for residual prefill so
// the engine still produces the first logits.
//
// Eviction is LRU over unpinned entries: a trie leaf whose block has pool
// refcount 1 (only the cache holds it) can be dropped to free blocks for
// admission. Recency comes from a monotonic logical clock, not wall time,
// so runs are deterministic.

#ifndef SRC_SERVE_PREFIX_CACHE_H_
#define SRC_SERVE_PREFIX_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/serve/kv_pool.h"

namespace heterollm::serve {

class PrefixCache {
 public:
  explicit PrefixCache(KvBlockPool* pool);
  ~PrefixCache();

  struct Match {
    std::vector<int32_t> blocks;  // pinned; caller owns one ref per block
    int64_t tokens = 0;           // blocks.size() * block_tokens
  };

  // Longest cached prefix of `prompt`, capped so at least one prompt token
  // remains uncached. Pins every matched block (AddRef) — hand the refs to
  // a session with `KvCache::AdoptPrefix`, or release them on failure.
  Match Acquire(const std::vector<int32_t>& prompt);

  // Read-only variant of `Acquire`: the tokens a lookup *would* hit right
  // now, with the same one-token residual cap. Pins nothing and leaves
  // recency untouched, so probing is free of side effects — the cluster
  // router uses it as a per-replica hit estimate over the shared trie
  // key-space when scoring prefix affinity.
  int64_t ProbeTokens(const std::vector<int32_t>& prompt) const;

  // Records a prefilled prompt: the first floor(tokens / block_tokens)
  // blocks of `blocks` (a session's block table covering `prompt`) become
  // cached entries. New entries pin their block; chunks already cached are
  // refreshed, not replaced.
  void Insert(const std::vector<int32_t>& prompt,
              const std::vector<int32_t>& blocks, int64_t tokens);

  // Evicts LRU unpinned entries until the pool can hand out `need` blocks
  // (or nothing evictable remains). Returns the number of blocks freed.
  int64_t EvictUntilFree(int64_t need);

  // Drops every unpinned entry. Returns the number of blocks freed.
  int64_t EvictAll();

  // The block of every cached entry (each holds one pin on it).
  std::vector<int32_t> blocks() const;

  // Blocks currently held (pinned on behalf of) the cache.
  int64_t cached_blocks() const { return cached_blocks_; }
  // Cumulative blocks evicted over the cache's lifetime.
  int64_t evicted_blocks() const { return evicted_blocks_; }

 private:
  struct Node {
    // Chunk of `block_tokens` tokens -> deeper prefix. std::map keeps
    // traversal order deterministic.
    std::map<std::vector<int32_t>, std::unique_ptr<Node>> children;
    int32_t block = -1;
    int64_t last_touch = 0;  // logical clock, not wall time
  };

  // Evicts the least-recently-touched leaf whose block is unpinned
  // (pool refcount 1). Returns false when nothing is evictable.
  bool EvictLruLeaf();

  KvBlockPool* pool_;
  Node root_;
  int64_t clock_ = 0;
  int64_t cached_blocks_ = 0;
  int64_t evicted_blocks_ = 0;
};

}  // namespace heterollm::serve

#endif  // SRC_SERVE_PREFIX_CACHE_H_
