// Reference interpreter for the operator graph (compute mode).
//
// Executes a graph against materialized model weights with the same CPU
// reference kernels the engines use. Maintains per-layer KV caches across
// calls, so prefill-then-decode works like the engines. Used to validate
// that the optimization passes preserve semantics and that the graph
// front end agrees with the hand-written engine path.

#ifndef SRC_GRAPH_INTERPRETER_H_
#define SRC_GRAPH_INTERPRETER_H_

#include <vector>

#include "src/graph/builder.h"
#include "src/graph/graph.h"
#include "src/model/kv_cache.h"
#include "src/model/weights.h"

namespace heterollm::graph {

class GraphInterpreter {
 public:
  // `weights` must be compute-mode (materialized) and outlive the
  // interpreter.
  GraphInterpreter(const model::ModelWeights* weights,
                   int64_t kv_capacity = 512);

  // Executes the graph on `input` ([rows, hidden]); returns one tensor per
  // graph output. Attention nodes append to (and read) the internal KV
  // caches, so consecutive calls behave autoregressively.
  StatusOr<std::vector<tensor::Tensor>> Run(const Graph& g,
                                            const tensor::Tensor& input);

  void ResetSession() { kv_cache_.Reset(); }
  int64_t cache_length() const { return kv_cache_.length(); }

 private:
  tensor::Tensor WeightTensor(int64_t ref);

  const model::ModelWeights* weights_;
  model::KvCache kv_cache_;
  // Dense parameter tensors by weight ref, materialized on first use (refs
  // are stable across runs). Projections are dequantized here, so the
  // interpreter runs the dense matmul path, independent of the fused
  // W4A16 kernel the engines use.
  std::vector<std::pair<int64_t, tensor::Tensor>> dense_weights_;
};

}  // namespace heterollm::graph

#endif  // SRC_GRAPH_INTERPRETER_H_
