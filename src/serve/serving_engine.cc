#include "src/serve/serving_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/strings.h"

namespace heterollm::serve {

StatusOr<std::unique_ptr<core::EngineBase>> BuildServingEngine(
    core::Platform* platform, const model::ModelWeights* weights,
    const SchedulerOptions& options, const std::string& engine_name,
    core::EngineOptions base) {
  HCHECK(platform != nullptr);
  HCHECK(weights != nullptr);
  HRETURN_IF_ERROR(options.Validate());
  if (base.kv_capacity % options.kv_block_tokens != 0) {
    return InvalidArgumentError(StrFormat(
        "kv_block_tokens (%lld) must divide the engine KV capacity (%lld)",
        static_cast<long long>(options.kv_block_tokens),
        static_cast<long long>(base.kv_capacity)));
  }
  const std::vector<std::string> runnable = core::RunnableEngineNames();
  if (std::find(runnable.begin(), runnable.end(), engine_name) ==
      runnable.end()) {
    return NotFoundError(
        StrFormat("unknown engine \"%s\"", engine_name.c_str()));
  }
  // Batched decode shares one forward pass across B sessions; the NPU needs
  // a pre-compiled static graph for every width the scheduler may pick.
  // With speculation on, a verify iteration runs at B * (window + 1) rows
  // (each session contributes its whole draft window), and pressure can
  // also shed the window back to plain decode — so both families of widths
  // are provisioned.
  base.decode_widths.clear();
  const int rows_per_slot = options.speculative_window + 1;
  for (int b = 1; b <= options.max_decode_batch; ++b) {
    base.decode_widths.push_back(b);
    if (rows_per_slot > 1) {
      base.decode_widths.push_back(static_cast<int64_t>(b) * rows_per_slot);
    }
  }
  std::sort(base.decode_widths.begin(), base.decode_widths.end());
  base.decode_widths.erase(
      std::unique(base.decode_widths.begin(), base.decode_widths.end()),
      base.decode_widths.end());
  if (options.iteration == IterationPolicy::kHybridChunked) {
    // A full hybrid round is one pass at the chunk width (decode rows plus
    // the chunk): promote it to a standard sequence size so its schedule
    // (and static NPU graph) is pre-compiled like any common prefill
    // length. Ragged rounds decompose/pad through the usual
    // non-standard-length path.
    base.standard_seq_sizes.push_back(options.prefill_chunk_tokens);
    std::sort(base.standard_seq_sizes.begin(), base.standard_seq_sizes.end());
    base.standard_seq_sizes.erase(
        std::unique(base.standard_seq_sizes.begin(),
                    base.standard_seq_sizes.end()),
        base.standard_seq_sizes.end());
  }
  return core::CreateEngine(engine_name, platform, weights, base);
}

}  // namespace heterollm::serve
