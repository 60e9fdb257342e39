// Command-line driver for the simulated HeteroLLM stack.
//
// Usage:
//   heterollm_cli [--engine NAME] [--model NAME] [--prompt N] [--decode N]
//                 [--no-fast-sync] [--game] [--trace FILE] [--list]
//
// Examples:
//   heterollm_cli --engine Hetero-tensor --model Llama-8B --prompt 300
//   heterollm_cli --engine PPL-OpenCL --game
//   heterollm_cli --engine Hetero-tensor --trace timeline.json
//     (open timeline.json in Perfetto / chrome://tracing)

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "src/core/engine_registry.h"
#include "src/core/execution_report.h"
#include "src/core/hetero_engine.h"
#include "src/sim/trace.h"
#include "src/workload/render_workload.h"

using namespace heterollm;  // NOLINT(build/namespaces)
using model::ExecutionMode;
using model::ModelConfig;
using model::ModelWeights;

namespace {

ModelConfig ModelByName(const std::string& name) {
  for (const ModelConfig& cfg :
       {ModelConfig::Llama8B(), ModelConfig::Llama7B(), ModelConfig::Llama3B(),
        ModelConfig::InternLM1_8B(), ModelConfig::Tiny()}) {
    if (cfg.name == name) {
      return cfg;
    }
  }
  std::fprintf(stderr, "unknown model '%s' (try Llama-8B, Llama-7B, "
               "Llama-3B, InternLM-1.8B, Tiny)\n", name.c_str());
  std::exit(2);
}

void PrintUsage() {
  std::printf(
      "heterollm_cli — run a simulated mobile LLM inference configuration\n"
      "  --engine NAME    engine to run (default Hetero-tensor); --list to "
      "enumerate\n"
      "  --model NAME     Llama-8B (default), Llama-7B, Llama-3B, "
      "InternLM-1.8B, Tiny\n"
      "  --prompt N       prompt length in tokens (default 256)\n"
      "  --decode N       decode steps (default 32)\n"
      "  --no-fast-sync   use the legacy 400 us driver sync path\n"
      "  --power-budget W cap concurrent accelerator power (hetero engines)\n"
      "  --report         print per-unit / per-op time breakdown\n"
      "  --game           run a 60 FPS rendering workload concurrently\n"
      "  --trace FILE     write the kernel timeline as Chrome-trace JSON\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string engine_name = "Hetero-tensor";
  std::string model_name = "Llama-8B";
  std::string trace_path;
  int prompt_len = 256;
  int decode_len = 32;
  bool fast_sync = true;
  bool with_game = false;
  bool report = false;
  double power_budget = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--engine") {
      engine_name = next();
    } else if (arg == "--model") {
      model_name = next();
    } else if (arg == "--prompt") {
      prompt_len = std::stoi(next());
    } else if (arg == "--decode") {
      decode_len = std::stoi(next());
    } else if (arg == "--no-fast-sync") {
      fast_sync = false;
    } else if (arg == "--power-budget") {
      power_budget = std::stod(next());
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--game") {
      with_game = true;
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--list") {
      for (const std::string& name : core::RunnableEngineNames()) {
        std::printf("%s\n", name.c_str());
      }
      std::printf("Online-prepare\nPadding\nPipe\nChunked\n");
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  const ModelConfig cfg = ModelByName(model_name);
  const ExecutionMode mode = cfg.param_count() < 5e7
                                 ? ExecutionMode::kCompute
                                 : ExecutionMode::kSimulate;
  const ModelWeights weights = ModelWeights::Create(cfg, mode);

  core::Platform platform(core::PlatformOptionsFor(engine_name));
  if (!trace_path.empty()) {
    platform.soc().RecordTimeline();  // the trace exports every kernel
  }
  core::EngineOptions opts;
  opts.fast_sync = fast_sync;
  std::unique_ptr<core::EngineBase> engine;
  if (power_budget > 0 &&
      (engine_name == "Hetero-layer" || engine_name == "Hetero-tensor")) {
    core::HeteroOptions hetero;
    const double scale = hetero.engine.gpu_power_scale;
    hetero.engine = opts;
    hetero.engine.gpu_power_scale = scale;
    hetero.solver.max_parallel_power_watts = power_budget;
    engine = std::make_unique<core::HeteroEngine>(
        engine_name == "Hetero-layer" ? core::HeteroLevel::kLayer
                                      : core::HeteroLevel::kTensor,
        &platform, &weights, hetero);
  } else {
    engine = core::CreateEngine(engine_name, &platform, &weights, opts);
  }

  workload::RenderWorkload render(&platform);
  if (with_game) {
    render.SubmitFrames(/*duration=*/60e6);
  }

  core::GenerationStats stats = engine->Generate(prompt_len, decode_len);

  std::printf("engine:   %s\nmodel:    %s (%.2fB params, %s mode)\n",
              engine->name().c_str(), cfg.name.c_str(),
              cfg.param_count() / 1e9,
              mode == ExecutionMode::kCompute ? "compute" : "simulate");
  std::printf("prefill:  %d tokens, %.1f tok/s, TTFT %.1f ms\n",
              stats.prefill.tokens, stats.prefill_tokens_per_s(),
              ToMillis(stats.ttft()));
  if (decode_len > 0) {
    std::printf("decode:   %d tokens, %.2f tok/s, TPOT %.2f ms\n",
                stats.decode_tokens, stats.decode_tokens_per_s(),
                ToMillis(stats.tpot()));
  }
  std::printf("power:    %.2f W avg, %.2f J total\n", stats.avg_power_watts,
              stats.energy / 1e6);
  if (stats.prefill.graph_gen_time > 0) {
    std::printf("graphgen: %.1f ms charged at runtime\n",
                ToMillis(stats.prefill.graph_gen_time));
  }
  if (with_game) {
    workload::RenderStats rs = render.Collect(
        std::min(60e6, stats.ttft() + stats.decode_time));
    std::printf("game:     %.0f FPS delivered (%d/%d frames on time)\n",
                rs.delivered_fps, rs.frames_on_time, rs.frames_submitted);
  }

  if (report) {
    core::ExecutionReport rep = core::ExecutionReport::Build(
        platform, 0, std::max(engine->host_now(), platform.soc().now()));
    std::printf("\n%s", rep.Render().c_str());
  }

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
      return 1;
    }
    sim::WriteChromeTrace(platform.soc(), out);
    std::printf("trace:    wrote %s (open in chrome://tracing)\n",
                trace_path.c_str());
  }
  return 0;
}
