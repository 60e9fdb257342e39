// compute_w4a16: one single-session run in compute mode — real FP32/W4A16
// math through `EngineBase::Prefill` and greedy `EngineBase::DecodeStep`
// on a synthetic model under the compute-mode parameter cap. The only
// workload where the tensor kernels and the FP32 dequantization cache do
// real work; it bypasses the serving stack entirely.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "runner/report.h"
#include "runner/stats.h"
#include "runner/trace.h"
#include "runner/workloads.h"
#include "src/common/rng.h"
#include "src/core/engine_registry.h"
#include "src/core/execution_report.h"
#include "src/core/platform.h"
#include "src/model/model_config.h"
#include "src/model/weights.h"
#include "src/serve/speculative.h"
#include "src/tensor/tensor.h"

namespace perfbench {
namespace {

using heterollm::MicroSeconds;
using heterollm::Rng;
using heterollm::core::EngineBase;
using heterollm::core::ExecutionReport;
using heterollm::core::PhaseStats;
using heterollm::core::Platform;
using heterollm::model::ExecutionMode;
using heterollm::model::ModelConfig;
using heterollm::model::ModelWeights;
using heterollm::serve::Argmax;
using heterollm::serve::TokenEmbedding;
using heterollm::tensor::Tensor;

constexpr const char* kEngine = "Hetero-tensor";
constexpr int kDecodeSteps = 100;
// SLO limits on the simulated session (see sim_slo_rate_rps).
constexpr double kSloTtftMs = 1000;
constexpr double kSloTpotMs = 100;
// Bit-exactness check against the scalar reference path: prefill this
// many prompt tokens, then decode this many steps.
constexpr int kCheckPrefix = 16;
constexpr int kCheckSteps = 3;

// hidden 512 x 8 layers, GQA 4:1: ~31M parameters, under the 5e7 cap. The
// vocabulary (7936-8448 entries) comes from the seed like the prompt does:
// a decode step's simulated time does not depend on the context length, so
// without it every seed would simulate identical step times.
ModelConfig ComputeConfig(uint64_t seed) {
  Rng rng(seed ^ 0x51ed270b27f4a7c1ULL);
  const int64_t vocab = 7936 + 64 * static_cast<int64_t>(rng.NextBelow(9));
  return {"Synthetic-512x8", 512, 1408, 8, 8, 2, 64, vocab};
}

struct Inputs {
  std::vector<int32_t> prompt;  // token ids
  Tensor embeddings;            // [prompt, hidden]
};

// Prompt of 120-136 random token ids from the seed, embedded.
Inputs MakeInputs(const ModelConfig& cfg, uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  const int len = 120 + static_cast<int>(rng.NextBelow(17));
  std::vector<Tensor> rows;
  for (int i = 0; i < len; ++i) {
    const auto tok = static_cast<int32_t>(rng.NextBelow(
        static_cast<uint64_t>(cfg.vocab)));
    in.prompt.push_back(tok);
    rows.push_back(TokenEmbedding(cfg, tok, ExecutionMode::kCompute, seed));
  }
  in.embeddings = Tensor::ConcatRows(rows);
  return in;
}

std::unique_ptr<EngineBase> MakeEngine(Platform* platform,
                                       const ModelWeights* weights,
                                       int kernel_threads) {
  heterollm::core::EngineOptions opts;
  opts.kv_capacity = 512;
  opts.kernel_threads = kernel_threads;
  return heterollm::core::CreateEngine(kEngine, platform, weights, opts);
}

// Everything a session needs before its first timed token: the inputs,
// the weights, and one untimed warm-up request (a short prefill and one
// decode step) so the lazy per-weight state the kernels build on first use
// (today the FP32 dequantization cache) is paid here, as set-up.
struct Setup {
  Inputs inputs;
  std::unique_ptr<ModelWeights> weights;
  double gen_s = 0, weights_s = 0, warmup_s = 0;
  double weights_mb = 0;  // RSS delta across ModelWeights::Create
  double warmup_mb = 0;   // RSS delta across the warm-up request
  double total_s() const { return gen_s + weights_s + warmup_s; }
};

Setup MakeSetup(const ModelConfig& cfg, const RunConfig& run,
                Tracer& tracer) {
  Setup st;
  const double t0 = HostSeconds();
  {
    SpanScope span(tracer, "workload", "generate");
    st.inputs = MakeInputs(cfg, run.seed);
  }
  const double t1 = HostSeconds();
  st.gen_s = t1 - t0;
  double rss = CurrentRssMb();
  {
    SpanScope span(tracer, "model", "ModelWeights::Create");
    st.weights = std::make_unique<ModelWeights>(ModelWeights::Create(
        cfg, ExecutionMode::kCompute, run.seed, run.kernel_threads));
  }
  st.weights_mb = CurrentRssMb() - rss;
  const double t2 = HostSeconds();
  st.weights_s = t2 - t1;
  rss = CurrentRssMb();
  {
    SpanScope span(tracer, "core", "WarmUp");
    Platform platform(heterollm::core::PlatformOptionsFor(kEngine));
    auto engine = MakeEngine(&platform, st.weights.get(), run.kernel_threads);
    const PhaseStats ps =
        engine->Prefill(st.inputs.embeddings.SliceRows(0, kCheckPrefix));
    engine->DecodeStep(TokenEmbedding(
        cfg, Argmax(ps.logits, ps.logits.shape().rows() - 1),
        ExecutionMode::kCompute, run.seed));
  }
  st.warmup_mb = CurrentRssMb() - rss;
  st.warmup_s = HostSeconds() - t2;
  return st;
}

struct Session {
  // Host clock.
  double engine_s = 0;  // Platform + engine creation
  double prefill_s = 0;
  std::vector<double> step_s;
  // Simulated clock.
  MicroSeconds sim_prefill_us = 0;
  std::vector<MicroSeconds> sim_step_us;
  MicroSeconds sim_session_us = 0;
  double energy_uj = 0;
  ExecutionReport report;
  // Outputs.
  int prompt_len = 0;
  std::vector<int32_t> tokens;  // greedy continuation
  Tensor last_logits;
  int compiles_setup = 0;
  int compiles_run = 0;
  int replans = 0;

  double host_session_s() const {
    double s = prefill_s;
    for (double t : step_s) s += t;
    return s;
  }
};

std::string Fingerprint(const Session& s) {
  std::string out;
  char buf[128];
  for (int32_t t : s.tokens) {
    std::snprintf(buf, sizeof(buf), "%d,", t);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "|%.17g|%.17g|%.17g", s.sim_prefill_us,
                s.sim_session_us, s.energy_uj);
  out += buf;
  for (MicroSeconds us : s.sim_step_us) {
    std::snprintf(buf, sizeof(buf), "|%.17g", us);
    out += buf;
  }
  for (const auto& u : s.report.units) {
    std::snprintf(buf, sizeof(buf), "|%s:%.17g:%d", u.unit.c_str(), u.busy,
                  u.kernels);
    out += buf;
  }
  return out;
}

// One session on a fresh platform and engine over the set-up weights: one
// prefill of the whole prompt, then kDecodeSteps greedy decode steps.
Session RunSession(const ModelConfig& cfg, const RunConfig& run,
                   const Setup& st, Tracer& tracer) {
  Session s;
  s.prompt_len = static_cast<int>(st.inputs.prompt.size());
  double t0 = HostSeconds();
  std::unique_ptr<Platform> platform;
  std::unique_ptr<EngineBase> engine;
  {
    SpanScope span(tracer, "core", "CreateEngine");
    platform = std::make_unique<Platform>(
        heterollm::core::PlatformOptionsFor(kEngine));
    engine = MakeEngine(platform.get(), st.weights.get(), run.kernel_threads);
  }
  s.engine_s = HostSeconds() - t0;
  s.compiles_setup = engine->schedule_compiles();

  auto& soc = platform->soc();
  soc.DrainAll();
  engine->AdvanceHostTo(soc.now());
  const MicroSeconds window_start = engine->host_now();
  const auto power = soc.power().Snapshot();

  t0 = HostSeconds();
  PhaseStats ps;
  {
    SpanScope span(tracer, "core", "Prefill");
    ps = engine->Prefill(st.inputs.embeddings);
  }
  s.prefill_s = HostSeconds() - t0;
  s.sim_prefill_us = ps.latency;
  int32_t tok = Argmax(ps.logits, ps.logits.shape().rows() - 1);
  s.tokens.push_back(tok);
  for (int i = 0; i < kDecodeSteps; ++i) {
    const Tensor emb =
        TokenEmbedding(cfg, tok, ExecutionMode::kCompute, run.seed);
    t0 = HostSeconds();
    {
      SpanScope span(tracer, "core", "DecodeStep", i);
      ps = engine->DecodeStep(emb);
    }
    s.step_s.push_back(HostSeconds() - t0);
    s.sim_step_us.push_back(ps.latency);
    tok = Argmax(ps.logits, 0);
    s.tokens.push_back(tok);
  }
  s.last_logits = ps.logits;
  soc.DrainAll();
  engine->AdvanceHostTo(soc.now());
  const MicroSeconds window_end = engine->host_now();
  s.sim_session_us = window_end - window_start;
  s.energy_uj = soc.power().TotalEnergySince(power, s.sim_session_us);
  s.report = ExecutionReport::Build(*platform, window_start, window_end);
  s.compiles_run = engine->schedule_compiles() - s.compiles_setup;
  s.replans = engine->replan_events();
  return s;
}

// Prefill and the first decode logits of the threaded kernels must equal
// the scalar reference path (kernel_threads = 1) bit for bit.
bool BitExactAgainstReference(const ModelConfig& cfg, const RunConfig& run,
                              const Setup& st) {
  const Tensor prefix = st.inputs.embeddings.SliceRows(0, kCheckPrefix);
  Platform ref_platform(heterollm::core::PlatformOptionsFor(kEngine));
  Platform run_platform(heterollm::core::PlatformOptionsFor(kEngine));
  auto ref = MakeEngine(&ref_platform, st.weights.get(), 1);
  auto threaded =
      MakeEngine(&run_platform, st.weights.get(), run.kernel_threads);
  PhaseStats a = ref->Prefill(prefix);
  PhaseStats b = threaded->Prefill(prefix);
  bool exact = Tensor::MaxAbsDiff(a.logits, b.logits) == 0.0f;
  int32_t tok = Argmax(a.logits, a.logits.shape().rows() - 1);
  for (int i = 0; i < kCheckSteps && exact; ++i) {
    const Tensor emb =
        TokenEmbedding(cfg, tok, ExecutionMode::kCompute, run.seed);
    a = ref->DecodeStep(emb);
    b = threaded->DecodeStep(emb);
    exact = Tensor::MaxAbsDiff(a.logits, b.logits) == 0.0f;
    tok = Argmax(a.logits, 0);
  }
  return exact;
}

// Arithmetic of one decode step at context length `ctx`, from tensor
// sizes: matmul FLOPs over every projection and the LM head, plus
// attention (QK^T and AV). Bytes moved are computed, not measured: the FP32
// dequantized weight image is read once per token, plus the FP32 K and V
// rows attention reads.
struct StepCost {
  double flops = 0;
  double bytes = 0;
};

StepCost DecodeStepCost(const ModelConfig& c, int64_t ctx) {
  const double h = static_cast<double>(c.hidden);
  const double q = static_cast<double>(c.q_dim());
  const double kv = static_cast<double>(c.kv_dim());
  const double inter = static_cast<double>(c.intermediate);
  const double matmul_params =
      c.num_layers * (h * q + 2 * h * kv + q * h + 3 * h * inter) +
      h * static_cast<double>(c.vocab);
  const double attn_flops =
      c.num_layers * 2.0 * 2.0 * static_cast<double>(ctx) * q;
  const double kv_bytes =
      c.num_layers * 2.0 * static_cast<double>(ctx) * kv * 4.0;
  return {2.0 * matmul_params + attn_flops, 4.0 * matmul_params + kv_bytes};
}

}  // namespace

void RunCompute(const RunConfig& run, Sheet& sheet) {
  const ModelConfig cfg = ComputeConfig(run.seed);
  Tracer off(false);
  std::vector<Session> untraced, traced;
  std::vector<Tracer> tracers;
  std::vector<double> setup_s, gen_s, weights_s, warmup_s;
  auto record = [&](const Setup& st) {
    setup_s.push_back(st.total_s());
    gen_s.push_back(st.gen_s);
    weights_s.push_back(st.weights_s);
    warmup_s.push_back(st.warmup_s);
  };

  // Set-up samples first, on a fresh heap. The untraced sessions share the
  // first one's warm weights. The traced run alternates them with traced
  // passes, each of which sets up afresh under its tracer, so every layer's
  // share of a pass shows in the spans.
  const Setup setup = MakeSetup(cfg, run, off);
  record(setup);
  while (setup_s.size() < (run.setup_only ? 2u : 5u)) {
    record(MakeSetup(cfg, run, off));
  }
  if (run.setup_only) {
    sheet.Set("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()));
    return;
  }
  double peak_rss = 0;
  const double start = HostSeconds();
  while (HostSeconds() - start < run.seconds || untraced.size() < 2 ||
         (run.trace && traced.empty())) {
    if (run.trace && untraced.size() > traced.size()) {
      tracers.emplace_back(true);
      Tracer& tracer = tracers.back();
      const int root = tracer.Begin("perfbench", "pass");
      const Setup own = MakeSetup(cfg, run, tracer);
      traced.push_back(RunSession(cfg, run, own, tracer));
      tracer.End(root);
    } else {
      untraced.push_back(RunSession(cfg, run, setup, off));
    }
    // Peak memory of set-up plus one session (later ones reuse the heap).
    if (peak_rss == 0) peak_rss = PeakRssMb();
  }

  // ---- Untimed: correctness and determinism. ----------------------------
  const Session& first = untraced.front();
  sheet.attempted = 1;
  const bool complete =
      static_cast<int>(first.tokens.size()) == kDecodeSteps + 1 &&
      static_cast<int>(first.sim_step_us.size()) == kDecodeSteps;
  sheet.failed = complete ? 0 : 1;
  sheet.Check(complete, "session decoded every requested token");
  sheet.Check(BitExactAgainstReference(cfg, run, setup),
              "prefill and decode logits bit-exact vs the scalar reference "
              "path (kernel_threads = 1)");
  const std::string fp = Fingerprint(first);
  std::vector<const Session*> all;
  for (const Session& s : untraced) all.push_back(&s);
  for (const Session& s : traced) all.push_back(&s);
  for (const Session* s : all) {
    sheet.Check(Fingerprint(*s) == fp,
                "same seed reproduces every token and simulated value");
    sheet.Check(Tensor::MaxAbsDiff(s->last_logits, first.last_logits) == 0,
                "same seed reproduces the final logits bit for bit");
  }
  if (!run.trace) {
    RunConfig other = run;
    other.seed = run.seed + 1;
    const ModelConfig other_cfg = ComputeConfig(other.seed);
    const Setup other_setup = MakeSetup(other_cfg, other, off);
    sheet.Check(
        Fingerprint(RunSession(other_cfg, other, other_setup, off)) != fp,
        "a different seed changes the outputs and simulated values");
  }

  const int64_t tokens = first.prompt_len + kDecodeSteps + 1;
  const int64_t nsetup = static_cast<int64_t>(setup_s.size());
  // Host figures of the untraced sessions; every run reports them.
  std::vector<double> session_s, ttft, tpot50, tpot90;
  for (const Session& s : untraced) {
    session_s.push_back(s.host_session_s());
    ttft.push_back(s.prefill_s * 1e3);
    std::vector<double> ms;
    for (double t : s.step_s) ms.push_back(t * 1e3);
    tpot50.push_back(Percentile(ms, 50));
    tpot90.push_back(Percentile(ms, 90));
  }
  const int64_t n = static_cast<int64_t>(untraced.size());
  sheet.Set("setup_s", Median(setup_s), "s", nsetup);
  sheet.Set("peak_rss_mb", peak_rss, "MB");
  sheet.Set("host_tok_per_s", static_cast<double>(tokens) / Best(session_s),
            "1/s", n);
  sheet.Set("host_ttft_ms", Best(ttft), "ms", n);
  sheet.Set("host_tpot_p50_ms", Best(tpot50), "ms", n * kDecodeSteps);
  sheet.Set("host_tpot_p90_ms", Best(tpot90), "ms", n * kDecodeSteps);

  if (!run.trace) {
    sheet.Set("completed_ratio", complete ? 1.0 : 0.0, "ratio", 1);
    const double ttft_ms = first.sim_prefill_us / 1e3;
    const double tpot_p90_ms = Percentile(first.sim_step_us, 90) / 1e3;
    sheet.Set("sim_ttft_p50_ms", ttft_ms, "ms");
    sheet.Set("sim_ttft_p90_ms", ttft_ms, "ms");
    sheet.Set("sim_tpot_p50_ms", Percentile(first.sim_step_us, 50) / 1e3,
              "ms", kDecodeSteps);
    sheet.Set("sim_tpot_p90_ms", tpot_p90_ms, "ms", kDecodeSteps);
    const double session_ms = first.sim_session_us / 1e3;
    sheet.Set("sim_task_p50_ms", session_ms, "ms");
    sheet.Set("sim_task_p90_ms", session_ms, "ms");
    sheet.Set("sim_tok_per_s",
              static_cast<double>(tokens) / (first.sim_session_us / 1e6),
              "1/s", tokens);
    sheet.Set("sim_energy_mj_per_tok",
              first.energy_uj / 1e3 / static_cast<double>(tokens), "mJ",
              tokens);
    // Sessions per simulated second served back to back, when the session
    // meets both SLO limits.
    const bool slo_met = ttft_ms <= kSloTtftMs && tpot_p90_ms <= kSloTpotMs;
    sheet.Set("sim_slo_rate_rps", slo_met ? 1e3 / session_ms : 0, "1/s");
    return;
  }

  // ---- Traced run: per-layer metrics. -----------------------------------
  const Session& t = traced.front();
  std::vector<double> engine_s, prefill, step50, step90, untraced_s,
      traced_s;
  for (const Session* s : all) engine_s.push_back(s->engine_s);
  for (const Session& s : untraced) untraced_s.push_back(s.host_session_s());
  for (const Session& s : traced) {
    traced_s.push_back(s.host_session_s());
    prefill.push_back(s.prefill_s * 1e3);
    std::vector<double> ms;
    for (double x : s.step_s) ms.push_back(x * 1e3);
    step50.push_back(Percentile(ms, 50));
    step90.push_back(Percentile(ms, 90));
  }
  const int64_t nall = static_cast<int64_t>(all.size());
  const int64_t nt = static_cast<int64_t>(traced.size());
  sheet.Set("workload.gen_s", Median(gen_s), "s", nsetup);
  sheet.Set("workload.requests", 1, "count");
  sheet.Set("workload.prompt_tokens", t.prompt_len, "count");
  sheet.Set("workload.decode_tokens", kDecodeSteps, "count");
  sheet.Set("model.weights_create_s", Median(weights_s), "s", nsetup);
  sheet.Set("model.weights_mb", setup.weights_mb, "MB");
  sheet.Set("core.engine_create_s", Median(engine_s), "s", nall);
  sheet.Set("core.warmup_s", Median(warmup_s), "s", nsetup);
  sheet.Set("core.schedule_compiles_setup", t.compiles_setup, "count");
  sheet.Set("core.schedule_compiles_run", t.compiles_run, "count");
  sheet.Set("core.replan_events", t.replans, "count");
  sheet.Set("core.prefill_host_ms", Median(prefill), "ms", nt);
  sheet.Set("core.decode_step_host_ms_p50", Median(step50), "ms",
            nt * kDecodeSteps);
  sheet.Set("core.decode_step_host_ms_p90", Median(step90), "ms",
            nt * kDecodeSteps);
  ReportSimulatedUnits(t.report, tokens, Median(untraced_s), sheet);
  double flops = 0, bytes = 0, decode_s = 0;
  for (int i = 0; i < kDecodeSteps; ++i) {
    const StepCost c = DecodeStepCost(cfg, t.prompt_len + i + 1);
    flops += c.flops;
    bytes += c.bytes;
  }
  for (const Session& s : untraced) {
    for (double x : s.step_s) decode_s += x;
  }
  decode_s /= static_cast<double>(untraced.size());
  sheet.Set("tensor.gflop_per_tok", flops / kDecodeSteps / 1e9, "GFLOP",
            kDecodeSteps);
  sheet.Set("tensor.gb_per_tok", bytes / kDecodeSteps / 1e9, "GB",
            kDecodeSteps);
  sheet.Set("tensor.achieved_gflops", flops / decode_s / 1e9, "GFLOP/s",
            kDecodeSteps);
  sheet.Set("tensor.warmup_mb", setup.warmup_mb, "MB");
  ReportTracing(tracers, untraced_s, traced_s, run.trace_path, sheet);
}

}  // namespace perfbench
