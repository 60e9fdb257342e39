#include "src/workload/render_workload.h"

#include <algorithm>

namespace heterollm::workload {

RenderWorkload::RenderWorkload(core::Platform* platform,
                               const RenderConfig& config)
    : platform_(platform), config_(config) {
  HCHECK(platform != nullptr);
  HCHECK(config.target_fps > 0 && config.frame_gpu_time_us > 0);
}

void RenderWorkload::SubmitFrames(MicroSeconds duration) {
  const MicroSeconds period = kMicrosPerSecond / config_.target_fps;
  const int draws = std::max(1, config_.draw_calls_per_frame);
  hal::GpuDevice& gpu = platform_->gpu();
  for (MicroSeconds vsync = 0; vsync < duration; vsync += period) {
    Frame frame;
    frame.vsync = vsync;
    for (int d = 0; d < draws; ++d) {
      sim::KernelDesc desc;
      desc.label = "render-draw";
      desc.compute_time = config_.frame_gpu_time_us / draws;
      // Texture/geometry traffic, modest relative to compute.
      desc.memory_bytes =
          20e6 * config_.frame_gpu_time_us / 16667.0 / draws;
      desc.launch_overhead = 2.0;
      // Collect reads the frame's completion long after it retired.
      desc.keep_times = d == draws - 1;
      // The game thread records and submits command buffers over the course
      // of the frame, so draws spread across ~70% of the period and other
      // queues' kernels interleave between them.
      const MicroSeconds submit_at =
          vsync + 0.7 * period * d / static_cast<double>(draws);
      frame.last_kernel = gpu.Submit(desc, submit_at);
    }
    frames_.push_back(frame);
  }
}

RenderStats RenderWorkload::Collect(MicroSeconds window) {
  platform_->soc().DrainAll();
  const MicroSeconds period = kMicrosPerSecond / config_.target_fps;
  const MicroSeconds deadline = period * config_.deadline_periods;

  RenderStats stats;
  MicroSeconds latency_sum = 0;
  for (const Frame& frame : frames_) {
    if (frame.vsync >= window) {
      continue;
    }
    ++stats.frames_submitted;
    const MicroSeconds done =
        platform_->soc().CompletionTime(frame.last_kernel);
    const MicroSeconds latency = done - frame.vsync;
    latency_sum += latency;
    stats.max_frame_latency = std::max(stats.max_frame_latency, latency);
    if (latency <= deadline) {
      ++stats.frames_on_time;
    }
  }
  if (stats.frames_submitted > 0) {
    stats.avg_frame_latency = latency_sum / stats.frames_submitted;
    stats.delivered_fps = stats.frames_on_time / ToSeconds(window);
  }
  return stats;
}

}  // namespace heterollm::workload
