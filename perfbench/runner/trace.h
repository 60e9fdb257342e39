// In-memory span recorder for the traced run.
//
// The runner wraps each call it makes into the program's public API in a
// span: name, layer (the repository module the call belongs to), host
// start/end, the enclosing span, and the request or round id where one
// exists. Spans stay in memory while the run executes and are written out
// once it ends. A disabled tracer records nothing; the untraced run uses
// one so both runs execute the same runner code.

#ifndef PERFBENCH_RUNNER_TRACE_H_
#define PERFBENCH_RUNNER_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled). `layer` and `name` must be string literals.
  int Begin(const char* layer, const char* name, int64_t id = -1);
  // Closes span `index` (which must be the innermost open one).
  void End(int index);

  // Host seconds each layer spent in its own spans minus the time their
  // child spans cover.
  std::map<std::string, double> SelfSecondsByLayer() const;
  size_t span_count() const { return spans_.size(); }

  // Writes every span as Chrome trace-event JSON ("X" events; the parent
  // index and id travel in "args"). Returns false if the file cannot be
  // written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    const char* name;
    int64_t id;
    int parent;
    double start_s;
    double end_s;
    double child_s;  // summed duration of direct children
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span: opens on construction, closes on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* layer, const char* name,
            int64_t id = -1)
      : tracer_(tracer), index_(tracer.Begin(layer, name, id)) {}
  ~SpanScope() { tracer_.End(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_TRACE_H_
