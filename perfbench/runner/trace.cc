#include "runner/trace.h"

#include <cstdio>

#include "runner/stats.h"

namespace perfbench {

int Tracer::Begin(const char* layer, const char* name, int64_t id) {
  if (!enabled_) {
    return -1;
  }
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{layer, name, id, parent, HostSeconds(), 0, 0});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  if (!enabled_ || index < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_s = HostSeconds();
  open_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_s +=
        span.end_s - span.start_s;
  }
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    self[span.layer] += span.end_s - span.start_s - span.child_s;
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const double origin = spans_.empty() ? 0 : spans_.front().start_s;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, s.layer,
                 (s.start_s - origin) * 1e6, (s.end_s - s.start_s) * 1e6, i,
                 s.parent, static_cast<long long>(s.id));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
