#include "trace.hpp"

#include <algorithm>
#include <cstdio>

#include "report.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::int64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = tracer_->open_.empty() ? -1 : static_cast<std::int64_t>(tracer_->open_.back());
  span.start_ns = tracer_->now_ns();
  span.end_ns = -1;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
}

TraceSummary Tracer::summarize() const {
  TraceSummary out;
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  std::vector<std::int64_t> last_child_end(spans_.size(), -1);
  // Spans are stored in open order, so every parent precedes its children
  // and siblings appear in start order.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) {
      out.problems.push_back("span " + s.name + " never closed");
      continue;
    }
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    const Span& parent = spans_[p];
    if (s.start_ns < parent.start_ns || (parent.end_ns >= 0 && s.end_ns > parent.end_ns)) {
      out.problems.push_back("span " + s.name + " escapes its parent " + parent.name);
    }
    if (s.start_ns < last_child_end[p]) {
      out.problems.push_back("span " + s.name + " overlaps a sibling under " + parent.name);
    }
    last_child_end[p] = s.end_ns;
    child_ns[p] += s.duration_ns();
  }
  double root_self_s = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;
    const double self = static_cast<double>(s.duration_ns() - child_ns[i]) / 1e9;
    out.self_s[s.name] += self;
    out.self_total_s += self;
    if (s.parent < 0) {
      out.root_wall_s += static_cast<double>(s.duration_ns()) / 1e9;
      root_self_s += self;
    }
  }
  out.unaccounted_pct = out.root_wall_s > 0 ? 100.0 * root_self_s / out.root_wall_s : 0;
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"name\": ";
    append_json_string(out, s.name);
    out += ", \"ts\": ";
    append_json_number(out, static_cast<double>(s.start_ns) / 1e3);
    out += ", \"dur\": ";
    append_json_number(out, static_cast<double>(std::max<std::int64_t>(0, s.duration_ns())) / 1e3);
    out += ", \"args\": {\"id\": " + std::to_string(i) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"request\": " + std::to_string(s.request) + "}}";
  }
  out += "\n]}\n";
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
