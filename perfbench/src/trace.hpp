// Outside-in span tracing for the traced run.
//
// Spans are recorded by the harness around its calls into each layer's
// public functions; nothing inside the library is instrumented. Spans live
// in memory (one harness thread records them) and are written out when the
// run ends. A disabled tracer records nothing, so the untraced run pays one
// branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0` on the wall clock.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;      ///< "<layer>.<call>", the layer being a src/ module
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int64_t parent{-1};   ///< index of the enclosing span; -1 for a root
  std::int64_t request{-1};  ///< block / window / deployment index; -1 if none

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Per-layer accounting of a finished trace.
struct TraceSummary {
  /// Self time (duration minus the part its child spans cover) summed per
  /// span name.
  std::map<std::string, double> self_s;
  double root_wall_s{0};       ///< summed duration of the root spans
  double self_total_s{0};      ///< every span's self time, summed
  double unaccounted_pct{0};   ///< root spans' own self time / root wall
  /// Structural problems: a child outside its parent, overlapping siblings,
  /// an unclosed span. Empty for a well-formed trace.
  std::vector<std::string> problems;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::int64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  ///< null when tracing is off
    std::size_t index_{0};
  };

  Scope span(const char* name, std::int64_t request = -1) {
    return Scope(enabled_ ? this : nullptr, name, request);
  }

  /// Self times per span name plus the tie-out of self times against the
  /// root spans' wall time.
  TraceSummary summarize() const;

  /// Writes the spans as Chrome trace-event JSON (viewable in Perfetto).
  /// Returns false if the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

}  // namespace perfbench
