// perfbench -- spans recorded around calls into the program's layers.
//
// The traced run wraps each call into a layer's public API in a span: name,
// start, end, parent span and the id of the request the span belongs to.
// Spans stay in memory until the run ends; then the run reports every
// layer's self time (span duration minus the part its child spans cover) and
// writes them as chrome-trace JSON. Recording is single-threaded: the traced
// replay drives the layers from one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 for roots
  std::uint32_t request = 0;
  std::uint32_t depth = 0;
  std::uint64_t duration() const { return end_ns - start_ns; }
};

class SpanLog {
 public:
  /// Starts a new request: the spans opened until the next call share its id.
  void NewRequest() { ++request_; }

  std::int32_t Begin(std::string name);
  void End(std::int32_t index);

  /// RAII span.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name)
        : log_(log), index_(log.Begin(std::move(name))) {}
    ~Scope() { log_.End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t elapsed_ns() const {
      return NowNs() - log_.spans_[static_cast<std::size_t>(index_)].start_ns;
    }

   private:
    SpanLog& log_;
    std::int32_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus its direct children's.
  std::vector<std::uint64_t> SelfTimes() const;
  /// Durations of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Per request: the summed self time of spans whose name is in `names`.
  std::map<std::uint32_t, double> SelfTimeByRequest(
      const std::vector<std::string>& names) const;
  /// Summed self time per layer (the span name up to the first '.').
  std::map<std::string, double> SelfTimeByLayer() const;
  /// Per request: the duration of its root span named `root`.
  std::map<std::uint32_t, double> RootDurations(const std::string& root) const;

  /// Writes the chrome://tracing "X" event JSON. Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint32_t request_ = 0;
};

}  // namespace perfbench
