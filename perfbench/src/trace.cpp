#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::int32_t SpanLog::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.depth = static_cast<std::uint32_t>(open_.size());
  spans_.push_back(std::move(span));
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  // Take the clock last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanLog::End(std::int32_t index) {
  const std::uint64_t now = NowNs();
  spans_[static_cast<std::size_t>(index)].end_ns = now;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<std::uint64_t> SpanLog::SelfTimes() const {
  std::vector<std::uint64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration();
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    std::uint64_t& parent = self[static_cast<std::size_t>(span.parent)];
    parent -= std::min(parent, span.duration());
  }
  return self;
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(static_cast<double>(span.duration()));
  }
  return out;
}

std::map<std::uint32_t, double> SpanLog::SelfTimeByRequest(
    const std::vector<std::string>& names) const {
  const std::vector<std::uint64_t> self = SelfTimes();
  std::map<std::uint32_t, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    for (const std::string& name : names) {
      if (spans_[i].name == name) {
        out[spans_[i].request] += static_cast<double>(self[i]);
        break;
      }
    }
  }
  return out;
}

std::map<std::string, double> SpanLog::SelfTimeByLayer() const {
  const std::vector<std::uint64_t> self = SelfTimes();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    out[name.substr(0, name.find('.'))] += static_cast<double>(self[i]);
  }
  return out;
}

std::map<std::uint32_t, double> SpanLog::RootDurations(
    const std::string& root) const {
  std::map<std::uint32_t, double> out;
  for (const Span& span : spans_) {
    if (span.parent < 0 && span.name == root) {
      out[span.request] = static_cast<double>(span.duration());
    }
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\": [", file);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": "
                 "{\"depth\": %u, \"request\": %u, \"parent\": %d}}",
                 i == 0 ? "" : ",", span.name.c_str(),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.duration()) / 1e3, span.depth,
                 span.request, span.parent);
  }
  std::fputs("\n], \"displayTimeUnit\": \"ns\"}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
