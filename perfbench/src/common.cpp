#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "workloads.h"

namespace perfbench {

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void E2e::AddCalls(const Spec& spec, double spec_ns, double native) {
  call_ns[spec.family()].push_back(spec_ns);
  native_ns[spec.family()].push_back(native);
  single_call[spec.family()] = spec.SingleInvocation();
}

void E2e::Merge(const E2e& other) {
  setup_s.insert(setup_s.end(), other.setup_s.begin(), other.setup_s.end());
  ttfsc_ms.insert(ttfsc_ms.end(), other.ttfsc_ms.begin(), other.ttfsc_ms.end());
  job_ms.insert(job_ms.end(), other.job_ms.begin(), other.job_ms.end());
  for (const auto& [family, v] : other.call_ns) {
    call_ns[family].insert(call_ns[family].end(), v.begin(), v.end());
  }
  for (const auto& [family, v] : other.native_ns) {
    native_ns[family].insert(native_ns[family].end(), v.begin(), v.end());
  }
  single_call.insert(other.single_call.begin(), other.single_call.end());
  requests += other.requests;
}

namespace {

/// Geomean over kernels of `stat` applied to each kernel's samples.
template <typename Stat>
double PerKernel(const std::vector<double>& samples, const std::vector<std::string>& kernel,
                 Stat stat) {
  std::map<std::string, std::vector<double>> groups;
  for (std::size_t i = 0; i < samples.size() && i < kernel.size(); ++i) {
    groups[kernel[i]].push_back(samples[i]);
  }
  std::vector<double> values;
  for (const auto& [name, v] : groups) values.push_back(stat(v));
  return Geomean(values);
}

}  // namespace

double E2e::P50(const std::vector<double>& samples) const {
  if (kernel.empty()) return Median(samples);
  return PerKernel(samples, kernel, [](const std::vector<double>& v) { return Median(v); });
}

double E2e::Tail(const std::vector<double>& samples, double pct) const {
  if (kernel.empty()) return Percentile(samples, pct);
  return PerKernel(samples, kernel,
                   [pct](const std::vector<double>& v) { return Percentile(v, pct); });
}

void E2e::Finish(double tail_pct, Result& result) const {
  std::vector<double> call;
  std::vector<double> speedup;
  for (const auto& [family, v] : call_ns) {
    const double spec = Median(v);
    if (spec <= 0) continue;
    const auto single = single_call.find(family);
    if (single != single_call.end() && single->second) call.push_back(spec);
    const auto native = native_ns.find(family);
    if (native != native_ns.end() && !native->second.empty()) {
      speedup.push_back(Median(native->second) / spec);
    }
  }
  const double n = static_cast<double>(std::max<std::uint64_t>(requests, 1));
  result.Put("setup_s", Median(setup_s), "s");
  result.Put("ttfsc_p50_ms", P50(ttfsc_ms), "ms");
  result.Put("ttfsc_tail_ms", Tail(ttfsc_ms, tail_pct), "ms");
  result.Put("requests_per_s", static_cast<double>(requests) / wall_s, "1/s");
  result.Put("job_ms_p50", P50(job_ms), "ms");
  result.Put("job_tail_ms", Tail(job_ms, tail_pct), "ms");
  result.Put("call_ns_p50", Geomean(call), "ns");
  result.Put("speedup_vs_native", Geomean(speedup), "x");
  result.Put("cpu_ms_per_request", cpu_s * 1e3 / n, "ms");
  result.Put("peak_rss_mb", PeakRssMb(), "MB");
  if (static_cast<double>(ttfsc_ms.size()) * (100 - tail_pct) / 100 < 10) {
    result.notes.push_back("tail percentile has fewer than 10 samples beyond it");
  }
}

dbll::runtime::CompileService::Options ServiceOptions(int workers) {
  dbll::runtime::CompileService::Options options;
  options.workers = workers;
  return options;
}

std::unique_ptr<dbll::dbrew::Rewriter> MakeRewriter(
    const dbll::runtime::CompileRequest& request) {
  using dbll::runtime::SpecAction;
  auto rewriter = std::make_unique<dbll::dbrew::Rewriter>(request.address);
  for (const SpecAction& spec : request.specs) {
    if (spec.kind == SpecAction::Kind::kParam) {
      rewriter->SetParam(spec.index, spec.value);
      continue;
    }
    if (spec.kind == SpecAction::Kind::kConstMem) rewriter->SetParam(spec.index, spec.mem_addr);
    rewriter->SetMemRange(spec.mem_addr, spec.mem_addr + spec.bytes.size());
  }
  return rewriter;
}

bool VerifyEntry(const Spec& spec, std::uint64_t entry, Grid& grid,
                 Grid& want) {
  const long calls = spec.Calls(grid.rows);
  for (long k = 0; k < calls; ++k) {
    const long row = spec.RowOf(k, grid.rows);
    spec.Call(entry, grid.in.data(), grid.out.data(), row);
    spec.CallReference(grid.in.data(), want.out.data(), row);
  }
  return spec.OutputsMatch(grid, want);
}

}  // namespace perfbench
