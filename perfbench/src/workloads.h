// perfbench -- the four workloads and what they share.
//
//   compile_storm  distinct specializations, full compile on every request
//   kernel_steady  the Fig. 9 kernel set, compiled once, swept repeatedly
//   warm_serving   Zipf requests over a persisted population: memory, shm
//                  and disk cache tiers, no compiles
//   tiered_jobs    tiering + containment on: interim DBrew seed, Tier-0a,
//                  promotion, guard and probation stubs
//
// Each workload runs once untraced (the end-to-end metrics), and with
// --trace 1 additionally replays its inputs through the layer APIs with
// spans (layers.cpp), reporting per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dbll/dbrew/rewriter.h"
#include "dbll/runtime/compile_service.h"
#include "inputs.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupt the reference description of some stencil inputs: every check
  /// of those must fail, proving the checker fires.
  bool negative_control = false;
  /// Private scratch directory of this run (persist dirs, shm rings).
  std::string work_dir;
  /// Where the traced run writes its chrome trace.
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t input_hash = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  void Put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    ++failed;
    if (notes.size() < 8) notes.push_back(why);
  }
};

/// Raw samples of the end-to-end metrics, turned into metrics by Finish().
struct E2e {
  std::vector<double> setup_s;
  std::vector<double> ttfsc_ms;
  std::vector<double> job_ms;
  /// Per kernel family: specialized / native per-call nanoseconds.
  std::map<std::string, std::vector<double>> call_ns;
  std::map<std::string, std::vector<double>> native_ns;
  /// Families whose call is one kernel invocation: only these feed
  /// call_ns_p50 (element rows feed the speedup only).
  std::map<std::string, bool> single_call;
  std::uint64_t requests = 0;
  double wall_s = 0;
  double cpu_s = 0;
  /// Kernel of each ttfsc/job sample, or empty. kernel_steady re-requests
  /// eight fixed kernels whose costs form separate clusters, and a median
  /// over the mixture lands on a cluster edge; with kernels given, the p50
  /// and the tail are geomeans over kernels of the per-kernel statistic.
  std::vector<std::string> kernel;
  /// The reported p50 and tail of `samples` (ttfsc_ms or job_ms).
  double P50(const std::vector<double>& samples) const;
  double Tail(const std::vector<double>& samples, double pct) const;
  /// Records one specialized and one native per-call time of `spec`.
  void AddCalls(const Spec& spec, double spec_ns, double native_ns);
  void Merge(const E2e& other);
  /// Fills the end-to-end metrics of `result`; `tail_pct` is the tail
  /// percentile (kTailPercentile).
  void Finish(double tail_pct, Result& result) const;
};

/// Process user+sys CPU seconds so far.
double CpuSeconds();
/// Peak resident set in MB.
double PeakRssMb();

double Median(std::vector<double> v);
double Percentile(std::vector<double> v, double pct);
double Geomean(const std::vector<double>& v);

/// Tail percentile of ttfsc_tail_ms / job_tail_ms on every workload (see
/// "tail" in perfbench/metrics.json). p90 rather than the highest percentile
/// with ten samples beyond it: on a shared VM, host CPU steal moved p95 of
/// compile_storm by up to a third between runs (p90: 0.15 of the median), and
/// warm_serving's slowest requests are disk loads, which swing with the
/// host's file system.
constexpr double kTailPercentile = 90;


/// Options of a service built by the benchmark: the environment has been
/// cleared, so these are the library defaults unless set here.
dbll::runtime::CompileService::Options ServiceOptions(int workers);

/// DBrew rewriter for `request`, fixations mapped as the Tier-1 fallback
/// maps them: parameters to SetParam, memory regions to SetParam of the
/// region address plus SetMemRange.
std::unique_ptr<dbll::dbrew::Rewriter> MakeRewriter(
    const dbll::runtime::CompileRequest& request);

/// Runs one pass of `spec` over `grid` with `entry` and the reference pass
/// into `want`; true when the outputs agree.
bool VerifyEntry(const Spec& spec, std::uint64_t entry, Grid& grid,
                 Grid& want);

Result RunCompileStorm(const RunConfig& config);
Result RunKernelSteady(const RunConfig& config);
Result RunWarmServing(const RunConfig& config);
Result RunTieredJobs(const RunConfig& config);

/// --- traced replay (layers.cpp) ------------------------------------------

/// The untraced figures the traced run relates its spans to.
struct Untraced {
  double ttfsc_p50_ms = 0;
  double job_p50_ms = 0;
  dbll::runtime::CacheStats stats;
};

/// Drives `specs` through the layer APIs with spans, adds every per-layer
/// metric to `result` and writes the chrome trace.
struct TracePlan {
  std::vector<const Spec*> specs;          ///< replayed in this order
  std::vector<long> job_calls;             ///< per spec: calls of its job
  /// The spans on this workload's request path, in order, ending with
  /// "call.first" (the first specialized call) and optionally "call.rows"
  /// (the job's remaining calls). Their self times are compared with the
  /// untraced ttfsc_p50_ms / job_ms_p50.
  std::vector<std::string> path;
  /// Serving replay: the first `serve_population` inputs, Zipf key draws
  /// (empty: drawn from the seed), memory capacity and shm slots (0: half
  /// and two thirds of the population).
  std::size_t serve_population = 12;
  std::vector<std::uint32_t> serve_draws;
  std::size_t serve_capacity = 0;
  std::uint32_t serve_shm_slots = 0;
  double seconds = 5;
  /// Kernel calls run on the full 649^2 grid instead of the small one.
  bool full_grid = false;
};
void RunTraced(const RunConfig& config, const TracePlan& plan,
               const Untraced& untraced, Result& result);

}  // namespace perfbench
