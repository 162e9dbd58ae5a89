// tiered_jobs: 1 client, 2 workers, tiering and containment on. Each job
// requests a fresh seeded specialization, then makes a seeded number of row
// calls through target(), drawn log-uniformly across the promotion threshold
// and past breakeven. The only workload where the interim DBrew seed,
// Tier-0a, promotion, guard stubs and probation do work. The client does
// not wait for a job's background Tier-0a and promotion compiles: the next
// job's interim seed queues behind them, as it would for a caller that
// specializes faster than the workers drain. (Waiting for an idle service
// instead made every job pay thread wake-ups, whose latency on a shared VM
// swung the job metrics by a third between runs.)
#include <algorithm>
#include <cmath>

#include "workloads.h"

namespace perfbench {

using dbll::runtime::CompileService;
using dbll::runtime::FunctionHandle;
using dbll::runtime::Tier;

namespace {

constexpr int kWorkers = 2;
constexpr std::size_t kJobPool = 4000;
constexpr long kMinCalls = 16;
constexpr long kMaxCalls = 1 << 16;
constexpr int kSetupRepeats = 5;
/// Calls of the native kernel timed per job for speedup_vs_native.
constexpr long kNativeCalls = 64;

struct Job {
  std::unique_ptr<Spec> spec;
  long calls = 0;
};

struct Setup {
  std::vector<Job> jobs;
  std::unique_ptr<CompileService> service;
  std::uint64_t input_hash = 0;
};

CompileService::Options TieredOptions() {
  CompileService::Options options = ServiceOptions(kWorkers);
  options.tiering.enabled = true;
  options.containment.enabled = true;
  return options;
}

Setup MakeSetup(const RunConfig& config) {
  Setup setup;
  InputHash hash;
  static constexpr Kind kKinds[] = {Kind::kLineFlat, Kind::kLineSorted,
                                    Kind::kLineSortedPtr, Kind::kSpmvRow};
  // Job lengths are stratified: a seeded offset plus golden-ratio steps
  // through [0, 1), mapped log-uniformly onto [kMinCalls, kMaxCalls], so every
  // seed covers the range evenly; kernels cycle through the four families.
  const double offset = Stream(config.seed, 6, kJobPool).Uniform();
  const double lo = std::log(static_cast<double>(kMinCalls));
  const double hi = std::log(static_cast<double>(kMaxCalls));
  for (std::size_t i = 0; i < kJobPool; ++i) {
    Rng rng = Stream(config.seed, 6, i);
    Job job;
    const Kind kind = kKinds[i % std::size(kKinds)];
    job.spec = kind == Kind::kSpmvRow
                   ? Spec::Sparse(kind, i % 8 == 3, rng.Range(32, 96), rng)
                   : Spec::Stencil(kind, rng);
    const double u = std::fmod(offset + 0.6180339887498949 * static_cast<double>(i), 1.0);
    job.calls = std::clamp(static_cast<long>(std::exp(lo + (hi - lo) * u)), kMinCalls, kMaxCalls);
    if (config.negative_control && i % 4 == 0) job.spec->CorruptReference();
    job.spec->Hash(hash);
    hash.AddValue(job.calls);
    setup.jobs.push_back(std::move(job));
  }
  setup.input_hash = hash.value();
  setup.service = std::make_unique<CompileService>(TieredOptions());
  return setup;
}

bool Specialized(Tier tier) { return tier == Tier::kBaseline || tier == Tier::kLlvm; }

}  // namespace

Result RunTieredJobs(const RunConfig& config) {
  Result result;
  E2e e2e;
  Setup setup;
  for (int attempt = 0; attempt < kSetupRepeats; ++attempt) {
    setup = Setup();
    const std::uint64_t t0 = NowNs();
    setup = MakeSetup(config);
    e2e.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  result.input_hash = setup.input_hash;
  CompileService& service = *setup.service;

  Grid grid(kSmallRows);
  Grid first(kSmallRows);
  Grid want(kSmallRows);
  grid.Fill(config.seed);
  first.in = grid.in;

  const double timed_s = config.trace ? config.seconds / 2 : config.seconds;
  const double cpu0 = CpuSeconds();
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(timed_s * 1e9);
  for (const Job& job : setup.jobs) {
    if (NowNs() >= deadline) break;
    const Spec& spec = *job.spec;
    const dbll::runtime::CompileRequest request = spec.Request();

    const std::uint64_t t0 = NowNs();
    const FunctionHandle handle = service.Request(request);
    handle.wait();
    const Tier first_tier = handle.tier();
    spec.Call(handle.target(), grid.in.data(), first.out.data(), spec.RowOf(0, grid.rows));
    const std::uint64_t t1 = NowNs();
    for (long k = 1; k < job.calls; ++k) {
      spec.Call(handle.target(), grid.in.data(), grid.out.data(), spec.RowOf(k, grid.rows));
    }
    const std::uint64_t t2 = NowNs();
    const long native_calls = std::min(job.calls, kNativeCalls);
    for (long k = 0; k < native_calls; ++k) {
      spec.Call(spec.generic(), grid.in.data(), want.out.data(), spec.RowOf(k, grid.rows));
    }
    const std::uint64_t t3 = NowNs();

    e2e.ttfsc_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    e2e.job_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    if (job.calls > 1) {
      e2e.AddCalls(spec, static_cast<double>(t2 - t1) / static_cast<double>(job.calls - 1),
                   static_cast<double>(t3 - t2) / static_cast<double>(native_calls));
    }
    ++e2e.requests;

    // Checks: the first call ran a specialized tier, the handle never
    // failed, and every output -- the first call's row and the last value
    // of every row the job touched -- matches the generic kernel.
    ++result.attempted;
    const long touched = std::min(job.calls, spec.Calls(grid.rows));
    for (long k = 0; k < spec.Calls(grid.rows); ++k) {
      spec.CallReference(grid.in.data(), want.out.data(), spec.RowOf(k, grid.rows));
    }
    bool ok = true;
    const std::size_t width = static_cast<std::size_t>(dbll::stencil::kMatrixSize);
    auto rows_match = [&](const Grid& got, long k_begin, long k_end) {
      for (long k = k_begin; k < k_end; ++k) {
        const long row = spec.RowOf(k, grid.rows);
        const bool sparse = spec.kind == Kind::kSpmvRow;
        const std::size_t begin = sparse ? static_cast<std::size_t>(row)
                                         : static_cast<std::size_t>(row) * width + 1;
        const std::size_t end = sparse ? begin + 1 : begin + width - 2;
        for (std::size_t i = begin; i < end; ++i) {
          if (!Close(got.out[i], want.out[i])) return false;
        }
      }
      return true;
    };
    if (!Specialized(first_tier)) {
      result.Fail("first call served by tier " +
                  std::string(dbll::runtime::ToString(first_tier)) + ": " + spec.family());
      ok = false;
    } else if (handle.state() == FunctionHandle::State::kFailed) {
      result.Fail("handle failed: " + spec.family());
      ok = false;
    }
    if (ok && (!rows_match(first, 0, 1) || !rows_match(grid, 1, touched))) {
      result.Fail("wrong output: " + spec.family());
    }
  }
  e2e.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  e2e.cpu_s = CpuSeconds() - cpu0;
  service.WaitIdle();
  e2e.Finish(kTailPercentile, result);

  if (config.trace) {
    Untraced untraced;
    untraced.ttfsc_p50_ms = e2e.P50(e2e.ttfsc_ms);
    untraced.job_p50_ms = e2e.P50(e2e.job_ms);
    untraced.stats = service.stats();
    TracePlan plan;
    for (const Job& job : setup.jobs) {
      plan.specs.push_back(job.spec.get());
      plan.job_calls.push_back(job.calls);
    }
    plan.path = {"analysis.audit", "dbrew.rewrite", "call.first", "call.rows"};
    plan.seconds = config.seconds / 2;
    RunTraced(config, plan, untraced, result);
  }
  return result;
}

}  // namespace perfbench
