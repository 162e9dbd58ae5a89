// kernel_steady: 1 thread. Setup compiles the paper's Fig. 9 set once --
// {direct, flat, sorted_ptr} x {element, line}, LLVM-fix through the
// CompileService and DBrew+LLVM through Rewriter -> Lifter -> Jit -- plus
// pattern-specialized spmv. Timing then interleaves native and specialized
// Jacobi sweeps on the 649^2 grid. The compile layers do no work while
// timing runs: a cheaper pipeline must leave these numbers unchanged, and a
// loss of code quality shows only here.
#include "dbll/dbrew/rewriter.h"
#include "dbll/lift/lifter.h"
#include "workloads.h"

namespace perfbench {

using dbll::runtime::CompileService;
using dbll::runtime::FunctionHandle;
using dbll::runtime::Tier;
namespace st = dbll::stencil;

namespace {

constexpr int kSetupRepeats = 5;
constexpr long kSpmvRows = 256;

/// One compiled kernel of the set.
struct Kernel {
  const Spec* spec = nullptr;
  std::string mode;             ///< "llvm_fix" or "dbrew_llvm"
  FunctionHandle handle;        ///< llvm_fix: served by the service
  std::uint64_t entry = 0;      ///< dbrew_llvm: the lifted DBrew output
  std::unique_ptr<dbll::dbrew::Rewriter> rewriter;  ///< owns the DBrew code
};

struct Setup {
  std::vector<std::unique_ptr<Spec>> specs;
  std::unique_ptr<dbll::lift::Jit> jit;
  std::unique_ptr<CompileService> service;
  std::vector<Kernel> kernels;
  std::uint64_t input_hash = 0;
  std::string error;
};

/// DBrew+LLVM (paper Fig. 9): DBrew specializes the kernel
/// (Spec::DbrewInput) and the lifter optimizes the rewritten code.
bool BuildDbrewLlvm(const Spec& spec, dbll::lift::Jit& jit, Kernel& kernel,
                    std::string& error) {
  dbll::runtime::CompileRequest request = spec.Request();
  request.address = spec.DbrewInput();
  auto rewriter = MakeRewriter(request);
  auto rewritten = rewriter->Rewrite();
  if (!rewritten.has_value()) {
    error = "dbrew " + spec.family() + ": " + rewritten.error().Format();
    return false;
  }
  dbll::lift::Lifter lifter;
  auto lifted = lifter.Lift(*rewritten, request.signature);
  if (!lifted.has_value()) {
    error = "lift dbrew " + spec.family() + ": " + lifted.error().Format();
    return false;
  }
  auto entry = lifted->Compile(jit);
  if (!entry.has_value()) {
    error = "jit dbrew " + spec.family() + ": " + entry.error().Format();
    return false;
  }
  kernel.entry = *entry;
  kernel.rewriter = std::move(rewriter);
  return true;
}

Setup MakeSetup(const RunConfig& config) {
  Setup setup;
  InputHash hash;
  static constexpr Kind kStencils[] = {Kind::kElemDirect, Kind::kElemFlat,
                                       Kind::kElemSortedPtr, Kind::kLineDirect,
                                       Kind::kLineFlat, Kind::kLineSortedPtr};
  for (std::size_t i = 0; i < std::size(kStencils); ++i) {
    Rng rng = Stream(config.seed, 2, i);
    setup.specs.push_back(Spec::Jacobi(kStencils[i], rng));
  }
  for (int banded = 1; banded >= 0; --banded) {
    Rng rng = Stream(config.seed, 3, static_cast<std::uint64_t>(banded));
    setup.specs.push_back(
        Spec::Sparse(Kind::kSpmvFull, banded != 0, kSpmvRows, rng, /*fixed_shape=*/true));
  }
  for (auto& spec : setup.specs) {
    if (config.negative_control) spec->CorruptReference();
    spec->Hash(hash);
  }
  setup.input_hash = hash.value();

  setup.service = std::make_unique<CompileService>(ServiceOptions(1));
  setup.jit = std::make_unique<dbll::lift::Jit>();
  for (const auto& spec : setup.specs) {
    Kernel fix;
    fix.spec = spec.get();
    fix.mode = "llvm_fix";
    fix.handle = setup.service->Request(spec->Request());
    fix.handle.wait();
    setup.kernels.push_back(std::move(fix));
    // DBrew+LLVM rows of Fig. 9 are the stencil ones.
    if (spec->kind == Kind::kSpmvFull) continue;
    Kernel dbrew;
    dbrew.spec = spec.get();
    dbrew.mode = "dbrew_llvm";
    if (!BuildDbrewLlvm(*spec, *setup.jit, dbrew, setup.error)) return setup;
    setup.kernels.push_back(std::move(dbrew));
  }
  return setup;
}

}  // namespace

Result RunKernelSteady(const RunConfig& config) {
  Result result;
  E2e e2e;
  Setup setup;
  for (int attempt = 0; attempt < kSetupRepeats; ++attempt) {
    setup = Setup();
    const std::uint64_t t0 = NowNs();
    setup = MakeSetup(config);
    e2e.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!setup.error.empty()) break;
  }
  result.input_hash = setup.input_hash;
  if (!setup.error.empty()) {
    result.attempted = 1;
    result.Fail(setup.error);
    e2e.wall_s = 1;
    e2e.Finish(kTailPercentile, result);
    return result;
  }
  CompileService& service = *setup.service;

  Grid grid(st::kMatrixSize);
  Grid want(st::kMatrixSize);
  grid.Fill(config.seed);
  want.in = grid.in;

  // Every kernel is checked on the full grid once against its generic
  // kernel before timing starts.
  for (const Kernel& k : setup.kernels) {
    ++result.attempted;
    const std::uint64_t entry =
        k.mode == "llvm_fix" ? k.handle.target() : k.entry;
    if (k.mode == "llvm_fix" && k.handle.tier() != Tier::kLlvm) {
      result.Fail("served below Tier 0: " + k.spec->family());
    } else if (!VerifyEntry(*k.spec, entry, grid, want)) {
      result.Fail("wrong output: " + k.spec->family() + "." + k.mode);
    }
  }

  // Timing: rounds over the set. In each round every kernel sweeps once
  // natively and once specialized, interleaved so drifts hit both alike.
  // LLVM-fix kernels are re-requested from the service before their sweep
  // (a memory hit), fetching target() before every call as a handle holder
  // does.
  const double timed_s = config.trace ? config.seconds / 2 : config.seconds;
  const double cpu0 = CpuSeconds();
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(timed_s * 1e9);
  std::uint64_t round = 0;
  while (NowNs() < deadline) {
    for (const Kernel& k : setup.kernels) {
      const Spec& spec = *k.spec;
      const long calls = spec.Calls(grid.rows);
      const std::uint64_t n0 = NowNs();
      for (long c = 0; c < calls; ++c) {
        spec.Call(spec.generic(), grid.in.data(), want.out.data(),
                  spec.RowOf(c, grid.rows));
      }
      const std::uint64_t n1 = NowNs();
      // t0: Request(); tr: first call; t1: first call returned; t2: sweep done.
      std::uint64_t t0 = 0;
      std::uint64_t tr = 0;
      std::uint64_t t1 = 0;
      if (k.mode == "llvm_fix") {
        t0 = NowNs();
        const FunctionHandle handle = service.Request(spec.Request());
        tr = NowNs();
        spec.Call(handle.target(), grid.in.data(), grid.out.data(),
                  spec.RowOf(0, grid.rows));
        t1 = NowNs();
        for (long c = 1; c < calls; ++c) {
          spec.Call(handle.target(), grid.in.data(), grid.out.data(),
                    spec.RowOf(c, grid.rows));
        }
      } else {
        tr = NowNs();
        for (long c = 0; c < calls; ++c) {
          spec.Call(k.entry, grid.in.data(), grid.out.data(),
                    spec.RowOf(c, grid.rows));
        }
      }
      const std::uint64_t t2 = NowNs();
      if (k.mode == "llvm_fix") {
        e2e.ttfsc_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        e2e.job_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
        e2e.kernel.push_back(spec.family());
        ++e2e.requests;
      }
      // The Request() hit is part of the job, not of the per-call cost.
      const double spec_ns = static_cast<double>(t2 - tr) / static_cast<double>(calls);
      const double native_ns =
          static_cast<double>(n1 - n0) / static_cast<double>(calls);
      const std::string family = spec.family() + "." + k.mode;
      e2e.call_ns[family].push_back(spec_ns);
      e2e.native_ns[family].push_back(native_ns);
      e2e.single_call[family] = spec.SingleInvocation();
      // Spot check of every sweep: one output row (stencil) or the product.
      ++result.attempted;
      const long row = spec.RowOf(static_cast<long>(round) % calls, grid.rows);
      spec.CallReference(grid.in.data(), want.out.data(), row);
      std::size_t begin = 0;
      std::size_t end = static_cast<std::size_t>(kSpmvRows);
      if (spec.kind != Kind::kSpmvFull) {
        begin = static_cast<std::size_t>(row * st::kMatrixSize + 1);
        end = begin + static_cast<std::size_t>(st::kMatrixSize - 2);
      }
      for (std::size_t i = begin; i < end; ++i) {
        if (!Close(grid.out[i], want.out[i])) {
          result.Fail("wrong output: " + family);
          break;
        }
      }
    }
    ++round;
  }
  e2e.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  e2e.cpu_s = CpuSeconds() - cpu0;
  e2e.Finish(kTailPercentile, result);

  if (config.trace) {
    Untraced untraced;
    untraced.ttfsc_p50_ms = e2e.P50(e2e.ttfsc_ms);
    untraced.job_p50_ms = e2e.P50(e2e.job_ms);
    untraced.stats = service.stats();
    TracePlan plan;
    for (const auto& spec : setup.specs) plan.specs.push_back(spec.get());
    // Served as in the timed run: every key stays in memory.
    plan.serve_population = plan.specs.size();
    plan.serve_capacity = plan.specs.size();
    for (std::uint32_t i = 0; i < 4096; ++i) {
      plan.serve_draws.push_back(i % static_cast<std::uint32_t>(plan.specs.size()));
    }
    plan.path = {"runtime.request", "call.first", "call.rows"};
    plan.seconds = config.seconds / 2;
    plan.full_grid = true;
    RunTraced(config, plan, untraced, result);
  }
  return result;
}

}  // namespace perfbench
