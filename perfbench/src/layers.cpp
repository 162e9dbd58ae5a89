// perfbench -- the traced run: the workload's inputs driven through each
// layer's public API, one span per call.
//
//   A. pipeline replay   every input through x86 (BuildCfg, DecodeOne),
//                        analysis (AuditFunction, ComputeRanges), lift
//                        (Lift + Specialize*, Optimize, Compile,
//                        TakeCapturedObject, the tier0a preset), runtime
//                        (ObjectStore::Store, LoadCachedObject), dbrew
//                        (Rewriter::Rewrite) and the first/remaining calls;
//   B. serving replay    Request() against a persisted population, classed
//                        as memory / shm / disk hit by the stats() delta,
//                        and FunctionHandle::target() cost;
//   C. kernel probe      the Fig. 9 kernel set and pattern-specialized spmv,
//                        swept on the 649^2 grid (stencil, spmv);
//   D. tiering probe     target() on tiered handles, promotions.
//
// Each phase opens one root span per request. The spans on the workload's
// request path (TracePlan::path) run first, in path order, so the traced
// time to the first call can be compared with the untraced one.
#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <set>

#include "dbll/analysis/audit.h"
#include "dbll/analysis/ranges.h"
#include "dbll/dbrew/rewriter.h"
#include "dbll/lift/lifter.h"
#include "dbll/runtime/object_store.h"
#include "dbll/support/cpu_features.h"
#include "dbll/x86/cfg.h"
#include "dbll/x86/decoder.h"
#include "workloads.h"

namespace perfbench {

using dbll::runtime::CompileRequest;
using dbll::runtime::CompileService;
using dbll::runtime::FunctionHandle;
using dbll::runtime::SpecAction;
namespace lift = dbll::lift;
namespace st = dbll::stencil;

namespace {

/// Keeps the fetched targets observable so the fetch loop is not elided.
volatile std::uint64_t target_sink = 0;

/// Samples and counts gathered at the layer boundaries.
struct Layers {
  std::uint64_t insns = 0;
  std::vector<double> insns_per_function;
  std::uint64_t decode_ns = 0;
  std::uint64_t audits = 0;
  std::uint64_t eligible = 0;
  std::vector<double> ir_pre;
  std::vector<double> ir_post;
  std::vector<double> object_bytes;
  std::uint64_t rewrites = 0;
  std::uint64_t rewrite_failures = 0;
  std::vector<double> code_bytes;
  std::vector<double> hit_ns, shm_ns, disk_ns;
  std::vector<double> target_ns, target_tiered_ns;
  std::vector<std::pair<std::string, double>> per_point;  // name, ns
  std::uint64_t pipeline_failures = 0;
};

/// Mirror of the compile service's memory specialization: regions whose
/// snapshots hold proven pointers into each other are specialized as one
/// linked graph, otherwise each parameter-bound region on its own.
dbll::Status SpecializeMemory(lift::LiftedFunction& lifted,
                              const std::vector<SpecAction>& specs) {
  std::vector<const SpecAction*> mem;
  for (const SpecAction& spec : specs) {
    if (spec.kind != SpecAction::Kind::kParam) mem.push_back(&spec);
  }
  std::vector<dbll::analysis::FixedRegion> regions;
  for (const SpecAction* spec : mem) {
    regions.push_back({spec->mem_addr, std::span<const std::uint8_t>(spec->bytes)});
  }
  const auto links = dbll::analysis::FindPointerLinks(regions);
  if (links.empty()) {
    for (const SpecAction* spec : mem) {
      if (spec->kind != SpecAction::Kind::kConstMem) continue;
      auto status = lifted.SpecializeParamToConstMem(spec->index, spec->bytes.data(),
                                                     spec->bytes.size());
      if (!status.ok()) return status;
    }
    return dbll::Status::Ok();
  }
  std::vector<lift::LiftedFunction::ConstMemRegion> graph;
  for (const SpecAction* spec : mem) {
    lift::LiftedFunction::ConstMemRegion region;
    region.param_index = spec->kind == SpecAction::Kind::kConstMem ? spec->index : -1;
    region.address = spec->mem_addr;
    region.bytes = spec->bytes;
    graph.push_back(std::move(region));
  }
  for (const auto& link : links) {
    graph[static_cast<std::size_t>(link.src_region)].links.push_back(
        {link.src_offset, link.dst_region, link.dst_offset});
  }
  return lifted.SpecializeConstMemGraph(graph);
}

/// Lift + parameter and memory specialization (the lift stage).
dbll::Expected<lift::LiftedFunction> LiftSpecialized(const CompileRequest& request,
                                                     const lift::LiftConfig& config) {
  lift::Lifter lifter(config);
  auto lifted = lifter.Lift(request.address, request.signature);
  if (!lifted.has_value()) return lifted;
  for (const SpecAction& spec : request.specs) {
    if (spec.kind != SpecAction::Kind::kParam) continue;
    auto status = lifted->SpecializeParam(spec.index, spec.value);
    if (!status.ok()) return status.error();
  }
  auto status = SpecializeMemory(*lifted, request.specs);
  if (!status.ok()) return status.error();
  return lifted;
}

class Replay {
 public:
  Replay(const RunConfig& config, const TracePlan& plan, SpanLog& log, Layers& layers)
      : config_(config), plan_(plan), log_(log), layers_(layers),
        grid_(plan.full_grid ? st::kMatrixSize : kSmallRows),
        store_(dbll::runtime::ObjectStore::Options{config.work_dir + "/trace_store"}),
        isa_level_(static_cast<int>(dbll::support::EffectiveIsaLevel())) {
    grid_.Fill(config.seed);
  }

  /// Phase A: one input through every layer. The plan's path steps run
  /// first, in order; the remaining steps follow in pipeline order.
  void Pipeline(const Spec& spec, long job_calls) {
    const CompileRequest request = spec.Request();
    State state;
    log_.NewRequest();
    SpanLog::Scope root(log_, "request");
    std::set<std::string> done;
    auto run = [&](const std::string& step) {
      if (!done.insert(step).second) return;
      // IR sizes are counted outside the spans, so the walks are not
      // charged to a layer.
      const bool opt = step == "lift.opt" && state.lifted;
      if (opt) layers_.ir_pre.push_back(static_cast<double>(state.lifted->IrInstructionCount()));
      Step(step, spec, request, job_calls, state);
      if (opt) layers_.ir_post.push_back(static_cast<double>(state.lifted->IrInstructionCount()));
    };
    // A serving path (Request() on a service) is replayed by Serving().
    if (plan_.path.front() != "runtime.request") {
      for (const std::string& step : plan_.path) run(step);
    }
    for (const char* step : {"x86.cfg", "x86.decode", "analysis.audit", "analysis.ranges",
                             "lift.lift", "lift.opt", "lift.jit", "lift.object",
                             "runtime.store", "runtime.install", "call.first", "call.rows",
                             "dbrew.rewrite", "lift.tier0a"}) {
      run(step);
    }
  }

  /// Phase B: a persisted population served by a fresh service whose
  /// memory capacity and shm ring are smaller than the population.
  void Serving(const std::vector<const Spec*>& population,
               const std::vector<std::uint32_t>& draws, std::uint64_t deadline) {
    const std::string dir = config_.work_dir + "/trace_serving";
    std::filesystem::remove_all(dir);
    CompileService::Options options = ServiceOptions(1);
    options.persist_dir = dir;
    options.capacity = plan_.serve_capacity != 0 ? plan_.serve_capacity
                                                 : std::max<std::size_t>(1, population.size() / 2);
    options.shm_slots = plan_.serve_shm_slots != 0
                            ? plan_.serve_shm_slots
                            : static_cast<std::uint32_t>(std::max<std::size_t>(1, population.size() * 2 / 3));
    {
      CompileService::Options populate_options = options;
      populate_options.workers = 3;
      populate_options.capacity = population.size();
      CompileService populate(populate_options);
      std::vector<FunctionHandle> handles;
      for (const Spec* spec : population) handles.push_back(populate.Request(spec->Request()));
      for (const FunctionHandle& h : handles) h.wait();
      populate.WaitIdle();
    }
    CompileService service(options);
    constexpr std::size_t kMinDraws = 256;
    for (std::size_t i = 0; i < draws.size() && (i < kMinDraws || NowNs() < deadline); ++i) {
      const Spec& spec = *population[draws[i] % population.size()];
      const CompileRequest request = spec.Request();
      log_.NewRequest();
      SpanLog::Scope root(log_, "request");
      const auto before = service.stats();
      std::uint64_t ns = 0;
      FunctionHandle handle;
      {
        SpanLog::Scope span(log_, "runtime.request");
        handle = service.Request(request);
        handle.wait();
        ns = span.elapsed_ns();
      }
      const auto after = service.stats();
      const long row = spec.RowOf(static_cast<long>(i), grid_.rows);
      {
        SpanLog::Scope span(log_, "call.first");
        spec.Call(handle.target(), grid_.in.data(), grid_.out.data(), row);
      }
      if (std::find(plan_.path.begin(), plan_.path.end(), "call.rows") != plan_.path.end()) {
        SpanLog::Scope span(log_, "call.rows");
        for (long k = 1; k < spec.Calls(grid_.rows); ++k) {
          spec.Call(handle.target(), grid_.in.data(), grid_.out.data(),
                    spec.RowOf(k, grid_.rows));
        }
      }
      if (after.shm_hits > before.shm_hits) {
        layers_.shm_ns.push_back(static_cast<double>(ns));
      } else if (after.disk_hits > before.disk_hits) {
        layers_.disk_ns.push_back(static_cast<double>(ns));
      } else if (after.hits > before.hits) {
        layers_.hit_ns.push_back(static_cast<double>(ns));
      }
      if (i % 64 == 0) {
        SpanLog::Scope span(log_, "runtime.target");
        layers_.target_ns.push_back(TargetCost(handle, span));
      }
    }
  }

  /// Phase C: the Fig. 9 set (LLVM-fix through a service, DBrew+LLVM through
  /// Rewriter -> Lifter -> Jit) and pattern-specialized spmv, swept on the
  /// full grid against the native generic kernels.
  void Kernels(std::uint64_t deadline) {
    struct K {
      const Spec* spec;
      std::string name;
      std::uint64_t entry;
    };
    std::vector<K> kernels;
    CompileService service(ServiceOptions(1));
    auto request = [&](const Spec& spec) {
      log_.NewRequest();
      SpanLog::Scope root(log_, "request");
      SpanLog::Scope span(log_, "runtime.request");
      const FunctionHandle handle = service.Request(spec.Request());
      return handle.wait();
    };
    static constexpr Kind kSet[] = {Kind::kElemDirect, Kind::kElemFlat, Kind::kElemSortedPtr,
                                    Kind::kLineDirect, Kind::kLineFlat, Kind::kLineSortedPtr};
    for (std::size_t i = 0; i < std::size(kSet); ++i) {
      Rng rng = Stream(config_.seed, 2, i);
      specs_.push_back(Spec::Jacobi(kSet[i], rng));
      const Spec& spec = *specs_.back();
      const std::string base = spec.family();
      kernels.push_back({&spec, "stencil.native_ns_per_point." + base, spec.generic()});
      kernels.push_back({&spec, "stencil.ns_per_point." + base + ".llvm_fix", request(spec)});
      // DBrew+LLVM: DBrew specializes the kernel (the outlined line variant,
      // whose element function it inlines), the lifter optimizes its output.
      log_.NewRequest();
      SpanLog::Scope root(log_, "request");
      CompileRequest dbrew_request = spec.Request();
      dbrew_request.address = spec.DbrewInput();
      rewriters_.push_back(MakeRewriter(dbrew_request));
      dbll::Expected<std::uint64_t> rewritten = dbll::Error{};
      {
        SpanLog::Scope span(log_, "dbrew.rewrite");
        rewritten = rewriters_.back()->Rewrite();
      }
      if (!rewritten.has_value()) continue;
      lift::Lifter lifter;
      auto lifted = lifter.Lift(*rewritten, dbrew_request.signature);
      if (!lifted.has_value()) continue;
      auto entry = lifted->Compile(jit_);
      if (entry.has_value()) {
        kernels.push_back({&spec, "stencil.ns_per_point." + base + ".dbrew_llvm", *entry});
      }
    }
    for (int banded = 1; banded >= 0; --banded) {
      Rng rng = Stream(config_.seed, 3, static_cast<std::uint64_t>(banded));
      specs_.push_back(Spec::Sparse(Kind::kSpmvFull, banded != 0, 256, rng, /*fixed_shape=*/true));
      const Spec& spec = *specs_.back();
      const std::string pattern = banded ? "banded" : "random";
      kernels.push_back({&spec, "spmv.ns_per_nnz." + pattern + ".native", spec.generic()});
      kernels.push_back({&spec, "spmv.ns_per_nnz." + pattern + ".llvm_fix", request(spec)});
    }
    Grid grid(st::kMatrixSize);
    grid.Fill(config_.seed);
    std::map<std::string, std::vector<double>> per_point;
    do {
      for (const K& k : kernels) {
        const Spec& spec = *k.spec;
        log_.NewRequest();
        SpanLog::Scope root(log_, "request");
        SpanLog::Scope span(log_, spec.kind == Kind::kSpmvFull ? "spmv.product" : "stencil.sweep");
        const long calls = spec.Calls(grid.rows);
        for (long c = 0; c < calls; ++c) {
          spec.Call(k.entry, grid.in.data(), grid.out.data(), spec.RowOf(c, grid.rows));
        }
        const double work = spec.WorkPerCall() * static_cast<double>(calls);
        per_point[k.name].push_back(static_cast<double>(span.elapsed_ns()) / work);
      }
    } while (NowNs() < deadline);
    for (const auto& [name, v] : per_point) layers_.per_point.emplace_back(name, Median(v));
  }

  /// Phase D: target() on tiered handles (profile counter + sample branch)
  /// while their promotions run.
  void Tiering(const std::vector<const Spec*>& specs) {
    CompileService::Options options = ServiceOptions(1);
    options.tiering.enabled = true;
    options.containment.enabled = true;
    CompileService service(options);
    for (const Spec* spec : specs) {
      log_.NewRequest();
      SpanLog::Scope root(log_, "request");
      FunctionHandle handle;
      {
        SpanLog::Scope span(log_, "runtime.request");
        handle = service.Request(spec->Request());
        handle.wait();
      }
      SpanLog::Scope span(log_, "runtime.target_tiered");
      layers_.target_tiered_ns.push_back(TargetCost(handle, span));
    }
    service.WaitIdle();
  }

 private:
  struct State {
    dbll::Expected<dbll::x86::Cfg> cfg = dbll::Error{};
    std::optional<lift::LiftedFunction> lifted;
    std::uint64_t entry = 0;
    dbll::runtime::ObjectEntry object;
  };

  /// Nanoseconds per FunctionHandle::target() fetch, over a loop of fetches.
  static double TargetCost(const FunctionHandle& handle, const SpanLog::Scope& span) {
    constexpr int kFetches = 4096;
    std::uint64_t sink = 0;
    const std::uint64_t t0 = span.elapsed_ns();
    for (int i = 0; i < kFetches; ++i) sink += handle.target();
    const std::uint64_t t1 = span.elapsed_ns();
    target_sink = sink;
    return static_cast<double>(t1 - t0) / kFetches;
  }

  void Step(const std::string& step, const Spec& spec, const CompileRequest& request,
            long job_calls, State& state) {
    SpanLog::Scope span(log_, step);
    if (step == "x86.cfg") {
      state.cfg = dbll::x86::BuildCfg(request.address);
    } else if (step == "x86.decode") {
      if (!state.cfg.has_value()) return;
      std::uint64_t n = 0;
      const std::uint64_t t0 = span.elapsed_ns();
      for (const auto& [start, block] : state.cfg->blocks) {
        for (const auto& insn : block.instrs) {
          const auto* bytes = reinterpret_cast<const std::uint8_t*>(insn.address);
          n += dbll::x86::Decoder::DecodeOne({bytes, 15}, insn.address).has_value();
        }
      }
      layers_.decode_ns += span.elapsed_ns() - t0;
      layers_.insns += n;
      layers_.insns_per_function.push_back(static_cast<double>(n));
    } else if (step == "analysis.audit") {
      const auto report = dbll::analysis::AuditFunction(request.address);
      ++layers_.audits;
      layers_.eligible += report.lift_eligible();
    } else if (step == "analysis.ranges") {
      if (state.cfg.has_value()) (void)dbll::analysis::ComputeRanges(*state.cfg);
    } else if (step == "lift.lift") {
      auto lifted = LiftSpecialized(request, request.config);
      if (lifted.has_value()) {
        state.lifted.emplace(std::move(*lifted));
      } else {
        ++layers_.pipeline_failures;
      }
    } else if (step == "lift.opt") {
      if (!state.lifted) return;
      if (!state.lifted->Optimize().ok()) ++layers_.pipeline_failures;
    } else if (step == "lift.jit") {
      if (!state.lifted) return;
      const std::string tag = "perfbench_" + std::to_string(++tag_);
      state.lifted->SetCacheTag(tag);
      state.object.wrapper_name = state.lifted->wrapper_name();
      state.object.membase_symbol = state.lifted->membase_symbol();
      state.object.membase_value = state.lifted->membase_value();
      state.object.fingerprint = tag_;
      auto entry = state.lifted->Compile(jit_);
      state.lifted.reset();
      if (entry.has_value()) {
        state.entry = *entry;
      } else {
        ++layers_.pipeline_failures;
      }
    } else if (step == "lift.object") {
      if (state.entry == 0) return;
      state.object.object = lift::TakeCapturedObject(jit_, "perfbench_" + std::to_string(tag_));
      state.object.isa_level = static_cast<std::uint32_t>(isa_level_);
      layers_.object_bytes.push_back(static_cast<double>(state.object.object.size()));
    } else if (step == "runtime.store") {
      if (!state.object.object.empty()) store_.Store(state.object);
    } else if (step == "runtime.install") {
      if (state.object.object.empty()) return;
      auto entry = lift::LoadCachedObject(install_jit_, state.object.object,
                                          state.object.wrapper_name, state.object.membase_symbol,
                                          state.object.membase_value);
      if (!entry.has_value()) ++layers_.pipeline_failures;
    } else if (step == "dbrew.rewrite") {
      auto rewriter = MakeRewriter(request);
      auto rewritten = rewriter->Rewrite();
      ++layers_.rewrites;
      if (rewritten.has_value()) {
        layers_.code_bytes.push_back(static_cast<double>(rewriter->stats().code_bytes));
        if (state.entry == 0) state.entry = *rewritten;
        rewriters_.push_back(std::move(rewriter));
      } else {
        ++layers_.rewrite_failures;
      }
    } else if (step == "lift.tier0a") {
      lift::LiftConfig config = request.config;
      config.opt_level = 1;
      config.pass_preset = "tier0a";
      auto lifted = LiftSpecialized(request, config);
      if (!lifted.has_value() || !lifted->Optimize().ok() ||
          !lifted->Compile(jit_).has_value()) {
        ++layers_.pipeline_failures;
      }
    } else if (step == "call.first") {
      if (state.entry == 0) return;
      spec.Call(state.entry, grid_.in.data(), grid_.out.data(), spec.RowOf(0, grid_.rows));
    } else if (step == "call.rows") {
      if (state.entry == 0) return;
      for (long k = 1; k < job_calls; ++k) {
        spec.Call(state.entry, grid_.in.data(), grid_.out.data(), spec.RowOf(k, grid_.rows));
      }
    }
  }

  const RunConfig& config_;
  const TracePlan& plan_;
  SpanLog& log_;
  Layers& layers_;
  Grid grid_;
  lift::Jit jit_;
  lift::Jit install_jit_;
  dbll::runtime::ObjectStore store_;
  int isa_level_;
  std::uint64_t tag_ = 0;
  std::vector<std::unique_ptr<dbll::dbrew::Rewriter>> rewriters_;
  std::vector<std::unique_ptr<Spec>> specs_;
};

double Frac(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void RunTraced(const RunConfig& config, const TracePlan& plan, const Untraced& untraced,
               Result& result) {
  SpanLog log;
  Layers layers;
  Replay replay(config, plan, log, layers);
  const std::uint64_t start = NowNs();
  const auto budget = static_cast<std::uint64_t>(plan.seconds * 1e9);

  // A: 40% of the budget, at least four inputs.
  const std::uint64_t a_end = start + budget * 2 / 5;
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    if (NowNs() >= a_end && i >= 4) break;
    const long calls = plan.job_calls.empty() ? plan.specs[i]->Calls(plan.full_grid ? st::kMatrixSize : kSmallRows)
                                              : plan.job_calls[i];
    replay.Pipeline(*plan.specs[i], calls);
  }

  // B: the population is the plan's first inputs (all of warm_serving's).
  std::vector<const Spec*> population(
      plan.specs.begin(),
      plan.specs.begin() + static_cast<long>(std::min<std::size_t>(
                               plan.specs.size(), plan.serve_population)));
  std::vector<std::uint32_t> draws = plan.serve_draws;
  if (draws.empty()) {
    const Zipf zipf(population.size(), 1.0);
    Rng rng = Stream(config.seed, 7, 0);
    draws.resize(4096);
    for (std::uint32_t& d : draws) d = static_cast<std::uint32_t>(zipf.Draw(rng));
  }
  replay.Serving(population, draws, NowNs() + budget / 5);

  // C: the kernel probe, at least one round; kernel_steady gets the larger
  // share.
  replay.Kernels(NowNs() + (plan.full_grid ? budget * 3 / 10 : budget / 10));

  // D: a few stencil inputs on tiered handles.
  std::vector<const Spec*> tiered;
  for (const Spec* spec : plan.specs) {
    if (spec->SingleInvocation() && tiered.size() < 4) tiered.push_back(spec);
  }
  replay.Tiering(tiered);

  // --- per-layer metrics ---------------------------------------------------
  auto us = [](std::vector<double> ns) { return Median(std::move(ns)) / 1e3; };
  auto ms = [](std::vector<double> ns) { return Median(std::move(ns)) / 1e6; };
  result.Put("x86.decode_ns_per_insn", Frac(static_cast<double>(layers.decode_ns),
                                            static_cast<double>(layers.insns)), "ns");
  result.Put("x86.cfg_us", us(log.Durations("x86.cfg")), "us");
  result.Put("x86.insns", Median(layers.insns_per_function), "count");
  result.Put("analysis.audit_us", us(log.Durations("analysis.audit")), "us");
  result.Put("analysis.ranges_us", us(log.Durations("analysis.ranges")), "us");
  result.Put("analysis.eligible_frac", Frac(static_cast<double>(layers.eligible),
                                            static_cast<double>(layers.audits)), "ratio");
  result.Put("lift.lift_ms", ms(log.Durations("lift.lift")), "ms");
  result.Put("lift.ir_insns_pre_opt", Median(layers.ir_pre), "count");
  result.Put("lift.ir_insns_post_opt", Median(layers.ir_post), "count");
  result.Put("lift.opt_ms", ms(log.Durations("lift.opt")), "ms");
  result.Put("lift.jit_ms", ms(log.Durations("lift.jit")), "ms");
  result.Put("lift.object_bytes", Median(layers.object_bytes), "bytes");
  result.Put("lift.tier0a_ms", ms(log.Durations("lift.tier0a")), "ms");
  result.Put("dbrew.rewrite_us", us(log.Durations("dbrew.rewrite")), "us");
  result.Put("dbrew.code_bytes", Median(layers.code_bytes), "bytes");
  result.Put("dbrew.fail_frac", Frac(static_cast<double>(layers.rewrite_failures),
                                     static_cast<double>(layers.rewrites)), "ratio");
  result.Put("runtime.request_hit_ns", Median(layers.hit_ns), "ns");
  result.Put("runtime.shm_hit_us", us(layers.shm_ns), "us");
  result.Put("runtime.disk_hit_us", us(layers.disk_ns), "us");
  result.Put("runtime.install_us", us(log.Durations("runtime.install")), "us");
  result.Put("runtime.store_us", us(log.Durations("runtime.store")), "us");
  result.Put("runtime.target_ns", Median(layers.target_ns), "ns");
  result.Put("runtime.target_tiered_ns", Median(layers.target_tiered_ns), "ns");

  const auto& s = untraced.stats;
  const double requests = static_cast<double>(s.hits + s.coalesced + s.misses);
  result.Put("runtime.hit_frac", Frac(static_cast<double>(s.hits), requests), "ratio");
  result.Put("runtime.shm_hit_frac", Frac(static_cast<double>(s.shm_hits), requests), "ratio");
  result.Put("runtime.disk_hit_frac",
             Frac(static_cast<double>(s.disk_hits - std::min(s.disk_hits, s.shm_hits)), requests),
             "ratio");
  result.Put("runtime.compiles", static_cast<double>(s.compiles), "count");
  result.Put("runtime.evictions", static_cast<double>(s.evictions), "count");
  result.Put("runtime.promotions", static_cast<double>(s.promotions), "count");
  result.Put("runtime.interim_installs", static_cast<double>(s.interim_installs), "count");
  result.Put("runtime.deopts", static_cast<double>(s.deopts), "count");
  for (const auto& [name, v] : layers.per_point) {
    result.Put(name, v, name.rfind("spmv.", 0) == 0 ? "ns/nnz" : "ns/point");
  }

  // Layer self times per traced request, and how much of the untraced
  // request path they account for.
  const auto roots = log.RootDurations("request");
  const double root_count = static_cast<double>(std::max<std::size_t>(roots.size(), 1));
  const auto self_by_layer = log.SelfTimeByLayer();
  for (const char* layer : {"x86", "analysis", "lift", "dbrew", "runtime", "stencil", "spmv"}) {
    const auto it = self_by_layer.find(layer);
    const double ns = it == self_by_layer.end() ? 0 : it->second;
    result.Put(std::string(layer) + ".self_ms", ns / 1e6 / root_count, "ms");
  }
  auto path_until = [&](const std::string& last) {
    std::vector<std::string> names;
    for (const std::string& step : plan.path) {
      names.push_back(step);
      if (step == last) break;
    }
    return names;
  };
  auto covered = [&](const std::vector<std::string>& names, const std::string& last,
                     double untraced_ms, const std::string& prefix) {
    // Requests whose spans include every name: their path self times, and
    // the traced time from the request start to the end of `last`.
    std::map<std::uint32_t, std::set<std::string>> seen;
    std::map<std::uint32_t, std::uint64_t> start_ns, end_ns;
    for (const Span& span : log.spans()) {
      if (span.parent < 0) start_ns[span.request] = span.start_ns;
      if (std::find(names.begin(), names.end(), span.name) != names.end()) {
        seen[span.request].insert(span.name);
      }
      if (span.name == last) end_ns[span.request] = span.end_ns;
    }
    const auto self = log.SelfTimeByRequest(names);
    std::vector<double> share, traced_ms;
    for (const auto& [request, names_seen] : seen) {
      if (names_seen.size() != std::set<std::string>(names.begin(), names.end()).size()) continue;
      share.push_back(self.at(request) / 1e6 / untraced_ms);
      traced_ms.push_back(static_cast<double>(end_ns[request] - start_ns[request]) / 1e6);
    }
    result.Put(prefix + "_covered_frac", Median(share), "ratio");
    result.Put(prefix + "_overhead_ms", Median(traced_ms) - untraced_ms, "ms");
  };
  covered(path_until("call.first"), "call.first", untraced.ttfsc_p50_ms, "trace.ttfsc");
  covered(path_until("call.rows"), plan.path.back(), untraced.job_p50_ms, "trace.job");
  result.Put("trace.spans", static_cast<double>(log.spans().size()), "count");

  if (!log.WriteChromeTrace(config.trace_path)) {
    result.notes.push_back("cannot write trace " + config.trace_path);
  }
  if (layers.pipeline_failures != 0) {
    result.notes.push_back("traced pipeline failures: " +
                           std::to_string(layers.pipeline_failures));
  }
}

}  // namespace perfbench
