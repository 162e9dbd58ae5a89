// compile_storm: 2 clients, 2 workers, default options (tiering and
// containment off) over a fresh persist dir. Every request is a distinct
// seeded specialization, so each one runs decode -> audit -> ranges -> lift
// -> O3 -> JIT plus a store write.
#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>

#include "workloads.h"

namespace perfbench {

using dbll::runtime::CompileService;
using dbll::runtime::FunctionHandle;
using dbll::runtime::Tier;

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr std::size_t kPoolPerClient = 2000;
constexpr int kSetupRepeats = 5;

using Pool = std::vector<std::unique_ptr<Spec>>;

struct Setup {
  std::vector<Pool> pools;
  std::unique_ptr<CompileService> service;
  std::uint64_t input_hash = 0;
};

Setup MakeSetup(const RunConfig& config, int attempt) {
  Setup setup;
  InputHash hash;
  for (int c = 0; c < kClients; ++c) {
    Pool pool;
    for (std::size_t i = 0; i < kPoolPerClient; ++i) {
      Rng rng = Stream(config.seed, 1, static_cast<std::uint64_t>(c) << 32 | i);
      pool.push_back(Spec::Any(i, rng));
      if (config.negative_control && i % 4 == 0) pool.back()->CorruptReference();
      pool.back()->Hash(hash);
    }
    setup.pools.push_back(std::move(pool));
  }
  setup.input_hash = hash.value();
  const std::string dir =
      config.work_dir + "/storm_persist_" + std::to_string(attempt);
  std::filesystem::remove_all(dir);
  CompileService::Options options = ServiceOptions(kWorkers);
  options.persist_dir = dir;
  setup.service = std::make_unique<CompileService>(options);
  return setup;
}

/// One client's closed loop: request, wait, first call, then two passes
/// over the small grid through target(); the outputs are checked after the
/// job against the generic kernel.
void Client(CompileService& service, const Pool& pool, std::uint64_t seed,
            std::uint64_t deadline_ns, E2e& e2e, Result& result,
            std::mutex& result_mutex) {
  Grid grid(kSmallRows);
  Grid want(kSmallRows);
  grid.Fill(seed);
  for (const auto& spec_ptr : pool) {
    if (NowNs() >= deadline_ns) break;
    const Spec& spec = *spec_ptr;
    const dbll::runtime::CompileRequest request = spec.Request();
    const long calls = spec.Calls(grid.rows);

    const std::uint64_t t0 = NowNs();
    const FunctionHandle handle = service.Request(request);
    handle.wait();
    spec.Call(handle.target(), grid.in.data(), grid.out.data(),
              spec.RowOf(0, grid.rows));
    const std::uint64_t t1 = NowNs();
    for (long k = 1; k < calls; ++k) {
      spec.Call(handle.target(), grid.in.data(), grid.out.data(),
                spec.RowOf(k, grid.rows));
    }
    const std::uint64_t t2 = NowNs();
    for (long k = 0; k < calls; ++k) {
      spec.Call(handle.target(), grid.in.data(), grid.out.data(),
                spec.RowOf(k, grid.rows));
    }
    const std::uint64_t t3 = NowNs();

    // Native generic kernel over the same pass, for speedup_vs_native.
    for (long k = 0; k < calls; ++k) {
      spec.Call(spec.generic(), grid.in.data(), want.out.data(),
                spec.RowOf(k, grid.rows));
    }
    const std::uint64_t t4 = NowNs();

    std::string failure;
    if (handle.state() != FunctionHandle::State::kSpecialized) {
      failure = "handle not specialized: " + spec.family();
    } else if (handle.tier() != Tier::kLlvm) {
      failure = "served below Tier 0: " + spec.family();
    } else {
      for (long k = 0; k < calls; ++k) {
        spec.CallReference(grid.in.data(), want.out.data(),
                           spec.RowOf(k, grid.rows));
      }
      if (!spec.OutputsMatch(grid, want)) failure = "wrong output: " + spec.family();
    }

    e2e.ttfsc_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    e2e.job_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    e2e.AddCalls(spec, static_cast<double>(t3 - t2) / static_cast<double>(calls),
                 static_cast<double>(t4 - t3) / static_cast<double>(calls));
    ++e2e.requests;
    std::lock_guard<std::mutex> lock(result_mutex);
    ++result.attempted;
    if (!failure.empty()) result.Fail(failure);
  }
}

}  // namespace

Result RunCompileStorm(const RunConfig& config) {
  Result result;
  E2e e2e;
  Setup setup;
  for (int attempt = 0; attempt < kSetupRepeats; ++attempt) {
    setup = Setup();  // the previous attempt's service shuts down first
    const std::uint64_t t0 = NowNs();
    setup = MakeSetup(config, attempt);
    e2e.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  result.input_hash = setup.input_hash;
  CompileService& service = *setup.service;

  const double timed_s = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<E2e> per_client(kClients);
  std::mutex result_mutex;
  const double cpu0 = CpuSeconds();
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(timed_s * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client(service, setup.pools[static_cast<std::size_t>(c)],
             config.seed + static_cast<std::uint64_t>(c), deadline,
             per_client[static_cast<std::size_t>(c)], result, result_mutex);
    });
  }
  for (std::thread& t : clients) t.join();
  e2e.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  e2e.cpu_s = CpuSeconds() - cpu0;
  for (const E2e& part : per_client) e2e.Merge(part);
  service.WaitIdle();
  e2e.Finish(kTailPercentile, result);

  if (config.trace) {
    Untraced untraced;
    untraced.ttfsc_p50_ms = e2e.P50(e2e.ttfsc_ms);
    untraced.job_p50_ms = e2e.P50(e2e.job_ms);
    untraced.stats = service.stats();
    TracePlan plan;
    // Same inputs, in the order the two clients drew them.
    for (std::size_t i = 0; i < kPoolPerClient; ++i) {
      for (const Pool& pool : setup.pools) plan.specs.push_back(pool[i].get());
    }
    plan.path = {"analysis.audit", "lift.lift", "lift.opt", "lift.jit", "call.first", "call.rows"};
    plan.seconds = config.seconds / 2;
    RunTraced(config, plan, untraced, result);
  }
  return result;
}

}  // namespace perfbench
