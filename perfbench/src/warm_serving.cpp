// warm_serving: 1 client (the calling thread), 1 worker. Setup compiles a
// population of keys into a fresh persist dir. A new CompileService over
// that dir then takes Zipf-drawn requests; its in-memory capacity and shm
// slot count are smaller than the population, so requests split across
// memory hits, shm hits and disk loads plus reinstalls, and nothing
// compiles. Each request calls its kernel once on one row; the client
// thinks for kThinkUs between requests. Every reinstall keeps its JIT code
// until the service dies, so the think time bounds the run's memory.
//
// The tail percentile lies in the middle of the shm hits (about 82-97 % of
// the requests; about 3 % are disk loads). A disk hit reads a file and
// rewrites the store's manifest (lock, write, rename), so its latency follows
// the host's file system: with the tail among the disk loads and three
// clients queueing on the JIT lock behind each other's reinstalls, the tail
// moved by a fifth between runs of the same seed.
#include <chrono>
#include <filesystem>
#include <thread>

#include "workloads.h"

namespace perfbench {

using dbll::runtime::CompileService;
using dbll::runtime::FunctionHandle;
using dbll::runtime::Tier;

namespace {

constexpr int kWorkers = 1;
constexpr std::size_t kPopulation = 48;
constexpr std::size_t kCapacity = kPopulation / 2;
constexpr std::uint32_t kShmSlots = kPopulation * 5 / 6;
constexpr double kZipfS = 1.1;
constexpr int kThinkUs = 1000;
constexpr std::size_t kDraws = 1 << 18;
constexpr int kSetupRepeats = 3;

struct Setup {
  std::vector<std::unique_ptr<Spec>> population;
  std::vector<std::uint32_t> draws;
  std::string dir;
  std::unique_ptr<CompileService> service;
  std::uint64_t input_hash = 0;
  std::string error;
};

CompileService::Options ServingOptions(const std::string& dir) {
  CompileService::Options options = ServiceOptions(kWorkers);
  options.persist_dir = dir;
  options.capacity = kCapacity;
  options.shm_slots = kShmSlots;
  return options;
}

Setup MakeSetup(const RunConfig& config, int attempt) {
  Setup setup;
  InputHash hash;
  for (std::size_t i = 0; i < kPopulation; ++i) {
    Rng rng = Stream(config.seed, 4, i);
    // Fixed shapes: install cost grows with the object, and the tail should
    // not depend on which keys the seed made large.
    setup.population.push_back(Spec::Any(i, rng, /*fixed_shape=*/true));
    if (config.negative_control && i % 4 == 0) {
      setup.population.back()->CorruptReference();
    }
    setup.population.back()->Hash(hash);
  }
  const Zipf zipf(kPopulation, kZipfS);
  Rng rng = Stream(config.seed, 5, 0);
  setup.draws.resize(kDraws);
  for (std::uint32_t& d : setup.draws) d = static_cast<std::uint32_t>(zipf.Draw(rng));
  hash.Add(setup.draws.data(), setup.draws.size() * sizeof(std::uint32_t));
  setup.input_hash = hash.value();

  // Populate a fresh persist dir (and its shm ring) with every key.
  setup.dir = config.work_dir + "/serving_persist_" + std::to_string(attempt);
  std::filesystem::remove_all(setup.dir);
  {
    CompileService::Options options = ServingOptions(setup.dir);
    options.workers = 3;
    options.capacity = kPopulation;
    CompileService populate(options);
    std::vector<FunctionHandle> handles;
    for (const auto& spec : setup.population) {
      handles.push_back(populate.Request(spec->Request()));
    }
    for (const FunctionHandle& h : handles) h.wait();
    populate.WaitIdle();
    if (populate.stats().disk_stores != kPopulation) {
      setup.error = "population not persisted: " +
                    std::to_string(populate.stats().disk_stores) + " stores";
    }
  }
  setup.service = std::make_unique<CompileService>(ServingOptions(setup.dir));
  return setup;
}

void Client(CompileService& service, const Setup& setup, std::uint64_t deadline_ns,
            E2e& e2e, Result& result) {
  Grid grid(kSmallRows);
  Grid want(kSmallRows);
  grid.Fill(99);
  for (std::size_t i = 0; NowNs() < deadline_ns; ++i) {
    const Spec& spec = *setup.population[setup.draws[i % setup.draws.size()]];
    const dbll::runtime::CompileRequest request = spec.Request();
    const long row = spec.RowOf(static_cast<long>(i), grid.rows);

    const std::uint64_t t0 = NowNs();
    const FunctionHandle handle = service.Request(request);
    handle.wait();
    const std::uint64_t tc = NowNs();
    spec.Call(handle.target(), grid.in.data(), grid.out.data(), row);
    const std::uint64_t t1 = NowNs();
    spec.Call(spec.generic(), grid.in.data(), want.out.data(), row);
    const std::uint64_t t2 = NowNs();

    e2e.ttfsc_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    e2e.job_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    e2e.AddCalls(spec, static_cast<double>(t1 - tc), static_cast<double>(t2 - t1));
    ++e2e.requests;

    ++result.attempted;
    if (handle.state() != FunctionHandle::State::kSpecialized ||
        handle.tier() != Tier::kLlvm) {
      result.Fail("served below Tier 0: " + spec.family());
      continue;
    }
    spec.CallReference(grid.in.data(), want.out.data(), row);
    if (!spec.OutputsMatch(grid, want)) {
      result.Fail("wrong output: " + spec.family());
    }
    // Think by sleeping: a client spinning through its think time moved
    // every figure about twice as far between runs.
    std::this_thread::sleep_for(std::chrono::microseconds(kThinkUs));
  }
}

}  // namespace

Result RunWarmServing(const RunConfig& config) {
  Result result;
  E2e e2e;
  Setup setup;
  for (int attempt = 0; attempt < kSetupRepeats; ++attempt) {
    setup = Setup();
    const std::uint64_t t0 = NowNs();
    setup = MakeSetup(config, attempt);
    e2e.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  result.input_hash = setup.input_hash;
  if (!setup.error.empty()) result.notes.push_back(setup.error);
  CompileService& service = *setup.service;

  const double timed_s = config.trace ? config.seconds / 2 : config.seconds;
  const double cpu0 = CpuSeconds();
  const std::uint64_t start = NowNs();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(timed_s * 1e9);
  Client(service, setup, deadline, e2e, result);
  e2e.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  e2e.cpu_s = CpuSeconds() - cpu0;
  service.WaitIdle();
  const dbll::runtime::CacheStats stats = service.stats();
  if (stats.compiles != 0) {
    result.notes.push_back("warm_serving compiled " + std::to_string(stats.compiles) +
                           " times");
  }
  e2e.Finish(kTailPercentile, result);

  if (config.trace) {
    Untraced untraced;
    untraced.ttfsc_p50_ms = e2e.P50(e2e.ttfsc_ms);
    untraced.job_p50_ms = e2e.P50(e2e.job_ms);
    untraced.stats = stats;
    TracePlan plan;
    for (const auto& spec : setup.population) plan.specs.push_back(spec.get());
    plan.serve_population = kPopulation;
    plan.serve_draws = setup.draws;
    plan.serve_capacity = kCapacity;
    plan.serve_shm_slots = kShmSlots;
    plan.path = {"runtime.request", "call.first"};
    plan.seconds = config.seconds / 2;
    RunTraced(config, plan, untraced, result);
  }
  return result;
}

}  // namespace perfbench
