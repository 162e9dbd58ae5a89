// perfbench -- the repository benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--negative-control] [--work-dir DIR] [--trace-out FILE]
//
// Runs one workload and prints, as its last stdout line, one JSON object:
// {"input_hash", "env", "attempted", "failed", "notes", "metrics"}. The
// metrics hold every end-to-end metric and, with --trace 1, every
// per-layer metric; perfbench/run.py selects the ones BENCHMARK.json names.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "dbll/lift/lifter.h"
#include "dbll/obs/obs.h"
#include "dbll/support/cpu_features.h"
#include "workloads.h"

extern char** environ;

namespace {

using perfbench::Result;
using perfbench::RunConfig;

/// Variables that reconfigure the program under test from the environment:
/// the CompileService constructor applies DBLL_CACHE_*/DBLL_TIER*/
/// DBLL_CONTAIN*, the tracer and fault injection activate on DBLL_TRACE*/
/// DBLL_FAULT*, and the JIT reads DBLL_JIT_ISA/DBLL_JIT_FEATURES. They are
/// recorded and cleared before any service exists.
bool IsolatedVariable(const std::string& name) {
  static const char* const kPrefixes[] = {"DBLL_TRACE", "DBLL_CACHE_",
                                          "DBLL_TIER", "DBLL_CONTAIN",
                                          "DBLL_FAULT"};
  for (const char* prefix : kPrefixes) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return name == "DBLL_JIT_ISA" || name == "DBLL_JIT_FEATURES";
}

std::vector<std::string> IsolateEnvironment() {
  std::vector<std::string> cleared;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    const std::string name = entry.substr(0, entry.find('='));
    if (IsolatedVariable(name)) cleared.push_back(name);
  }
  for (const std::string& name : cleared) ::unsetenv(name.c_str());
  // DBLL_TRACE activates the process tracer before main runs.
  dbll::obs::Tracer::Default().Disable();
  return cleared;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::strchr(buf, 'n') != nullptr || std::strchr(buf, 'i') != nullptr
             ? "null"
             : buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compile_storm|kernel_steady|"
               "warm_serving|tiered_jobs --seed N --seconds S --trace 0|1 "
               "[--negative-control] [--work-dir DIR] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> cleared = IsolateEnvironment();

  RunConfig config;
  config.work_dir = ".bench_build/perfbench_work";
  config.trace_path = ".bench_build/perfbench_trace.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--negative-control") {
      config.negative_control = true;
    } else if (arg == "--work-dir" && has_value) {
      config.work_dir = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      config.trace_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (config.seconds <= 0) return Usage();

  Result (*run)(const RunConfig&) = nullptr;
  if (config.workload == "compile_storm") run = perfbench::RunCompileStorm;
  if (config.workload == "kernel_steady") run = perfbench::RunKernelSteady;
  if (config.workload == "warm_serving") run = perfbench::RunWarmServing;
  if (config.workload == "tiered_jobs") run = perfbench::RunTieredJobs;
  if (run == nullptr) return Usage();

  // A private directory per run: persist dirs and shm rings live inside it
  // and are removed at exit.
  config.work_dir += "/" + config.workload + "_" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", config.work_dir.c_str());
    return 1;
  }

  const Result result = run(config);
  std::filesystem::remove_all(config.work_dir, ec);

  std::string env = "{\"isa\": " +
                    JsonString(dbll::support::IsaLevelName(
                        dbll::support::EffectiveIsaLevel())) +
                    ", \"nproc\": " +
                    std::to_string(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN))) +
                    ", \"llvm\": " + JsonString(dbll::lift::LlvmVersionString()) +
                    ", \"cleared_env\": [";
  for (std::size_t i = 0; i < cleared.size(); ++i) {
    env += (i ? ", " : "") + JsonString(cleared[i]);
  }
  env += "]}";
  std::string notes = "[";
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    notes += (i ? ", " : "") + JsonString(result.notes[i]);
  }
  notes += "]";
  std::string metrics = "{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    metrics += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
               JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  metrics += "}";
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(result.input_hash));
  std::printf("{\"workload\": %s, \"seed\": %llu, \"input_hash\": \"%s\", "
              "\"env\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"notes\": %s, \"metrics\": %s}\n",
              JsonString(config.workload).c_str(),
              static_cast<unsigned long long>(config.seed), hash, env.c_str(),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), notes.c_str(),
              metrics.c_str());
  return 0;
}
