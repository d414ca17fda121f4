// perfbench_runner: runs one benchmark workload against the built
// program and prints the result line (see perfbench/METRICS.md).
//
//   perfbench_runner --workload cold_tune|daemon_mix|simulate|fleet_sweep
//                    --seed N --seconds S --trace 0|1
//                    --bin-dir DIR --work-dir DIR

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // autotune
      {"autotune.enumerate.us", "us"},
      {"autotune.predict.us", "us"},
      {"autotune.measure.us", "us"},
      {"autotune.assemble.us", "us"},
      {"autotune.candidates_enumerated", "count"},
      {"autotune.candidates_executed", "count"},
      {"autotune.executed_ratio", "ratio"},
      {"autotune.model_quality", "ratio"},
      // kernels / gpusim / perfmodel on the tuning path
      {"kernels.make_kernel.us", "us"},
      {"kernels.validate.us", "us"},
      {"kernels.trace_plane.us", "us"},
      {"gpusim.estimate_timing.us", "us"},
      {"perfmodel.evaluate.us", "us"},
      // codegen
      {"codegen.cuda.us", "us"},
      {"codegen.opencl.us", "us"},
      // kernels run path
      {"kernels.run_kernel.both.ms", "ms"},
      {"kernels.run_kernel.trace.ms", "ms"},
      {"sim.mpts_per_s.both", "Mpt/s"},
      {"sim.mpts_per_s.trace", "Mpt/s"},
      {"core.reference.ms", "ms"},
      {"gpusim.blocks", "count"},
      {"gpusim.trace_memo.classes", "count"},
      {"gpusim.trace_memo.blocks_replayed", "count"},
      {"gpusim.trace_memo.replay_ratio", "ratio"},
      {"gpusim.bytes_transferred_ld", "bytes"},
      {"gpusim.flops", "count"},
      // service
      {"service.proto.parse.us", "us"},
      {"service.proto.format.us", "us"},
      {"service.wisdom.find.us", "us"},
      {"service.tune.hit.us", "us"},
      {"service.wisdom.put.ms", "ms"},
      {"service.tune.swept.ms", "ms"},
      {"service.tune.joined.ms", "ms"},
      {"service.socket.unattributed.hit.us", "us"},
      {"service.socket.unattributed.swept.us", "us"},
      {"service.socket.unattributed.joined.us", "us"},
      {"service.wisdom.reload.ms", "ms"},
      {"service.setup.ms", "ms"},
      {"service.requests", "count"},
      {"service.cache_hits", "count"},
      {"service.dedup_joins", "count"},
      {"service.sweeps", "count"},
      {"service.hit_ratio", "ratio"},
      {"service.sweeps_per_missed_key", "ratio"},
      {"service.shed_requests", "count"},
      {"service.rps", "1/s"},
      // distributed
      {"distributed.sweep.ms", "ms"},
      {"distributed.inprocess.ms", "ms"},
      {"distributed.overhead.ms", "ms"},
      {"distributed.merge.ms", "ms"},
      {"autotune.checkpoint.append.us", "us"},
      {"distributed.workers_spawned", "count"},
      {"distributed.workers_lost", "count"},
      {"distributed.journal_merge_dups", "count"},
      {"distributed.breakeven_candidates", "count"},
      // tracing and errors
      {"trace.overhead_ratio", "ratio"},
      {"trace.unattributed.us", "us"},
      {"trace.unattributed_share", "ratio"},
      {"error_rate", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench

namespace {

int usage() {
  std::fputs(
      "usage: perfbench_runner --workload cold_tune|daemon_mix|simulate|fleet_sweep\n"
      "                        --seed N --seconds S --trace 0|1\n"
      "                        --bin-dir DIR --work-dir DIR\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGPIPE, SIG_IGN);
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--bin-dir") {
      opt.bin_dir = value;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || opt.bin_dir.empty() || opt.work_dir.empty() || !(opt.seconds > 0.0)) {
    return usage();
  }
  Result result;
  Layers layers;
  try {
    make_dir(opt.work_dir);
    if (opt.workload == "cold_tune") {
      run_cold_tune(opt, result, layers);
    } else if (opt.workload == "daemon_mix") {
      run_daemon_mix(opt, result, layers);
    } else if (opt.workload == "simulate") {
      run_simulate(opt, result, layers);
    } else if (opt.workload == "fleet_sweep") {
      run_fleet_sweep(opt, result, layers);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  if (opt.trace) {
    layers["error_rate"] =
        static_cast<double>(result.failed) / static_cast<double>(result.attempted);
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = layers.find(name);
      result.add(name, it == layers.end() ? 0.0 : it->second, unit);
    }
  }
  std::printf("%s\n", result.json().c_str());
  return 0;
}
