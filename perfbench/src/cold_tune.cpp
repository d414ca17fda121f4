// cold_tune: a closed loop of one caller asking for distinct, uncached
// tunes, each answered with the winner plus its emitted CUDA and OpenCL
// code — what a user of `inplane tune` waits for.  Every key is tuned
// twice, model-guided (the light class) and exhaustive (the heavy class),
// so the two ways the tuner layer is used are timed separately.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "autotune/checkpoint.hpp"
#include "autotune/tuner.hpp"
#include "codegen/cuda_codegen.hpp"
#include "codegen/opencl_codegen.hpp"
#include "common.hpp"
#include "distributed/sweep_spec.hpp"
#include "keys.hpp"
#include "perfmodel/model.hpp"
#include "service/service.hpp"

namespace perfbench {

namespace {

using namespace inplane;

const std::vector<Extent3> kExtents = {Extent3{512, 512, 256}, Extent3{256, 256, 64}};

/// Ops of the count prefix; every run completes them.
constexpr std::size_t kCountPrefix = 24;
/// One op in this many is re-tuned through service::direct_tune.
constexpr std::size_t kOracleStride = 8;

/// One tuning request of the schedule.
struct TuneOp {
  TuneKey key;
  bool model = false;
  [[nodiscard]] std::string label() const {
    return (model ? "model " : "exhaustive ") + key.label();
  }
};

struct TuneAnswer {
  autotune::TuneResult result;
  std::string cuda;
  std::string opencl;
};

template <typename T>
autotune::TuneResult call_tuner(const TuneOp& op, const ExecPolicy& policy) {
  const kernels::Method method = distributed::resolve_method(op.key.method);
  const gpusim::DeviceSpec device = distributed::resolve_device(op.key.device);
  const StencilCoeffs coeffs = StencilCoeffs::diffusion(op.key.order / 2);
  autotune::SearchSpace space;
  space.set_max_temporal_degree(op.key.tb);
  if (op.model) {
    return autotune::model_guided_tune<T>(method, coeffs, device, op.key.extent, kModelBeta,
                                          space, policy);
  }
  return autotune::exhaustive_tune<T>(method, coeffs, device, op.key.extent, space, policy);
}

codegen::CudaKernelSpec codegen_spec(const TuneOp& op, const kernels::LaunchConfig& cfg) {
  codegen::CudaKernelSpec spec;
  spec.method = distributed::resolve_method(op.key.method);
  spec.radius = op.key.order / 2;
  spec.config = cfg;
  spec.is_double = op.key.dp;
  return spec;
}

/// The timed operation: tune, then emit the winner in both languages.
TuneAnswer tune_and_emit(const TuneOp& op, const ExecPolicy& policy) {
  TuneAnswer a;
  a.result = op.key.dp ? call_tuner<double>(op, policy) : call_tuner<float>(op, policy);
  const codegen::CudaKernelSpec spec = codegen_spec(op, a.result.best.config);
  a.cuda = codegen::generate_file(spec, op.key.extent);
  a.opencl = codegen::generate_opencl_kernel(spec);
  return a;
}

// ---------------------------------------------------------------------------
// The traced pipeline: the same request through the tuner's public pieces,
// one span per call, serially.  It repeats the tuner's candidate loop step
// for step (autotune/tuner.cpp measure_candidate, kernels::time_kernel),
// so the composed winner must be byte-identical to the tuner call's.

template <typename T>
autotune::TuneEntry measure_traced(Tracer* tr, std::uint64_t req, kernels::Method method,
                                   const StencilCoeffs& coeffs, const gpusim::DeviceSpec& device,
                                   const Extent3& extent, const kernels::LaunchConfig& cfg) {
  SpanScope span(tr, "autotune.measure", req);
  autotune::TuneEntry entry;
  entry.config = cfg;
  const int max_attempts = autotune::TuneOptions{}.max_attempts;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    entry.attempts = attempt + 1;
    try {
      std::unique_ptr<kernels::IStencilKernel<T>> kernel;
      {
        SpanScope s(tr, "kernels.make_kernel", req);
        kernel = kernels::make_kernel<T>(method, coeffs, cfg);
      }
      gpusim::KernelTiming timing;
      std::optional<std::string> err;
      {
        SpanScope s(tr, "kernels.validate", req);
        err = kernel->validate(device, extent);
      }
      if (err) {
        timing.invalid_reason = *err;
      } else {
        gpusim::TimingInput input;
        input.grid = extent;
        input.radius = kernel->required_halo();
        input.tile_w = kernel->config().tile_w();
        input.tile_h = kernel->config().tile_h();
        input.resources = kernel->resources();
        {
          SpanScope s(tr, "kernels.trace_plane", req);
          input.per_plane = kernel->trace_plane(device, extent);
        }
        input.is_double = sizeof(T) == 8;
        input.ilp = kernel->config().columns_per_thread();
        {
          SpanScope s(tr, "gpusim.estimate_timing", req);
          timing = gpusim::estimate_timing(device, input);
        }
        timing.mpoints_per_s *= kernel->time_steps();
      }
      entry.timing = timing;
      entry.executed = true;
      entry.failed = false;
      entry.failure = Status::okay();
      return entry;
    } catch (const std::exception& e) {
      entry.failure = status_of(e);
      entry.failed = true;
      entry.executed = false;
      entry.timing = gpusim::KernelTiming{};
      if (!entry.failure.retryable()) break;
    }
  }
  return entry;
}

template <typename T>
TuneAnswer tune_traced(Tracer* tr, std::uint64_t req, const TuneOp& op) {
  const kernels::Method method = distributed::resolve_method(op.key.method);
  const gpusim::DeviceSpec device = distributed::resolve_device(op.key.device);
  const StencilCoeffs coeffs = StencilCoeffs::diffusion(op.key.order / 2);
  const int radius = coeffs.radius();
  const Extent3& extent = op.key.extent;
  autotune::SearchSpace space;
  space.set_max_temporal_degree(op.key.tb);

  std::vector<kernels::LaunchConfig> configs;
  {
    SpanScope s(tr, "autotune.enumerate", req);
    configs = space.enumerate(device, extent, method, radius, sizeof(T),
                              autotune::default_vec(method, sizeof(T)));
  }
  std::vector<autotune::TuneEntry> entries(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SpanScope s(tr, "autotune.predict", req);
    entries[i].config = configs[i];
    perfmodel::ModelInput in;
    in.grid = extent;
    in.radius = radius;
    in.method = method;
    in.config = configs[i];
    in.is_double = sizeof(T) == 8;
    perfmodel::ModelResult r;
    {
      SpanScope e(tr, "perfmodel.evaluate", req);
      r = perfmodel::evaluate(device, in);
    }
    entries[i].model_mpoints = r.valid ? r.mpoints_per_s : 0.0;
  }
  std::size_t n_measure = entries.size();
  if (op.model) {
    // The section-VI cutoff, ranked with the tuner's own comparator.
    const auto n_beta = static_cast<std::size_t>(
        std::ceil(kModelBeta * static_cast<double>(entries.size())));
    n_measure = std::min(entries.size(), std::max<std::size_t>(1, n_beta));
    std::sort(entries.begin(), entries.end(),
              [](const autotune::TuneEntry& a, const autotune::TuneEntry& b) {
                return a.model_mpoints > b.model_mpoints;
              });
  }
  for (std::size_t i = 0; i < n_measure; ++i) {
    const double predicted = entries[i].model_mpoints;
    entries[i] = measure_traced<T>(tr, req, method, coeffs, device, extent, entries[i].config);
    entries[i].model_mpoints = predicted;
  }
  const std::size_t pruned = entries.size() - n_measure;
  TuneAnswer a;
  {
    SpanScope s(tr, "autotune.assemble", req);
    a.result = autotune::assemble_result(std::move(entries), pruned);
  }
  const codegen::CudaKernelSpec spec = codegen_spec(op, a.result.best.config);
  {
    SpanScope s(tr, "codegen.cuda", req);
    a.cuda = codegen::generate_file(spec, extent);
  }
  {
    SpanScope s(tr, "codegen.opencl", req);
    a.opencl = codegen::generate_opencl_kernel(spec);
  }
  return a;
}

// ---------------------------------------------------------------------------

/// Tuning requests in schedule order: cycles of the key space, each in
/// its own seeded order, every key model-guided and then exhaustive.
/// Long enough that no run reaches its end.
std::vector<TuneOp> schedule(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TuneKey> cycle = key_cycle(rng, kExtents);
  std::vector<TuneOp> ops;
  for (int c = 0; c < 30; ++c) {
    rng.shuffle(cycle);
    for (const TuneKey& k : cycle) {
      ops.push_back({k, true});
      ops.push_back({k, false});
    }
  }
  return ops;
}

/// What the oracle phase needs from one timed op.
struct Record {
  bool ok = false;
  autotune::TuneEntry best;
  /// Exhaustive ops: the entry this sweep measured for the preceding
  /// model op's winning config, which the model winner must equal.
  std::string twin_payload;
  std::uint64_t cuda_hash = 0;
  std::uint64_t opencl_hash = 0;
  std::size_t candidates = 0;
  std::size_t executed = 0;
};

Record make_record(const TuneAnswer& a, const Record* model_twin) {
  Record rec;
  rec.ok = a.result.found();
  rec.best = a.result.best;
  rec.cuda_hash = hash_bytes(a.cuda);
  rec.opencl_hash = hash_bytes(a.opencl);
  rec.candidates = a.result.candidates;
  rec.executed = a.result.executed;
  if (model_twin != nullptr) {
    for (const autotune::TuneEntry& e : a.result.entries) {
      if (e.config == model_twin->best.config) rec.twin_payload = autotune::encode_tune_entry(e);
    }
  }
  return rec;
}

/// Checks each (model, exhaustive) pair: the model winner is the entry the
/// exhaustive sweep measured for that config, byte for byte, and it never
/// beats the exhaustive winner.  Returns the geometric mean of model
/// winner / exhaustive winner MPoint/s.
double check_pairs(const std::vector<TuneOp>& ops, const std::vector<Record>& recs,
                   Result& res) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i + 1 < recs.size(); i += 2) {
    const Record& m = recs[i];
    const Record& x = recs[i + 1];
    if (!m.ok || !x.ok) continue;
    if (x.twin_payload != autotune::encode_tune_entry(m.best)) {
      res.fail("model winner of " + ops[i].key.label() +
               " differs from the exhaustive measurement of the same config");
    }
    const double mm = m.best.timing.mpoints_per_s;
    const double xm = x.best.timing.mpoints_per_s;
    if (mm > xm) res.fail("model winner beats the exhaustive winner for " + ops[i].key.label());
    if (mm > 0.0 && xm > 0.0) {
      log_sum += std::log(mm / xm);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

/// Re-tunes every kOracleStride-th op through service::direct_tune and
/// re-emits its code; answers must match byte for byte.
void check_sampled(const std::vector<TuneOp>& ops, const std::vector<Record>& recs,
                   const ExecPolicy& policy, Result& res) {
  for (std::size_t i = 0; i < recs.size(); i += kOracleStride) {
    const Record& rec = recs[i];
    if (!rec.ok) continue;
    const TuneOp& op = ops[i];
    try {
      const autotune::TuneEntry direct =
          service::direct_tune(op.key.wisdom(op.model ? "model" : "exhaustive", kModelBeta),
                               policy);
      if (autotune::encode_tune_entry(direct) != autotune::encode_tune_entry(rec.best)) {
        res.fail("tuner answer for " + op.label() + " differs from service::direct_tune");
      }
      const codegen::CudaKernelSpec spec = codegen_spec(op, rec.best.config);
      const std::string cuda = codegen::generate_file(spec, op.key.extent);
      const std::string opencl = codegen::generate_opencl_kernel(spec);
      if (hash_bytes(cuda) != rec.cuda_hash || hash_bytes(opencl) != rec.opencl_hash ||
          cuda.find(spec.name()) == std::string::npos ||
          opencl.find("__kernel") == std::string::npos) {
        res.fail("emitted code for " + op.label() + " is not reproducible");
      }
    } catch (const std::exception& e) {
      res.fail("oracle for " + op.label() + ": " + e.what());
    }
  }
}

std::map<std::string, double> prefix_counts(const std::vector<Record>& recs) {
  double enumerated = 0.0;
  double executed = 0.0;
  for (std::size_t i = 0; i < std::min(kCountPrefix, recs.size()); ++i) {
    enumerated += static_cast<double>(recs[i].candidates);
    executed += static_cast<double>(recs[i].executed);
  }
  return {{"autotune.candidates_enumerated", enumerated},
          {"autotune.candidates_executed", executed}};
}

/// Runs ops until the deadline, but always through the count prefix and
/// to the end of the current block of @p block ops (a key pair, or a
/// whole key-space cycle so every run times the same population).
template <typename Fn>
void drive(const std::vector<TuneOp>& ops, double seconds, std::size_t block, Fn&& one) {
  const Deadline deadline(seconds);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!deadline.running() && i >= kCountPrefix && i % block == 0) break;
    one(i);
  }
}

}  // namespace

void run_cold_tune(const Options& opt, Result& res, Layers& layers) {
  const ExecPolicy policy{opt.trace ? 1 : host_threads()};
  std::vector<TuneOp> ops;
  const double setup_s = median_setup_seconds(5, [&](bool) {
    ops = schedule(opt.seed);
    // Warm-up: one tune of a key outside the schedule, so lazy start-up
    // (thread pool, allocator, device tables) is paid here, not by op 0.
    const TuneOp warm{TuneKey{"fullslice", 4, "c2050", false, Extent3{128, 128, 32}, 1}, true};
    (void)tune_and_emit(warm, policy);
  });

  std::vector<Record> recs;
  OpTimes times;
  Tracer tracer;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  const double t0 = now_us();
  const std::size_t cycle_ops = 2 * cycle_size(kExtents.size());
  drive(ops, opt.seconds, opt.trace ? 2 : cycle_ops, [&](std::size_t i) {
    const TuneOp& op = ops[i];
    const Record* twin = op.model || recs.empty() ? nullptr : &recs.back();
    res.attempted += 1;
    try {
      double s = now_us();
      const TuneAnswer a = tune_and_emit(op, policy);
      const double ms = (now_us() - s) / 1e3;
      if (!opt.trace) {
        (op.model ? times.light_ms : times.heavy_ms).push_back(ms);
        recs.push_back(make_record(a, twin));
        return;
      }
      plain_ms.push_back(ms);
      s = now_us();
      TuneAnswer composed;
      {
        SpanScope root(&tracer, "cold_tune.request", i);
        composed = op.key.dp ? tune_traced<double>(&tracer, i, op)
                             : tune_traced<float>(&tracer, i, op);
      }
      traced_ms.push_back((now_us() - s) / 1e3);
      if (autotune::encode_tune_entry(composed.result.best) !=
              autotune::encode_tune_entry(a.result.best) ||
          composed.cuda != a.cuda || composed.opencl != a.opencl) {
        res.fail("composed pipeline disagrees with the tuner call for " + op.label());
      }
      recs.push_back(make_record(composed, twin));
    } catch (const std::exception& e) {
      res.fail(op.label() + ": " + e.what());
      recs.push_back(Record{});
    }
  });
  times.wall_s = (now_us() - t0) * 1e-6;

  const double quality = check_pairs(ops, recs, res);
  check_sampled(ops, recs, ExecPolicy{host_threads()}, res);
  const auto counts = prefix_counts(recs);
  check_repeatable_counts(opt, counts, res);

  if (!opt.trace) {
    add_end_to_end(res, times, setup_s, self_peak_rss_mb());
    return;
  }
  const auto reduced = summarize_trace(opt, tracer, "cold_tune.request", layers);
  for (const char* span :
       {"autotune.enumerate", "autotune.predict", "autotune.measure", "autotune.assemble",
        "perfmodel.evaluate", "kernels.make_kernel", "kernels.validate", "kernels.trace_plane",
        "gpusim.estimate_timing", "codegen.cuda", "codegen.opencl"}) {
    put_p50(layers, reduced, span, std::string(span) + ".us");
  }
  for (const auto& [name, value] : counts) layers[name] = value;
  layers["autotune.executed_ratio"] = counts.at("autotune.candidates_enumerated") > 0.0
                                          ? counts.at("autotune.candidates_executed") /
                                                counts.at("autotune.candidates_enumerated")
                                          : 0.0;
  layers["autotune.model_quality"] = quality;
  layers["trace.overhead_ratio"] = pct(traced_ms, 50.0) / pct(plain_ms, 50.0);
}

}  // namespace perfbench
