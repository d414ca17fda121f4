// simulate: a closed loop of one caller launching whole-grid kernels on
// the simulated device with kernels::run_kernel — the only workload where
// gpusim block execution, the coalescer, shared memory and the trace memo
// do the work (tuning never calls run_kernel).  Each cycle launches every
// variant at every order twice: ExecMode::Both on a 128x128x32 grid (every block
// executed, output checked against core/reference: the heavy class) and
// ExecMode::Trace on a 256x256x128 grid (the trace_best path, where
// position classes replay most blocks: the light class).  Each class has
// one grid size so its percentiles sit inside one cost cluster.

#include <array>
#include <cmath>
#include <cstdio>
#include <memory>

#include "autotune/search_space.hpp"
#include "common.hpp"
#include "core/reference.hpp"
#include "core/ulp_compare.hpp"
#include "distributed/sweep_spec.hpp"
#include "kernels/runner.hpp"
#include "metrics/metrics.hpp"

namespace perfbench {

namespace {

using namespace inplane;

const Extent3 kBothGrid{128, 128, 32};    // in + out fit the host's 8 MiB L2 (SP)
const Extent3 kTraceGrid{256, 256, 128};  // far larger than L2
constexpr std::size_t kCountPrefix = 24;  // launches every run completes

const char* const kMethods[] = {"classical", "vertical", "horizontal",
                                "fullslice", "forward",  "fullslice"};

/// Block shapes tried in seeded order; the first that validates is used.
const kernels::LaunchConfig kShapes[] = {
    {32, 8, 1, 1, 1, 1}, {16, 8, 2, 1, 1, 1}, {32, 4, 1, 2, 1, 1}, {16, 4, 2, 2, 1, 1},
    {64, 4, 1, 1, 1, 1}, {32, 8, 2, 1, 1, 1}, {64, 2, 1, 2, 1, 1}, {16, 4, 1, 1, 1, 1}};

struct Launch {
  kernels::Method method{};
  std::string label;
  int order = 2;
  int tb = 1;
  bool dp = false;
  bool both = false;
  std::string device;
  kernels::LaunchConfig config;
  [[nodiscard]] Extent3 grid() const { return both ? kBothGrid : kTraceGrid; }
};

/// Seeded, position-independent input value in [-1, 1).
double input_value(std::uint64_t seed, int i, int j, int k) {
  std::uint64_t z = seed ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 40) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(j)) << 20) ^
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(k));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-52 - 1.0;
}

template <typename T>
bool config_valid(const Launch& l, const gpusim::DeviceSpec& dev) {
  const auto k = kernels::make_kernel<T>(l.method, StencilCoeffs::diffusion(l.order / 2), l.config);
  return !k->validate(dev, l.grid()).has_value();
}

/// Gives @p l the first block shape, from @p first on, that fits the
/// device.  When none fits (the degree-2 rings of the highest orders
/// overflow shared memory) the order steps down until one does.
void pick_config(Launch& l, std::size_t first) {
  const gpusim::DeviceSpec dev = distributed::resolve_device(l.device);
  for (; l.order >= 2; l.order -= 2) {
    for (std::size_t s = 0; s < std::size(kShapes); ++s) {
      l.config = kShapes[(first + s) % std::size(kShapes)];
      l.config.vec = autotune::default_vec(l.method, l.dp ? 8 : 4);
      l.config.tb = l.tb;
      if (l.dp ? config_valid<double>(l, dev) : config_valid<float>(l, dev)) return;
    }
  }
  throw std::runtime_error("no launch configuration fits " + l.label);
}

/// Launches per cycle: every variant x order {2..12} in both modes.
constexpr std::size_t kCycle = 72;

/// Cycles of kCycle launches, each cycle in its own seeded order.  Every
/// cycle holds the same launches whatever the seed (precision, device and
/// block shape rotate over them in a fixed pattern), so runs that cover
/// whole cycles time the same population.
std::vector<Launch> schedule(std::uint64_t seed, std::size_t cycles) {
  static const std::array<const char*, 3> kDevices = {"gtx580", "gtx680", "c2070"};
  Rng rng(seed);
  std::vector<Launch> cycle;
  for (std::size_t v = 0; v < 6; ++v) {
    for (std::size_t o = 0; o < 6; ++o) {
      for (std::size_t both = 0; both < 2; ++both) {
        Launch l;
        l.label = kMethods[v];
        l.method = distributed::resolve_method(kMethods[v]);
        l.tb = v == 5 ? 2 : 1;
        l.both = both == 1;
        l.order = 2 + 2 * static_cast<int>(o);
        l.dp = (v + o + both) % 2 == 1;
        l.device = kDevices[(v + o) % 3];
        pick_config(l, (v + 2 * o + both) % std::size(kShapes));
        cycle.push_back(l);
      }
    }
  }
  std::vector<Launch> out;
  for (std::size_t c = 0; c < cycles; ++c) {
    rng.shuffle(cycle);
    out.insert(out.end(), cycle.begin(), cycle.end());
  }
  return out;
}

struct LaunchResult {
  double ms = 0.0;         ///< run_kernel only
  double reference_ms = 0.0;
  gpusim::TraceStats stats;
  std::string error;       ///< non-empty: the launch failed or mismatched
};

template <typename T>
LaunchResult launch(const Launch& l, std::uint64_t seed, const ExecPolicy& policy,
                    Tracer* tr, std::uint64_t req) {
  LaunchResult res;
  const StencilCoeffs coeffs = StencilCoeffs::diffusion(l.order / 2);
  const auto kernel = kernels::make_kernel<T>(l.method, coeffs, l.config);
  const gpusim::DeviceSpec dev = distributed::resolve_device(l.device);
  Grid3<T> in = kernels::make_grid_for(*kernel, l.grid());
  Grid3<T> out = kernels::make_grid_for(*kernel, l.grid());
  if (l.both) {
    in.fill_with_halo([&](int i, int j, int k) { return static_cast<T>(input_value(seed, i, j, k)); });
  }
  double t0 = now_us();
  {
    SpanScope root(tr, "simulate.launch", req);
    SpanScope s(tr, l.both ? "kernels.run_kernel.both" : "kernels.run_kernel.trace", req);
    res.stats = kernels::run_kernel(*kernel, in, out, dev,
                                    l.both ? gpusim::ExecMode::Both : gpusim::ExecMode::Trace,
                                    policy);
  }
  res.ms = (now_us() - t0) / 1e3;
  if (!l.both) return res;
  // Oracle: tb Jacobi steps of the CPU reference with the halo frozen, as
  // the degree-N kernels implement it, compared within the ULP budget.
  t0 = now_us();
  Grid3<T> a = in;
  Grid3<T> b = in;
  for (int s = 0; s < l.tb; ++s) {
    apply_reference(a, b, coeffs);
    std::swap(a, b);
  }
  const UlpGridDiff diff = ulp_compare_grids(
      out, a, UlpBudget::for_order(l.order, sizeof(T)).scaled(static_cast<double>(l.tb)));
  res.reference_ms = (now_us() - t0) / 1e3;
  if (!diff.pass) res.error = diff.describe();
  return res;
}

LaunchResult run_one(const Launch& l, std::uint64_t seed, const ExecPolicy& policy, Tracer* tr,
                     std::uint64_t req) {
  try {
    return l.dp ? launch<double>(l, seed, policy, tr, req) : launch<float>(l, seed, policy, tr, req);
  } catch (const std::exception& e) {
    LaunchResult r;
    r.error = e.what();
    return r;
  }
}

std::string describe(const Launch& l) {
  return std::string(l.both ? "Both " : "Trace ") + l.label + (l.tb > 1 ? "/tb2" : "") + " o" +
         std::to_string(l.order) + (l.dp ? " dp " : " sp ") + l.device + " " +
         l.config.to_string();
}

double mpts_per_s(const Launch& l, double ms) {
  return static_cast<double>(l.grid().volume()) * l.tb / (ms * 1e3);
}

}  // namespace

void run_simulate(const Options& opt, Result& res, Layers& layers) {
  const ExecPolicy policy{host_threads()};
  std::vector<Launch> launches;
  const double setup_s = median_setup_seconds(5, [&](bool) {
    launches = schedule(opt.seed, 10);
    // Warm-up: one launch per mode outside the schedule.
    Launch warm;
    warm.method = kernels::Method::InPlaneFullSlice;
    warm.label = "fullslice";
    warm.device = "c2050";
    warm.config = kernels::LaunchConfig{32, 8, 1, 1, 4, 1};
    for (const bool both : {true, false}) {
      warm.both = both;
      (void)run_one(warm, opt.seed, policy, nullptr, 0);
    }
  });
  std::fprintf(stderr, "perfbench: Both grid %dx%dx%d, Trace grid %dx%dx%d\n", kBothGrid.nx,
               kBothGrid.ny, kBothGrid.nz, kTraceGrid.nx, kTraceGrid.ny, kTraceGrid.nz);

  auto& reg = metrics::Registry::global();
  OpTimes times;
  Tracer tracer;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  std::vector<double> both_rate;
  std::vector<double> trace_rate;
  std::vector<double> reference_ms;
  std::map<std::string, double> counts{{"gpusim.bytes_transferred_ld", 0.0}, {"gpusim.flops", 0.0}};
  // The loop measures opt.seconds of launch time; grid set-up and the
  // reference check between launches are not timed.  The wall-clock cap
  // bounds the run if set-up ever dominates.
  const Deadline wall_cap(3.0 * opt.seconds);
  double measured_s = 0.0;
  for (std::size_t i = 0; i < launches.size(); ++i) {
    // Untraced runs end on a cycle boundary; traced runs when time is up.
    const bool at_boundary = opt.trace || i % kCycle == 0;
    if (i >= kCountPrefix && ((measured_s >= opt.seconds && at_boundary) || !wall_cap.running())) {
      break;
    }
    const Launch& l = launches[i];
    res.attempted += 1;
    LaunchResult r = run_one(l, opt.seed, policy, nullptr, i);
    measured_s += r.ms / 1e3;
    if (opt.trace && r.error.empty()) {
      plain_ms.push_back(r.ms);
      metrics::set_enabled(true);
      r = run_one(l, opt.seed, policy, &tracer, i);
      metrics::set_enabled(false);
      traced_ms.push_back(r.ms);
      measured_s += r.ms / 1e3;
    }
    if (!r.error.empty()) {
      res.fail(describe(l) + ": " + r.error);
      continue;
    }
    (l.both ? times.heavy_ms : times.light_ms).push_back(r.ms);
    (l.both ? both_rate : trace_rate).push_back(mpts_per_s(l, r.ms));
    times.wall_s += r.ms / 1e3;
    if (l.both) reference_ms.push_back(r.reference_ms);
    if (i < kCountPrefix) {
      counts["gpusim.bytes_transferred_ld"] += static_cast<double>(r.stats.bytes_transferred_ld);
      counts["gpusim.flops"] += static_cast<double>(r.stats.flops);
    }
    if (opt.trace && i + 1 == kCountPrefix) {
      for (const char* name : {"gpusim.blocks", "gpusim.trace_memo.classes",
                               "gpusim.trace_memo.blocks_replayed"}) {
        counts[name] = static_cast<double>(reg.counter(name).value());
      }
    }
  }
  check_repeatable_counts(opt, counts, res);

  if (!opt.trace) {
    add_end_to_end(res, times, setup_s, self_peak_rss_mb());
    return;
  }
  const auto reduced = summarize_trace(opt, tracer, "simulate.launch", layers);
  put_p50(layers, reduced, "kernels.run_kernel.both", "kernels.run_kernel.both.ms", 1e-3);
  put_p50(layers, reduced, "kernels.run_kernel.trace", "kernels.run_kernel.trace.ms", 1e-3);
  layers["sim.mpts_per_s.both"] = pct(both_rate, 50.0);
  layers["sim.mpts_per_s.trace"] = pct(trace_rate, 50.0);
  layers["core.reference.ms"] = pct(reference_ms, 50.0);
  for (const auto& [name, value] : counts) layers[name] = value;
  // Share of the traced blocks whose stats were replayed from their
  // position class instead of being traced.
  const double blocks = counts["gpusim.blocks"];
  layers["gpusim.trace_memo.replay_ratio"] =
      blocks > 0.0 ? counts["gpusim.trace_memo.blocks_replayed"] / blocks : 0.0;
  layers["trace.overhead_ratio"] = pct(traced_ms, 50.0) / pct(plain_ms, 50.0);
}

}  // namespace perfbench
