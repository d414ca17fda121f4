// fleet_sweep: a closed loop of one caller running exhaustive sweeps
// through distributed::run_distributed_sweep — two worker processes (the
// built sweep_supervisor), candidate partitioning, heartbeats, shard
// journals and a merge per sweep.  In-plane keys on small extents (fewer
// candidates) are the light class, on large extents the heavy one, so the
// fleet's fixed per-sweep costs show against sweeps of both sizes.  Each
// class spans several of the supervisor's 10 ms poll intervals, so its
// median does not flip between two of them.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>

#include "autotune/checkpoint.hpp"
#include "autotune/search_space.hpp"
#include "autotune/tuner.hpp"
#include "common.hpp"
#include "distributed/supervisor.hpp"
#include "keys.hpp"
#include "service/service.hpp"

namespace perfbench {

namespace {

using namespace inplane;

constexpr int kWorkers = 2;
constexpr std::size_t kCountPrefix = 8;  // sweeps every run completes

struct FleetOp {
  distributed::SweepSpec spec;
  std::size_t candidates = 0;
  bool heavy = false;  ///< large extent, many candidates
  [[nodiscard]] std::string label() const {
    return spec.method + " o" + std::to_string(spec.order) + " " + spec.device +
           (spec.double_precision ? " dp " : " sp ") + std::to_string(spec.extent.nx) + "x" +
           std::to_string(spec.extent.ny) + "x" + std::to_string(spec.extent.nz) + " (" +
           std::to_string(candidates) + " candidates)";
  }
  [[nodiscard]] service::WisdomKey wisdom() const {
    const TuneKey k{spec.method, spec.order, spec.device, spec.double_precision, spec.extent, 1};
    return k.wisdom("exhaustive", 0.0);
  }
};

std::size_t count_candidates(const distributed::SweepSpec& spec) {
  const kernels::Method m = distributed::resolve_method(spec.method);
  return autotune::SearchSpace{}
      .enumerate(distributed::resolve_device(spec.device), spec.extent, m, spec.radius(),
                 spec.elem_size(), autotune::default_vec(m, spec.elem_size()))
      .size();
}

/// Sweeps per cycle: each in-plane method x order {2..12} on a small
/// extent (light) and on a large one (heavy).
constexpr std::size_t kCycle = 48;

/// Cycles of kCycle sweeps, each cycle in its own seeded order.  Every
/// cycle holds the same keys whatever the seed, so runs that cover whole
/// cycles time the same population.  The four
/// extents spread the candidate counts for the break-even fit.
std::vector<FleetOp> schedule(std::uint64_t seed, std::size_t cycles) {
  static const std::array<const char*, 4> kInPlane = {"classical", "vertical", "horizontal",
                                                      "fullslice"};
  static const std::array<const char*, 3> kDevices = {"gtx580", "gtx680", "c2070"};
  const std::array<Extent3, 2> light = {Extent3{64, 64, 64}, Extent3{128, 64, 64}};
  const std::array<Extent3, 2> heavy = {Extent3{256, 256, 64}, Extent3{512, 512, 64}};
  Rng rng(seed);
  std::vector<FleetOp> cycle;
  for (std::size_t m = 0; m < kInPlane.size(); ++m) {
    for (std::size_t o = 0; o < 6; ++o) {
      for (std::size_t h = 0; h < 2; ++h) {
        FleetOp op;
        distributed::SweepSpec& s = op.spec;
        s.method = kInPlane[m];
        s.order = 2 + 2 * static_cast<int>(o);
        s.device = kDevices[(m + 2 * o + h) % 3];
        s.double_precision = (m + o + h) % 2 == 1;
        s.extent = (h == 1 ? heavy : light)[(m + o) % 2];
        s.kind = "exhaustive";
        op.candidates = count_candidates(s);
        op.heavy = h == 1;
        cycle.push_back(op);
      }
    }
  }
  std::vector<FleetOp> ops;
  for (std::size_t c = 0; c < cycles; ++c) {
    rng.shuffle(cycle);
    ops.insert(ops.end(), cycle.begin(), cycle.end());
  }
  return ops;
}

distributed::SupervisorOptions supervisor(const Options& opt, const FleetOp& op,
                                          const std::string& dir) {
  distributed::SupervisorOptions so;
  so.spec = op.spec;
  so.workers = kWorkers;
  so.mode = distributed::PartitionMode::Candidates;
  so.checkpoint_dir = dir;
  so.worker_exe = opt.bin_dir + "/sweep_supervisor";
  return so;
}

/// Least-squares line y = a + b x.
std::pair<double, double> fit(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double den = n * sxx - sx * sx;
  const double b = den != 0.0 ? (n * sxy - sx * sy) / den : 0.0;
  return {n > 0.0 ? (sy - b * sx) / n : 0.0, b};
}

/// What the traced run measures per sweep besides the sweep itself.
struct Comparison {
  double candidates = 0.0;
  double fleet_ms = 0.0;
  double merge_ms = 0.0;
  double inprocess_ms = 0.0;  ///< the same key, in-process, kWorkers threads
  double journaled_ms = 0.0;  ///< the same, journaling every candidate
};

/// Times merge_journals on the sweep's shard journals, then the key's
/// in-process sweep without and with a checkpoint journal.
Comparison compare(Tracer& tr, std::uint64_t req, const FleetOp& op, const std::string& dir) {
  Comparison c;
  c.candidates = static_cast<double>(op.candidates);
  const ExecPolicy two{kWorkers};
  const Extent3 measured =
      distributed::measure_extent(op.spec, distributed::PartitionMode::Candidates, kWorkers);
  std::vector<std::string> journals;
  for (int w = 0; w < kWorkers; ++w) journals.push_back(distributed::journal_path(dir, w));
  {
    SpanScope sp(&tr, "distributed.merge", req);
    (void)autotune::merge_journals(journals, distributed::checkpoint_key(op.spec, measured));
    c.merge_ms = sp.close() / 1e3;
  }
  {
    SpanScope sp(&tr, "distributed.inprocess", req);
    (void)service::direct_tune(op.wisdom(), two);
    c.inprocess_ms = sp.close() / 1e3;
  }
  autotune::TuneOptions topts;
  topts.policy = two;
  topts.checkpoint_path = dir + "/inprocess.journal";
  const kernels::Method method = distributed::resolve_method(op.spec.method);
  const gpusim::DeviceSpec device = distributed::resolve_device(op.spec.device);
  const StencilCoeffs coeffs = StencilCoeffs::diffusion(op.spec.radius());
  {
    SpanScope sp(&tr, "autotune.checkpoint.sweep", req);
    if (op.spec.double_precision) {
      (void)autotune::exhaustive_tune<double>(method, coeffs, device, op.spec.extent, {}, topts);
    } else {
      (void)autotune::exhaustive_tune<float>(method, coeffs, device, op.spec.extent, {}, topts);
    }
    c.journaled_ms = sp.close() / 1e3;
  }
  return c;
}

void add_fleet_layers(const std::vector<Comparison>& cmp, Layers& layers) {
  std::vector<double> n, fleet, inproc, merge, overhead, append_us;
  for (const Comparison& c : cmp) {
    n.push_back(c.candidates);
    fleet.push_back(c.fleet_ms);
    inproc.push_back(c.inprocess_ms);
    merge.push_back(c.merge_ms);
    overhead.push_back(c.fleet_ms - c.inprocess_ms);
    append_us.push_back((c.journaled_ms - c.inprocess_ms) * 1e3 / c.candidates);
  }
  layers["distributed.sweep.ms"] = pct(fleet, 50.0);
  layers["distributed.inprocess.ms"] = pct(inproc, 50.0);
  layers["distributed.overhead.ms"] = pct(overhead, 50.0);
  layers["distributed.merge.ms"] = pct(merge, 50.0);
  layers["autotune.checkpoint.append.us"] = pct(append_us, 50.0);

  // Break-even: fit fleet and in-process sweep time against candidate
  // count; the fleet pays off beyond the crossing, if the lines cross.
  const auto [fa, fb] = fit(n, fleet);
  const auto [ia, ib] = fit(n, inproc);
  double breakeven = -1.0;
  if (ib > fb && fa > ia) breakeven = (fa - ia) / (ib - fb);
  const double lo = n.empty() ? 0.0 : *std::min_element(n.begin(), n.end());
  const double hi = n.empty() ? 0.0 : *std::max_element(n.begin(), n.end());
  std::string verdict = "none: the lines do not cross";
  if (breakeven >= 0.0) {
    verdict = "at " + std::to_string(breakeven) + " candidates" +
              (breakeven >= lo && breakeven <= hi ? "" : ", none in range");
  }
  std::fprintf(stderr,
               "perfbench: fleet ms = %.3f + %.5f n, in-process ms = %.3f + %.5f n over "
               "n = %.0f..%.0f candidates; break-even %s\n",
               fa, fb, ia, ib, lo, hi, verdict.c_str());
  layers["distributed.breakeven_candidates"] = breakeven;
}

}  // namespace

void run_fleet_sweep(const Options& opt, Result& res, Layers& layers) {
  const std::string root = make_dir(opt.work_dir + "/fs" + std::to_string(::getpid()));
  std::vector<FleetOp> ops;
  const double setup_s = median_setup_seconds(5, [&](bool) {
    ops = schedule(opt.seed, 20);
    // Warm-up: one small sweep outside the schedule (pages in the worker
    // binary and the journal directory tree).
    FleetOp warm;
    warm.spec.method = "forward";
    warm.spec.device = "c2050";
    warm.spec.extent = Extent3{128, 128, 64};
    warm.spec.order = 4;
    (void)distributed::run_distributed_sweep(supervisor(opt, warm, root + "/warm"));
  });

  std::vector<std::pair<std::size_t, std::string>> answers;  // (op, best payload)
  OpTimes times;
  Tracer tracer;
  std::vector<double> plain_ms;
  std::vector<Comparison> cmp;
  std::map<std::string, double> counts;
  const double t0 = now_us();
  const Deadline deadline(opt.seconds);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    // Untraced runs end on a cycle boundary; traced runs at the deadline.
    if (!deadline.running() && i >= kCountPrefix && (opt.trace || i % kCycle == 0)) break;
    const FleetOp& op = ops[i];
    const std::string dir = root + "/s" + std::to_string(i);
    res.attempted += 1;
    try {
      double s = now_us();
      distributed::SweepReport rep = distributed::run_distributed_sweep(supervisor(opt, op, dir));
      const double ms = (now_us() - s) / 1e3;
      if (!rep.complete || !rep.result.found()) {
        res.fail("incomplete fleet sweep for " + op.label());
        remove_tree(dir);
        continue;
      }
      answers.emplace_back(i, autotune::encode_tune_entry(rep.result.best));
      (op.heavy ? times.heavy_ms : times.light_ms).push_back(ms);
      if (i < kCountPrefix) {
        counts["autotune.candidates_enumerated"] += static_cast<double>(rep.result.candidates);
        counts["autotune.candidates_executed"] += static_cast<double>(rep.result.executed);
        counts["distributed.workers_spawned"] += static_cast<double>(rep.workers_spawned);
        counts["distributed.workers_lost"] += static_cast<double>(rep.workers_lost);
        counts["distributed.journal_merge_dups"] += static_cast<double>(rep.journal_merge_dups);
      }
      if (opt.trace) {
        plain_ms.push_back(ms);
        remove_tree(dir);
        Comparison c;
        {
          SpanScope root_span(&tracer, "fleet.request", i);
          SpanScope sweep(&tracer, "distributed.sweep", i);
          rep = distributed::run_distributed_sweep(supervisor(opt, op, dir));
          sweep.close();
          c.fleet_ms = root_span.close() / 1e3;
        }
        const double fleet_ms = c.fleet_ms;
        c = compare(tracer, i, op, dir);
        c.fleet_ms = fleet_ms;
        cmp.push_back(c);
      }
    } catch (const std::exception& e) {
      res.fail(op.label() + ": " + e.what());
    }
    remove_tree(dir);
  }
  times.wall_s = (now_us() - t0) * 1e-6;

  // Oracle: every fleet answer equals the single-process sweep, byte for byte.
  for (const auto& [i, payload] : answers) {
    try {
      const std::string direct = autotune::encode_tune_entry(
          service::direct_tune(ops[i].wisdom(), ExecPolicy{host_threads()}));
      if (direct != payload) res.fail("fleet answer differs from direct_tune for " + ops[i].label());
    } catch (const std::exception& e) {
      res.fail("oracle for " + ops[i].label() + ": " + e.what());
    }
  }
  check_repeatable_counts(opt, counts, res);
  remove_tree(root);

  if (!opt.trace) {
    add_end_to_end(res, times, setup_s, self_peak_rss_mb());
    return;
  }
  const auto reduced = summarize_trace(opt, tracer, "fleet.request", layers);
  add_fleet_layers(cmp, layers);
  for (const auto& [name, value] : counts) layers[name] = value;
  const double enumerated = counts["autotune.candidates_enumerated"];
  layers["autotune.executed_ratio"] =
      enumerated > 0.0 ? counts["autotune.candidates_executed"] / enumerated : 0.0;
  std::vector<double> traced_ms;
  for (const Comparison& c : cmp) traced_ms.push_back(c.fleet_ms);
  layers["trace.overhead_ratio"] = pct(traced_ms, 50.0) / pct(plain_ms, 50.0);
}

}  // namespace perfbench
