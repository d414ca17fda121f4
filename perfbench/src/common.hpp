#pragma once

// Shared plumbing of the benchmark runner: command line, seeded inputs,
// the span recorder used by traced runs, latency summaries, the result
// line, child processes, and the exact-repeat store for deterministic
// counts.  Everything here measures the program from the outside; none
// of it is linked into the program itself.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/process.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds on the monotonic clock.
[[nodiscard]] double now_us();

/// Hardware threads the loads may use (the closed loops and sweep pools
/// never exceed it).
[[nodiscard]] int host_threads();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   ///< directory holding inplane_tuned and sweep_supervisor
  std::string work_dir;  ///< scratch space for sockets, wisdom, journals and counts
};

/// splitmix64: every input the benchmark generates comes from one of these,
/// seeded from --seed, so the same seed gives the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename V>
  void shuffle(V& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// One recorded span: a timed public call into one layer.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a request's root span
  std::uint64_t request = 0;
};

/// In-memory span store.  Spans are recorded when they end; the parent is
/// whichever span is open on the same thread.
class Tracer {
 public:
  void record(Span span);
  [[nodiscard]] std::int64_t next_id() { return next_id_.fetch_add(1); }
  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes one JSON object per span to @p path.
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<std::int64_t> next_id_{0};
};

/// RAII span around one call.  A null tracer records nothing, so the
/// traced and untraced code paths are the same code.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::uint64_t request);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  /// Renames the span before it ends (e.g. once a request's source is known).
  void rename(const char* name) { name_ = name; }
  /// Ends the span now; returns its duration in microseconds.
  double close();

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t request_;
  std::int64_t id_ = -1;
  std::int64_t saved_parent_ = -1;
  double start_us_;
  bool open_ = true;
};

/// Per-name reduction of a span set.
struct LayerTime {
  std::vector<double> duration_us;  ///< one per call
  std::vector<double> self_us;      ///< duration minus child spans, per call
};

/// Reduces spans to per-name call durations and self times.  Root spans
/// (parent -1) are the requests; their self time is the unattributed
/// remainder.
[[nodiscard]] std::map<std::string, LayerTime> reduce_spans(const std::vector<Span>& spans);

/// Linear-interpolated percentile, @p p in [0, 100]; 0 for no samples.
[[nodiscard]] double pct(const std::vector<double>& v, double p);

/// The result line the runner prints last.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one wrong answer (or failed operation) and says why on stderr.
  void fail(const std::string& why);
  /// Marks the whole run incorrect (a broken invariant, not one operation).
  void broken(const std::string& why);
  [[nodiscard]] std::string json() const;
};

/// Peak resident set of this process, MiB.
[[nodiscard]] double self_peak_rss_mb();
/// VmHWM of another live process, MiB (0 when unreadable).
[[nodiscard]] double process_peak_rss_mb(std::int64_t pid);

/// Spawns @p argv with stdout and stderr appended to @p log_path, so child
/// output never interleaves with the result line.
[[nodiscard]] inplane::core::ChildProcess spawn_logged(const std::vector<std::string>& argv,
                                                       const std::string& log_path);

/// Waits up to @p timeout_ms for @p child to exit, then kills it; always
/// reaps.  Returns true when it exited on its own with status 0.
bool stop_child(inplane::core::ChildProcess& child, double timeout_ms);

/// FNV-1a of a byte string.
[[nodiscard]] std::uint64_t hash_bytes(const std::string& bytes);

/// Creates @p path (and parents); returns it.
std::string make_dir(const std::string& path);
/// Removes @p path recursively (errors ignored).
void remove_tree(const std::string& path);

/// Exact-repeat check for counts that depend only on the seed: the first
/// run of a (workload, seed) stores them under the work directory, every
/// later run must reproduce them exactly.  Drift marks the run incorrect.
void check_repeatable_counts(const Options& opt, const std::map<std::string, double>& counts,
                             Result& result);

/// Time-bounded loop control: true while the timed phase should continue.
class Deadline {
 public:
  explicit Deadline(double seconds) : end_us_(now_us() + seconds * 1e6) {}
  [[nodiscard]] bool running() const { return now_us() < end_us_; }

 private:
  double end_us_;
};

/// Median of @p reps runs of @p setup(last), in seconds; `last` is true on
/// the final run, whose state the workload keeps.
template <typename Fn>
double median_setup_seconds(int reps, Fn&& setup) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_us();
    setup(i == reps - 1);
    t.push_back((now_us() - t0) * 1e-6);
  }
  return pct(t, 50.0);
}

/// Per-layer metric values of a traced run, by name.
using Layers = std::map<std::string, double>;

/// Latencies of one untraced timed phase, split into the workload's light
/// and heavy operation classes.
struct OpTimes {
  std::vector<double> light_ms;
  std::vector<double> heavy_ms;
  double wall_s = 0.0;  ///< timed wall clock, oracle work excluded
};

/// Adds every end-to-end metric; marks the run broken when a class has no
/// samples.
void add_end_to_end(Result& result, const OpTimes& times, double setup_s, double peak_rss_mb);

/// Writes the spans and a self-time share table (per layer, over all
/// requests) under work_dir/traces, stores the unattributed remainder of
/// the requests (root spans named @p root) in @p layers, and returns the
/// per-name reduction.
std::map<std::string, LayerTime> summarize_trace(const Options& opt, const Tracer& tracer,
                                                 const std::string& root, Layers& layers);

/// Stores the p50 of a span's per-call durations as @p metric (scaled
/// from microseconds by @p scale).
void put_p50(Layers& layers, const std::map<std::string, LayerTime>& reduced,
             const std::string& span, const std::string& metric, double scale = 1.0);

// Workload entry points.  Untraced runs add the end-to-end metrics to the
// result; traced runs fill @p layers.
void run_cold_tune(const Options& opt, Result& result, Layers& layers);
void run_daemon_mix(const Options& opt, Result& result, Layers& layers);
void run_simulate(const Options& opt, Result& result, Layers& layers);
void run_fleet_sweep(const Options& opt, Result& result, Layers& layers);

/// Every per-layer metric name with its unit, in report order.  A traced
/// run prints all of them; a layer the workload does not exercise reads 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace perfbench
