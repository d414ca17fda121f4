#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "autotune/fingerprint.hpp"
#include "report/stats.hpp"

namespace perfbench {

namespace fs = std::filesystem;

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now().time_since_epoch()).count();
}

int host_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Spans

namespace {
thread_local std::int64_t t_open_span = -1;
}  // namespace

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"id\":%lld,"
                  "\"parent\":%lld,\"request\":%llu}\n",
                  s.name.c_str(), s.start_us, s.end_us, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), static_cast<unsigned long long>(s.request));
    out << buf;
  }
}

SpanScope::SpanScope(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer), name_(name), request_(request), start_us_(now_us()) {
  if (tracer_ != nullptr) {
    id_ = tracer_->next_id();
    saved_parent_ = t_open_span;
    t_open_span = id_;
  }
}

SpanScope::~SpanScope() {
  if (open_) (void)close();
}

double SpanScope::close() {
  const double end = now_us();
  if (!open_) return 0.0;
  open_ = false;
  if (tracer_ != nullptr) {
    t_open_span = saved_parent_;
    tracer_->record(Span{name_, start_us_, end, id_, saved_parent_, request_});
  }
  return end - start_us_;
}

std::map<std::string, LayerTime> reduce_spans(const std::vector<Span>& spans) {
  std::map<std::int64_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    const double d = s.end_us - s.start_us;
    const auto it = child_us.find(s.id);
    LayerTime& lt = out[s.name];
    lt.duration_us.push_back(d);
    lt.self_us.push_back(d - (it == child_us.end() ? 0.0 : it->second));
  }
  return out;
}

double pct(const std::vector<double>& v, double p) {
  return inplane::report::percentile(v, p);
}

std::map<std::string, LayerTime> summarize_trace(const Options& opt, const Tracer& tracer,
                                                 const std::string& root, Layers& layers) {
  const std::string dir = make_dir(opt.work_dir + "/traces");
  const std::string stem = dir + "/" + opt.workload + "-" + std::to_string(opt.seed);
  tracer.write_jsonl(stem + ".spans.jsonl");
  const auto reduced = reduce_spans(tracer.spans());
  double total = 0.0;
  if (const auto it = reduced.find(root); it != reduced.end()) {
    for (double d : it->second.duration_us) total += d;
  }
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, lt] : reduced) {
    double self = 0.0;
    for (double s : lt.self_us) self += s;
    rows.emplace_back(self, name);
  }
  std::sort(rows.rbegin(), rows.rend());
  std::ofstream out(stem + ".breakdown.txt");
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-34s %8s %10s %12s %12s\n", "span (self time)", "share",
                "calls", "p50 call us", "p50 self us");
  out << buf;
  std::fputs(buf, stderr);
  for (const auto& [self, name] : rows) {
    const LayerTime& lt = reduced.at(name);
    std::snprintf(buf, sizeof(buf), "%-34s %7.2f%% %10zu %12.2f %12.2f\n",
                  (name == root ? name + " (unattributed)" : name).c_str(),
                  total > 0.0 ? 100.0 * self / total : 0.0, lt.duration_us.size(),
                  pct(lt.duration_us, 50.0), pct(lt.self_us, 50.0));
    out << buf;
    std::fputs(buf, stderr);
  }
  if (const auto it = reduced.find(root); it != reduced.end()) {
    const LayerTime& roots = it->second;
    std::vector<double> share;
    for (std::size_t i = 0; i < roots.self_us.size(); ++i) {
      share.push_back(roots.self_us[i] / roots.duration_us[i]);
    }
    layers["trace.unattributed.us"] = pct(roots.self_us, 50.0);
    layers["trace.unattributed_share"] = pct(share, 50.0);
  }
  return reduced;
}

void put_p50(Layers& layers, const std::map<std::string, LayerTime>& reduced,
             const std::string& span, const std::string& metric, double scale) {
  if (const auto it = reduced.find(span); it != reduced.end()) {
    layers[metric] = pct(it->second.duration_us, 50.0) * scale;
  }
}

void add_end_to_end(Result& result, const OpTimes& t, double setup_s, double peak_rss_mb) {
  if (t.light_ms.empty() || t.heavy_ms.empty() || t.wall_s <= 0.0) {
    result.broken("a latency class has no samples");
  }
  result.add("light_ms.p50", pct(t.light_ms, 50.0), "ms");
  result.add("light_ms.p90", pct(t.light_ms, 90.0), "ms");
  result.add("heavy_ms.p50", pct(t.heavy_ms, 50.0), "ms");
  result.add("heavy_ms.p90", pct(t.heavy_ms, 90.0), "ms");
  result.add("ops_per_s",
             static_cast<double>(t.light_ms.size() + t.heavy_ms.size()) /
                 (t.wall_s > 0.0 ? t.wall_s : 1.0),
             "1/s");
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mb, "MiB");
  std::fprintf(stderr, "perfbench: %zu light and %zu heavy operations in %.2f s\n",
               t.light_ms.size(), t.heavy_ms.size(), t.wall_s);
}

// ---------------------------------------------------------------------------
// Result line

void Result::fail(const std::string& why) {
  failed += 1;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void Result::broken(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: BROKEN: %s\n", why.c_str());
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Processes and files

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double process_peak_rss_mb(std::int64_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

inplane::core::ChildProcess spawn_logged(const std::vector<std::string>& argv,
                                         const std::string& log_path) {
  // `exec` keeps the pid, so the returned handle is the program itself.
  std::vector<std::string> sh = {"/bin/sh", "-c", "log=$0; exec \"$@\" >>\"$log\" 2>&1",
                                 log_path};
  sh.insert(sh.end(), argv.begin(), argv.end());
  return inplane::core::ChildProcess::spawn(sh);
}

bool stop_child(inplane::core::ChildProcess& child, double timeout_ms) {
  if (!child.valid()) return true;
  const double until = now_us() + timeout_ms * 1e3;
  while (now_us() < until) {
    if (const auto st = child.poll()) return st->success();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  child.kill_hard();
  (void)child.wait();
  return false;
}

std::uint64_t hash_bytes(const std::string& bytes) {
  return inplane::autotune::fnv1a_str(inplane::autotune::kFingerprintSeed, bytes);
}

std::string make_dir(const std::string& path) {
  fs::create_directories(path);
  return path;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

void check_repeatable_counts(const Options& opt, const std::map<std::string, double>& counts,
                             Result& result) {
  const std::string dir = make_dir(opt.work_dir + "/counts");
  const std::string path =
      dir + "/" + opt.workload + "-" + std::to_string(opt.seed) + (opt.trace ? "-t" : "") + ".txt";
  std::ostringstream now;
  for (const auto& [name, value] : counts) now << name << " " << std::to_string(value) << "\n";
  std::ifstream in(path);
  if (!in) {
    std::ofstream(path) << now.str();
    return;
  }
  std::stringstream before;
  before << in.rdbuf();
  if (before.str() != now.str()) {
    result.broken("deterministic counts drifted between runs of seed " +
                  std::to_string(opt.seed) + ":\nbefore:\n" + before.str() + "now:\n" +
                  now.str());
  }
}

}  // namespace perfbench
