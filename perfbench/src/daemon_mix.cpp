// daemon_mix: kClients persistent connections to a real
// `inplane_tuned serve`, each a closed loop of TUNE requests over a pool
// of model-guided keys.  Untimed warm-up: every client asks for every key
// once, in its own order, so each key is swept exactly once (appended to
// the wisdom file) and the other client hits or joins that sweep.  Timed
// phase: whole cycles, each a hit phase (31 Zipf(s=1) requests per key,
// all answered from wisdom) and then a sweep phase (every key once with
// no_cache=1, always swept), the clients meeting at a barrier after each
// phase.  Hits are the light class, no_cache sweeps the heavy one; every
// cycle holds the same work whatever the seed.  The phases are kept apart
// because a sweep sharing a core with the other connection's stream of
// hits made both latencies depend on where the scheduler placed threads.

#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "autotune/checkpoint.hpp"
#include "common.hpp"
#include "keys.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"

namespace perfbench {

namespace {

using namespace inplane;
namespace fs = std::filesystem;

const std::vector<Extent3> kExtents = {Extent3{512, 512, 256}, Extent3{256, 256, 64}};
/// Two connections keep the daemon serving concurrent requests; one
/// thread per sweep keeps the clients and the daemon's busy threads within
/// four cores, so the figures measure the daemon rather than the scheduler.
constexpr int kClients = 2;
constexpr int kSweepThreads = 1;
constexpr std::size_t kHitsPerSweep = 31;   ///< Zipf hits per no_cache request in a cycle
constexpr std::size_t kPrefabRecords = 64;  ///< wisdom records the daemon reloads at start
constexpr std::size_t kCapacity = 4096;     ///< above pool + prefab: no eviction

/// One request of a client's schedule.
struct Req {
  std::uint32_t key = 0;
  bool no_cache = false;
};

/// The seeded per-client request stream.
class Schedule {
 public:
  Schedule(std::uint64_t seed, int client, std::size_t pool)
      : rng_(seed ^ (0x5851f42d4c957f2dull * static_cast<std::uint64_t>(client + 1))) {
    double sum = 0.0;
    for (std::size_t k = 1; k <= pool; ++k) cdf_.push_back(sum += 1.0 / static_cast<double>(k));
    for (double& c : cdf_) c /= sum;
  }
  /// Every key once, cached, in seeded order.
  std::vector<Req> warm_up() {
    std::vector<Req> out;
    for (std::size_t k = 0; k < cdf_.size(); ++k) out.push_back(Req{static_cast<std::uint32_t>(k)});
    rng_.shuffle(out);
    return out;
  }
  /// kHitsPerSweep Zipf(s=1) draws per key: a cycle's hit phase.
  std::vector<Req> hits() {
    std::vector<Req> out;
    for (std::size_t n = 0; n < kHitsPerSweep * cdf_.size(); ++n) {
      const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng_.uniform());
      out.push_back(Req{static_cast<std::uint32_t>(std::min<std::size_t>(
          static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1))});
    }
    return out;
  }
  /// Every key once with no_cache, in seeded order: a cycle's sweep
  /// phase.  Re-sweeping each key once (not by popularity) keeps the miss
  /// latency independent of which keys the seed made hot.
  std::vector<Req> sweeps() {
    std::vector<Req> out;
    for (std::size_t k = 0; k < cdf_.size(); ++k) {
      out.push_back(Req{static_cast<std::uint32_t>(k), true});
    }
    rng_.shuffle(out);
    return out;
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

std::map<std::string, double> parse_stats(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    const auto eq = tok.find('=');
    if (eq != std::string::npos) out[tok.substr(0, eq)] = std::atof(tok.c_str() + eq + 1);
  }
  return out;
}

double stat(const std::map<std::string, double>& stats, const char* name) {
  const auto it = stats.find(name);
  return it == stats.end() ? -1.0 : it->second;
}

/// The wisdom file every daemon of the run starts from: records for keys
/// outside the pool, so start-up includes a real reload.
void write_prefab_wisdom(const std::string& path) {
  service::WisdomCache cache(kCapacity);
  cache.open(path, kCapacity);
  for (std::size_t i = 0; i < kPrefabRecords; ++i) {
    service::WisdomKey key;
    key.method = "fullslice";
    key.device = "c2050";
    key.order = 2 + 2 * static_cast<int>(i % 6);
    key.extent = Extent3{64, 64, 8 + static_cast<int>(i)};
    key.kind = "model";
    key.beta = kModelBeta;
    autotune::TuneEntry e;
    e.config = kernels::LaunchConfig{32, 8, 1, 1, 4, 1};
    e.executed = true;
    e.attempts = 1;
    e.timing.valid = true;
    e.timing.mpoints_per_s = 1000.0 + static_cast<double>(i);
    (void)cache.put(key, e);
  }
}

struct Daemon {
  core::ChildProcess proc;
  std::string socket;
  std::string wisdom;
};

/// Kills a daemon still running when its scope ends (error paths).
struct DaemonGuard {
  Daemon& d;
  ~DaemonGuard() {
    if (d.proc.valid()) stop_child(d.proc, 0.0);
  }
};

Daemon start_daemon(const Options& opt, const std::string& dir, const std::string& prefab) {
  Daemon d;
  make_dir(dir);
  d.socket = dir + "/s";
  d.wisdom = dir + "/wisdom";
  fs::copy_file(prefab, d.wisdom, fs::copy_options::overwrite_existing);
  d.proc = spawn_logged({opt.bin_dir + "/inplane_tuned", "serve", "--socket", d.socket,
                         "--wisdom", d.wisdom, "--threads", std::to_string(kSweepThreads),
                         "--max-inflight", std::to_string(kClients), "--capacity",
                         std::to_string(kCapacity)},
                        dir + "/daemon.log");
  const double until = now_us() + 10e6;
  while (now_us() < until && !d.proc.poll()) {
    try {
      service::Client c(d.socket);
      c.connect();
      if (c.roundtrip("PING") == "OK pong") return d;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop_child(d.proc, 0.0);
  throw std::runtime_error("inplane_tuned did not answer PING (see " + dir + "/daemon.log)");
}

std::string daemon_request(const Daemon& d, const std::string& line) {
  service::Client c(d.socket);
  c.connect();
  return c.roundtrip(line);
}

bool stop_daemon(Daemon& d) {
  try {
    (void)daemon_request(d, "SHUTDOWN");
  } catch (const std::exception&) {
  }
  return stop_child(d.proc, 10000.0);
}

const char* const kSources[] = {"hit", "swept", "joined"};
constexpr std::uint8_t kError = 3;

std::uint8_t source_index(const std::string& s) {
  for (std::uint8_t i = 0; i < 3; ++i) {
    if (s == kSources[i]) return i;
  }
  return kError;
}

/// What one client saw.
struct ClientLog {
  std::vector<Req> sent;
  std::vector<double> rtt_ms;
  std::vector<std::uint8_t> source;
  std::map<std::uint32_t, std::string> payload;  ///< first answer per key
  std::vector<std::string> errors;
  std::size_t timed_from = 0;  ///< index of the first timed request
};

/// Request tallies over a prefix of every client's log.
struct Tally {
  std::set<std::uint32_t> cached_keys;  ///< keys requested without no_cache
  std::size_t no_cache = 0;
  std::size_t requests = 0;
};

Tally tally(const std::vector<ClientLog>& logs, std::size_t per_client) {
  Tally t;
  for (const ClientLog& l : logs) {
    for (std::size_t i = 0; i < std::min(per_client, l.sent.size()); ++i) {
      ++t.requests;
      if (l.sent[i].no_cache) {
        ++t.no_cache;
      } else {
        t.cached_keys.insert(l.sent[i].key);
      }
    }
  }
  return t;
}

/// The closed loop of one client: the warm-up, then whole cycles of a hit
/// phase and a sweep phase.  Every phase ends at the barrier, whose
/// completion step starts the deadline after the warm-up and sets @p more
/// after each later phase.
template <typename Barrier>
void client_loop(const Daemon& daemon, const std::vector<service::WisdomKey>& pool,
                 std::uint64_t seed, int c, const bool& more, Barrier& sync, ClientLog& log) {
  Schedule sched(seed, c, pool.size());
  try {
    service::Client conn(daemon.socket);
    conn.connect();
    const auto send = [&](const Req& r) {
      const std::string line = service::format_tune_request(pool[r.key], 0.0, 0, r.no_cache);
      const double s = now_us();
      const std::string resp = conn.roundtrip(line);
      log.rtt_ms.push_back((now_us() - s) / 1e3);
      log.sent.push_back(r);
      const auto p = service::parse_response(resp);
      if (!p || !p->ok || p->degraded) {
        log.source.push_back(kError);
        log.errors.push_back("TUNE answered: " + resp);
        return;
      }
      log.source.push_back(source_index(p->source));
      if (r.no_cache && p->source != "swept") log.errors.push_back("no_cache answered " + p->source);
      const auto [it, fresh] = log.payload.emplace(r.key, p->entry_payload);
      if (!fresh && it->second != p->entry_payload) {
        log.errors.push_back("answer changed for " + pool[r.key].to_line());
      }
    };
    for (const Req& r : sched.warm_up()) send(r);
    log.timed_from = log.sent.size();
    sync.arrive_and_wait();
    do {
      for (const Req& r : sched.hits()) send(r);
      sync.arrive_and_wait();
      for (const Req& r : sched.sweeps()) send(r);
      sync.arrive_and_wait();
    } while (more);
  } catch (const std::exception& e) {
    // Leave the barrier so the other client does not wait for this one.
    log.errors.push_back(std::string("connection: ") + e.what());
    sync.arrive_and_drop();
  }
}

/// In-process replay of every client's request sequence on as many
/// threads: parse_request -> TuningService::tune -> format_tune_response,
/// one span per call.  Returns per-source request times (us).
void replay(const std::vector<ClientLog>& logs, const std::vector<service::WisdomKey>& pool,
            const std::map<std::uint32_t, std::string>& answers, service::TuningService& svc,
            Tracer& tracer, std::vector<double> (&by_source)[3], Result& res) {
  std::mutex mu;
  std::atomic<std::uint64_t> next_id{0};
  std::vector<std::thread> threads;
  for (const ClientLog& l : logs) {
    threads.emplace_back([&, lp = &l] {
      std::vector<std::pair<int, double>> mine;
      std::vector<std::string> errors;
      for (const Req& r : lp->sent) {
        const std::uint64_t id = next_id.fetch_add(1);
        const std::string line = service::format_tune_request(pool[r.key], 0.0, 0, r.no_cache);
        try {
          SpanScope root(&tracer, "service.request", id);
          std::optional<service::Request> req;
          {
            SpanScope s(&tracer, "service.proto.parse", id);
            req = service::parse_request(line);
          }
          service::TuneOutcome out;
          {
            SpanScope s(&tracer, "service.tune", id);
            out = svc.tune(req->tune);
            s.rename(out.source == service::Source::CacheHit ? "service.tune.hit"
                     : out.source == service::Source::Swept  ? "service.tune.swept"
                                                              : "service.tune.joined");
          }
          {
            SpanScope s(&tracer, "service.proto.format", id);
            (void)service::format_tune_response(out);
          }
          mine.emplace_back(static_cast<int>(out.source), root.close());
          if (out.entry_payload() != answers.at(r.key)) {
            errors.push_back("in-process answer differs for " + pool[r.key].to_line());
          }
        } catch (const std::exception& e) {
          errors.push_back(std::string("replay: ") + e.what());
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& [src, us] : mine) by_source[src].push_back(us);
      for (const std::string& e : errors) res.fail(e);
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace

void run_daemon_mix(const Options& opt, Result& res, Layers& layers) {
  const std::string root = make_dir(opt.work_dir + "/dm" + std::to_string(::getpid()));
  const std::string prefab = root + "/prefab.wisdom";
  write_prefab_wisdom(prefab);
  Rng rng(opt.seed);
  std::vector<service::WisdomKey> pool;
  for (const TuneKey& k : key_cycle(rng, kExtents)) pool.push_back(k.wisdom("model", kModelBeta));

  Daemon daemon;
  const DaemonGuard guard{daemon};
  int rep = 0;
  const double setup_s = median_setup_seconds(5, [&](bool last) {
    Daemon d = start_daemon(opt, root + "/d" + std::to_string(rep++), prefab);
    if (last) {
      daemon = std::move(d);
    } else if (!stop_daemon(d)) {
      res.broken("daemon did not exit cleanly on SHUTDOWN");
    }
  });

  // ---- warm-up, then the timed phase ----
  std::vector<ClientLog> logs(static_cast<std::size_t>(kClients));
  std::string prefix_stats;
  std::optional<Deadline> deadline;
  bool more = true;
  double timed_from_us = 0.0;
  double timed_to_us = 0.0;
  // Runs once per phase, after both clients arrived and before either
  // goes on: the first time (end of warm-up) it reads STATS and starts the
  // clock, later it decides whether another cycle runs.
  const auto on_phase_end = [&]() noexcept {
    timed_to_us = now_us();
    if (deadline) {
      more = deadline->running();
      return;
    }
    try {
      prefix_stats = daemon_request(daemon, "STATS");
    } catch (const std::exception& e) {
      prefix_stats = e.what();
    }
    deadline.emplace(opt.trace ? opt.seconds / 2 : opt.seconds);
    timed_from_us = now_us();
  };
  std::barrier sync(kClients, on_phase_end);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(daemon, pool, opt.seed, c, more, sync, logs[static_cast<std::size_t>(c)]);
      });
    }
    for (auto& t : threads) t.join();
  }
  const auto final_stats = parse_stats(daemon_request(daemon, "STATS"));
  const double daemon_rss = process_peak_rss_mb(daemon.proc.pid());
  if (!stop_daemon(daemon)) res.broken("daemon did not exit cleanly on SHUTDOWN");

  // ---- oracle phase ----
  OpTimes times;
  times.wall_s = (timed_to_us - timed_from_us) * 1e-6;
  std::map<std::uint32_t, std::string> answers;
  std::vector<double> rtt_by_source[3];
  for (const ClientLog& l : logs) {
    res.attempted += l.sent.size();
    for (const std::string& e : l.errors) res.fail(e);
    for (std::size_t i = 0; i < l.sent.size(); ++i) {
      if (l.source[i] == kError) continue;
      rtt_by_source[l.source[i]].push_back(l.rtt_ms[i]);
      if (i < l.timed_from) continue;
      (l.source[i] == 0 ? times.light_ms : times.heavy_ms).push_back(l.rtt_ms[i]);
    }
    for (const auto& [key, payload] : l.payload) {
      const auto [it, fresh] = answers.emplace(key, payload);
      if (!fresh && it->second != payload) res.fail("clients got different answers for one key");
    }
  }
  const double ops_per_s =
      times.wall_s > 0.0
          ? static_cast<double>(times.light_ms.size() + times.heavy_ms.size()) / times.wall_s
          : 0.0;
  for (const auto& [key, payload] : answers) {
    const std::string direct =
        autotune::encode_tune_entry(service::direct_tune(pool[key], ExecPolicy{kClients}));
    if (direct != payload) res.fail("daemon answer differs from direct_tune for " + pool[key].to_line());
  }
  // Sweeps are exact: one per key first requested without no_cache, plus
  // one per no_cache request.  The split between hits and joins is not:
  // it depends on which client reaches a key first.
  const Tally pre = tally(logs, pool.size());
  const Tally all = tally(logs, SIZE_MAX);
  const double pre_sweeps = stat(parse_stats(prefix_stats), "sweeps");
  if (pre_sweeps != static_cast<double>(pre.cached_keys.size() + pre.no_cache)) {
    res.broken("warm-up STATS sweeps " + std::to_string(pre_sweeps) + " != missed keys + no_cache");
  }
  const double sweeps = stat(final_stats, "sweeps");
  if (sweeps != static_cast<double>(all.cached_keys.size() + all.no_cache)) {
    res.broken("STATS sweeps " + std::to_string(sweeps) + " != missed keys + no_cache");
  }
  if (stat(final_stats, "requests") != static_cast<double>(all.requests) ||
      stat(final_stats, "shed_requests") != 0.0) {
    res.broken("daemon request count or sheds disagree with the clients");
  }
  check_repeatable_counts(opt,
                          {{"prefix.requests", static_cast<double>(pre.requests)},
                           {"prefix.missed_keys", static_cast<double>(pre.cached_keys.size())},
                           {"prefix.no_cache", static_cast<double>(pre.no_cache)},
                           {"prefix.service.sweeps", pre_sweeps}},
                          res);

  if (!opt.trace) {
    add_end_to_end(res, times, setup_s, self_peak_rss_mb() + daemon_rss);
    remove_tree(root);
    return;
  }

  // ---- traced run: the identical request sequence, in-process ----
  Tracer tracer;
  std::vector<double> replay_by_source[3];
  {
    const std::string dir = make_dir(root + "/replay");
    fs::copy_file(prefab, dir + "/wisdom", fs::copy_options::overwrite_existing);
    service::ServiceOptions so;
    so.wisdom_path = dir + "/wisdom";
    so.cache_capacity = kCapacity;
    so.sweep_policy = ExecPolicy{kSweepThreads};
    service::TuningService svc(so);
    replay(logs, pool, answers, svc, tracer, replay_by_source, res);

    // Wisdom-layer calls, timed one at a time on the replay's cache.
    std::vector<double> find_us;
    std::vector<double> put_ms;
    service::WisdomCache scratch(kCapacity);
    scratch.open(dir + "/put.wisdom", kCapacity);
    for (const auto& entry : answers) {
      const service::WisdomKey stamped = svc.stamp(pool[entry.first]);
      double s = now_us();
      const auto hit = svc.cache().find(stamped);
      find_us.push_back(now_us() - s);
      if (!hit) continue;
      s = now_us();
      (void)scratch.put(stamped, *hit);
      put_ms.push_back((now_us() - s) / 1e3);
    }
    layers["service.wisdom.find.us"] = pct(find_us, 50.0);
    layers["service.wisdom.put.ms"] = pct(put_ms, 50.0);
  }
  std::vector<double> reload_ms;
  for (int i = 0; i < 5; ++i) {
    service::WisdomCache c(kCapacity);
    const double s = now_us();
    c.open(daemon.wisdom, kCapacity);
    reload_ms.push_back((now_us() - s) / 1e3);
  }
  layers["service.wisdom.reload.ms"] = pct(reload_ms, 50.0);
  layers["service.setup.ms"] = setup_s * 1e3;

  const auto reduced = summarize_trace(opt, tracer, "service.request", layers);
  put_p50(layers, reduced, "service.proto.parse", "service.proto.parse.us");
  put_p50(layers, reduced, "service.proto.format", "service.proto.format.us");
  put_p50(layers, reduced, "service.tune.hit", "service.tune.hit.us");
  put_p50(layers, reduced, "service.tune.swept", "service.tune.swept.ms", 1e-3);
  put_p50(layers, reduced, "service.tune.joined", "service.tune.joined.ms", 1e-3);
  std::vector<double> replay_all;
  std::vector<double> rtt_all_us;
  for (int s = 0; s < 3; ++s) {
    replay_all.insert(replay_all.end(), replay_by_source[s].begin(), replay_by_source[s].end());
    for (double ms : rtt_by_source[s]) rtt_all_us.push_back(ms * 1e3);
    if (rtt_by_source[s].empty() || replay_by_source[s].empty()) continue;
    layers[std::string("service.socket.unattributed.") + kSources[s] + ".us"] =
        pct(rtt_by_source[s], 50.0) * 1e3 - pct(replay_by_source[s], 50.0);
  }
  for (const char* name : {"requests", "cache_hits", "dedup_joins", "sweeps", "shed_requests"}) {
    layers[std::string("service.") + name] = stat(final_stats, name);
  }
  layers["service.hit_ratio"] = stat(final_stats, "cache_hits") / stat(final_stats, "requests");
  layers["service.sweeps_per_missed_key"] =
      (sweeps - static_cast<double>(all.no_cache)) /
      static_cast<double>(std::max<std::size_t>(1, all.cached_keys.size()));
  layers["service.rps"] = ops_per_s;
  layers["trace.overhead_ratio"] = pct(replay_all, 50.0) / pct(rtt_all_us, 50.0);
  remove_tree(root);
}

}  // namespace perfbench
