#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "audit/auditor.hpp"
#include "fides/cluster.hpp"
#include "net/process.hpp"
#include "net/socket_round.hpp"
#include "probes.hpp"
#include "workload/ycsb.hpp"

namespace perfbench {
namespace {

using namespace fides;
using Batches = std::vector<std::vector<commit::SignedEndTxn>>;

// --- Workload configuration (README.md has the tables) ------------------------

constexpr std::size_t kInprocTxnsPerBlock = 100;
constexpr std::uint32_t kOpsPerTxn = 5;

/// Blocks per inproc_write episode. Episodes have a fixed size, so a faster
/// commit path shortens them instead of growing the ledger (and with it the
/// audit work and the peak RSS).
constexpr std::size_t kInprocBlocks = 40;
constexpr std::size_t kInprocSetups = 3;

/// Socket stream: blocks per deployment and txns per block. Items are drawn
/// without replacement across the whole stream, so it may use at most 80%
/// of the keyspace (4 x 10000 items = 8000 txns of 5 ops; 120 blocks of 50
/// use 30000). 120 rounds let each deployment's p90 rest on 12 rounds
/// beyond it.
constexpr std::size_t kSocketBlocks = 120;
constexpr std::size_t kSocketTxnsPerBlock = 50;

/// Every run gathers at least this many latency samples, so the p90 has at
/// least ten beyond it.
constexpr std::size_t kMinLatencySamples = 100;

/// Shortest time an episode spends auditing its ledger (whole passes).
constexpr double kMinAuditSeconds = 1.0;

/// Host steal below this share of CPU time did not measurably slow an
/// episode on a 4-vCPU VM; episodes under it count as equally undisturbed.
constexpr double kStealFloorPct = 2.0;

/// Largest share of the traced wall time the harness's own glue may take
/// before the trace no longer attributes the run to layers.
constexpr double kMaxUnaccountedPct = 10.0;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t episode) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + episode + 1;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Clock ticks of CPU time the host stole from this machine (a VM) and of
/// all CPU time, summed over CPUs, from /proc/stat. Zeros where absent.
struct CpuTicks {
  std::uint64_t steal{0};
  std::uint64_t total{0};
};

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && in; ++field) {
    std::uint64_t v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return label == "cpu" ? t : CpuTicks{};
}

double steal_pct(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0 : 100.0 * static_cast<double>(to.steal - from.steal) /
                              static_cast<double>(total);
}

double max_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::size_t txn_count(const std::vector<ledger::Block>& blocks) {
  std::size_t n = 0;
  for (const ledger::Block& b : blocks) n += b.txns.size();
  return n;
}

/// What one episode contributed to the end-to-end metrics.
struct Episode {
  std::uint64_t index{0};
  std::uint64_t committed{0};
  double timed_s{0};
  std::uint64_t audited{0};
  double audit_s{0};
  std::vector<double> setup_s;
  LatencyTally latency;
  double steal_pct{0};  ///< CPU time the host stole during the episode
};

/// What one phase (a run of episodes, all traced or all untraced)
/// accumulates.
struct Phase {
  explicit Phase(Tracer* t) : tracer(t) {}

  Tracer* tracer;  ///< records spans in a traced phase; disabled otherwise

  double timed_s{0};
  std::uint64_t attempted{0};
  std::uint64_t committed{0};
  std::uint64_t aborted{0};
  LatencyTally latency;
  std::vector<double> setup_s;
  double audit_s{0};
  std::uint64_t audited{0};
  std::vector<Episode> episodes;

  // Per-layer sums.
  double data_path_s{0};
  std::uint64_t data_path_blocks{0};
  double engine_call_s{0};
  std::uint64_t engine_rounds{0};
  double coordinator_us{0};
  double cohort_critical_us{0};
  double mht_us{0};
  std::uint64_t metric_rounds{0};
  std::uint64_t spec_revotes{0};
  double cpu_s{0};
  CpuTicks host_start{read_cpu_ticks()};  ///< for the phase's steal share
  Transport::Stats traffic;
  std::vector<double> cluster_s, mint_s;
  std::vector<double> serverd_ready_s;  ///< spawn until every serverd listens
  std::vector<double> serverd_wait_s;   ///< the part of that left after mint + cluster
  double audit_select_s{0}, audit_history_s{0}, audit_datastore_s{0};
  std::uint64_t audit_passes{0};
  bool probed{false};

  bool traced() const { return tracer->enabled(); }

  void add_traffic(const Transport::Stats& before, const Transport::Stats& after) {
    auto add = [](std::atomic<std::uint64_t>& acc, const std::atomic<std::uint64_t>& a,
                  const std::atomic<std::uint64_t>& b) {
      acc += b.load() - a.load();
    };
    add(traffic.messages, before.messages, after.messages);
    add(traffic.bytes, before.bytes, after.bytes);
    add(traffic.signatures_created, before.signatures_created, after.signatures_created);
    add(traffic.signatures_verified, before.signatures_verified, after.signatures_verified);
  }

  void add_round_metrics(const RoundMetrics& m) {
    coordinator_us += m.coordinator_us;
    cohort_critical_us += m.cohort_critical_us;
    mht_us += m.mht_us;
    spec_revotes += m.spec_revotes;
    ++metric_rounds;
  }
};

void check(RunResult& out, bool ok, const std::string& what) {
  if (!ok) out.check_failures.push_back(what);
}

/// Checks that every server holds the same chain, then audits it through
/// the Auditor's public phases (one span each), pass after pass until
/// kMinAuditSeconds have gone by, so that even a short ledger is audited
/// for long enough to time.
void audit_and_check(Cluster& cluster, Phase& phase, RunResult& out) {
  const ledger::TamperProofLog& ref = cluster.server(ServerId{0}).log();
  for (std::uint32_t s = 1; s < cluster.num_servers(); ++s) {
    const ledger::TamperProofLog& log = cluster.server(ServerId{s}).log();
    check(out, log.size() == ref.size() && log.head_hash() == ref.head_hash(),
          "server " + std::to_string(s) + "'s log head disagrees with server 0's");
  }
  auto time_phase = [&](const char* name, double& acc, const std::function<void()>& fn) {
    const auto t = Clock::now();
    auto span = phase.tracer->span(name);
    fn();
    acc += seconds_since(t);
  };
  const auto t0 = Clock::now();
  do {
    audit::Auditor auditor(cluster, audit::AuditorOptions{audit::DatastorePolicy::kExhaustive});
    audit::AuditReport report;
    // Auditor::run() is these phases in this order.
    std::vector<ledger::Block> log;
    time_phase("audit.collect_and_select", phase.audit_select_s,
               [&] { log = auditor.collect_and_select(report); });
    time_phase("audit.check_history", phase.audit_history_s,
               [&] { auditor.check_history(log, report); });
    time_phase("audit.check_datastores", phase.audit_datastore_s,
               [&] { auditor.check_datastores(log, report); });
    ++phase.audit_passes;
    phase.audited += txn_count(ref.blocks());
    check(out, report.clean(), "audit found violations: " + report.to_string());
    check(out, report.blocks_audited == ref.size(), "audit did not cover the whole ledger");
  } while (out.check_failures.empty() && seconds_since(t0) < kMinAuditSeconds);
  phase.audit_s += seconds_since(t0);
}

// --- inproc_write ---------------------------------------------------------------

ClusterConfig inproc_config(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.items_per_shard = 10000;
  cfg.versioning = store::VersioningMode::kMulti;  // exhaustive audits need versions
  cfg.max_batch_size = kInprocTxnsPerBlock;
  // One engine thread: with 4, every block hands work between threads and
  // wakes idle vCPUs, and on a shared VM each wake-up can wait for the host
  // (counted as steal); 5-15% steal then slowed blocks by up to 2x and
  // spread the p90 over 25% between runs. With 1 thread steal stayed ~1%.
  cfg.num_threads = 1;
  cfg.pipeline_depth = 1;
  cfg.batch_verify = true;
  cfg.sign_data_path = false;
  cfg.seed = seed;
  return cfg;
}

/// §6's loop: each block's data path runs, then its run_blocks call; then
/// the Auditor passes over the episode's ledger. Like every episode, returns
/// its cluster for the layer probes.
std::unique_ptr<Cluster> inproc_write_episode(const RunOptions& opts, std::uint64_t episode,
                                              Phase& phase, RunResult& out) {
  const std::uint64_t seed = mix_seed(opts.seed, episode);
  const ClusterConfig cfg = inproc_config(seed);
  // Set-up is only cluster construction here, a few tens of ms: repeat it
  // so the run's median rests on more than a handful of samples.
  std::unique_ptr<Cluster> cluster;
  Client* client = nullptr;
  for (std::size_t i = 0; i < kInprocSetups; ++i) {
    auto span = phase.tracer->span("setup.cluster", static_cast<std::int64_t>(episode));
    cluster.reset();
    const auto t = Clock::now();
    cluster = std::make_unique<Cluster>(cfg);
    client = &cluster->make_client();
    phase.setup_s.push_back(seconds_since(t));
    phase.cluster_s.push_back(phase.setup_s.back());
  }

  workload::WorkloadConfig wcfg;
  wcfg.ops_per_txn = kOpsPerTxn;
  wcfg.disjoint_batches = true;
  workload::YcsbWorkload ycsb(wcfg, std::uint64_t{cfg.num_servers} * cfg.items_per_shard, seed);

  const Transport::Stats before = cluster->transport().stats();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  for (std::int64_t block = 0; block < static_cast<std::int64_t>(kInprocBlocks); ++block) {
    ycsb.begin_batch();
    Batches batches(1);
    {
      auto span = phase.tracer->span("workload.run_transaction", block);
      const auto t = Clock::now();
      for (std::size_t i = 0; i < kInprocTxnsPerBlock; ++i) {
        batches[0].push_back(ycsb.run_transaction(*client));
      }
      phase.data_path_s += seconds_since(t);
      ++phase.data_path_blocks;
    }
    PipelineResult result;
    double call_s = 0;
    {
      auto span = phase.tracer->span("engine.run_blocks", block);
      const auto t = Clock::now();
      result = cluster->run_blocks(std::move(batches));
      call_s = seconds_since(t);
    }
    phase.engine_call_s += call_s;
    ++phase.engine_rounds;
    phase.attempted += kInprocTxnsPerBlock;
    const RoundMetrics& m = result.rounds.at(0);
    phase.add_round_metrics(m);
    if (m.decision == ledger::Decision::kCommit) {
      phase.committed += kInprocTxnsPerBlock;
      phase.latency.ok.push_back(call_s * 1e3);
    } else {
      phase.aborted += kInprocTxnsPerBlock;
      phase.latency.failed += 1;
    }
  }
  phase.timed_s += seconds_since(t0);
  phase.cpu_s += process_cpu_s() - cpu0;
  phase.add_traffic(before, cluster->transport().stats());

  audit_and_check(*cluster, phase, out);
  return cluster;
}

// --- socket_readmostly ----------------------------------------------------------

ClusterConfig socket_config(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.items_per_shard = 10000;
  cfg.versioning = store::VersioningMode::kSingle;
  cfg.max_batch_size = kSocketTxnsPerBlock;
  cfg.num_threads = 1;
  cfg.pipeline_depth = 4;
  cfg.speculate = true;
  cfg.batch_verify = true;
  cfg.sign_data_path = false;
  cfg.seed = seed;
  return cfg;
}

/// Pins process `pid` (0 = this one) to CPU 0. Every process of a
/// deployment shares that one CPU while the stream runs: spread one per
/// CPU, each round woke idle vCPUs several times, and on a shared VM each
/// wake-up can wait for the host (counted as steal). 10-20% steal then
/// lasted whole runs and slowed them by a third; sets of 10 runs spread
/// 22-35% on the latencies. On one CPU the deployment keeps it busy and is
/// not woken from idle mid-round.
void pin_to_cpu0(pid_t pid) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(0, &set);
  sched_setaffinity(pid, sizeof set, &set);
}

/// Children of one deployment; any not reaped by the end are killed.
struct Children {
  std::vector<pid_t> pids;
  Children() = default;
  Children(const Children&) = delete;
  Children& operator=(const Children&) = delete;
  ~Children() {
    for (const pid_t pid : pids) {
      if (pid > 0) net::kill_process(pid);
    }
  }
  /// Waits for every child; returns false if any exited unclean.
  bool wait_all(std::string* why) {
    bool clean = true;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      const int code = net::wait_exit(pids[i]);
      pids[i] = -1;
      if (code != 0) {
        clean = false;
        *why += " serverd " + std::to_string(i + 1) + " exited " + std::to_string(code);
      }
    }
    return clean;
  }
};

/// A stream minted against a pristine cluster with every item drawn
/// without replacement across the whole stream: no block can read a
/// version an earlier block of the stream overwrote.
Batches mint_stream(const ClusterConfig& cfg, const workload::WorkloadConfig& wcfg,
                    std::size_t blocks, std::uint64_t seed) {
  const std::uint64_t total_items = std::uint64_t{cfg.num_servers} * cfg.items_per_shard;
  if (blocks * cfg.max_batch_size * wcfg.ops_per_txn * 5 > total_items * 4) {
    throw std::logic_error("stream would use more than 80% of the keyspace");
  }
  Cluster mint(cfg);
  Client& client = mint.make_client();
  workload::YcsbWorkload ycsb(wcfg, total_items, seed);  // no begin_batch(): whole-stream
  Batches batches(blocks);
  std::unordered_set<ItemId> seen;
  for (auto& batch : batches) {
    for (std::size_t i = 0; i < cfg.max_batch_size; ++i) {
      batch.push_back(ycsb.run_transaction(client));
      for (const auto& r : batch.back().request.txn.rw.reads) {
        if (!seen.insert(r.id).second) throw std::logic_error("minted stream reuses an item");
      }
    }
  }
  return batches;
}

std::vector<std::string> serverd_argv(const ClusterConfig& cfg, const std::string& dir,
                                      const std::vector<std::string>& addrs, std::uint32_t self,
                                      std::size_t rounds) {
  std::vector<std::string> argv = {net::serverd_binary_path(),
                                   "--self", std::to_string(self),
                                   "--servers", std::to_string(cfg.num_servers),
                                   "--rounds", std::to_string(rounds),
                                   "--clients", "1",
                                   "--items", std::to_string(cfg.items_per_shard),
                                   "--batch", std::to_string(cfg.max_batch_size),
                                   "--no-data-sigs",
                                   "--pipeline", std::to_string(cfg.pipeline_depth),
                                   "--threads", std::to_string(cfg.num_threads),
                                   "--seed", std::to_string(cfg.seed),
                                   "--log-dir", dir};
  if (cfg.speculate) argv.push_back("--spec");
  if (cfg.batch_verify) argv.push_back("--batch-verify");
  for (const std::string& a : addrs) argv.push_back(a);
  return argv;
}

/// One deployment: spawn the serverds, mint the stream and build the
/// coordinator's cluster while they provision, wait until every serverd
/// listens, run the stream over the sockets, then rebuild the remote
/// servers from their durable round logs and audit the whole deployment.
std::unique_ptr<Cluster> socket_readmostly_episode(const RunOptions& opts,
                                                   std::uint64_t episode, Phase& phase,
                                                   RunResult& out) {
  const std::uint64_t seed = mix_seed(opts.seed, episode);
  ClusterConfig cfg = socket_config(seed);
  const std::string dir = opts.work_dir + "/sock" + std::to_string(episode);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::string> addrs;
  for (std::uint32_t i = 0; i < cfg.num_servers; ++i) {
    addrs.push_back("unix:" + dir + "/s" + std::to_string(i) + ".sock");
  }

  const auto t_setup = Clock::now();
  Children children;
  {
    auto span = phase.tracer->span("net.spawn", static_cast<std::int64_t>(episode));
    for (std::uint32_t i = 1; i < cfg.num_servers; ++i) {
      children.pids.push_back(net::spawn(serverd_argv(cfg, dir, addrs, i, kSocketBlocks),
                                         dir + "/serverd-" + std::to_string(i) + ".log"));
    }
  }
  workload::WorkloadConfig wcfg;
  wcfg.ops_per_txn = kOpsPerTxn;
  wcfg.read_only_fraction = 0.9;
  wcfg.disjoint_batches = true;
  Batches batches;
  {
    auto span = phase.tracer->span("setup.mint", static_cast<std::int64_t>(episode));
    const auto t = Clock::now();
    batches = mint_stream(cfg, wcfg, kSocketBlocks, seed);
    phase.mint_s.push_back(seconds_since(t));
    phase.data_path_s += phase.mint_s.back();
    phase.data_path_blocks += kSocketBlocks;
  }
  cfg.round_log_dir = dir;
  std::unique_ptr<Cluster> cluster;
  {
    auto span = phase.tracer->span("setup.cluster", static_cast<std::int64_t>(episode));
    const auto t = Clock::now();
    cluster = std::make_unique<Cluster>(cfg);
    cluster->make_client();
    phase.cluster_s.push_back(seconds_since(t));
  }
  {
    auto span = phase.tracer->span("setup.serverd", static_cast<std::int64_t>(episode));
    const auto t_wait = Clock::now();
    for (std::uint32_t i = 1; i < cfg.num_servers; ++i) {
      const std::string path = dir + "/s" + std::to_string(i) + ".sock";
      while (!std::filesystem::exists(path)) {
        int code = 0;
        if (net::try_wait(children.pids[i - 1], &code)) {
          children.pids[i - 1] = -1;
          throw std::runtime_error("serverd " + std::to_string(i) + " exited " +
                                   std::to_string(code) + " before listening");
        }
        if (seconds_since(t_setup) > 120) throw std::runtime_error("serverd never listened");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    phase.serverd_ready_s.push_back(seconds_since(t_setup));
    phase.serverd_wait_s.push_back(seconds_since(t_wait));
  }
  phase.setup_s.push_back(seconds_since(t_setup));

  // Set-up above runs on every CPU; the stream on one (see pin_to_cpu0).
  cpu_set_t own_cpus;
  sched_getaffinity(0, sizeof own_cpus, &own_cpus);
  for (const pid_t pid : children.pids) pin_to_cpu0(pid);
  pin_to_cpu0(0);
  net::SocketOptions sopts;
  sopts.addrs = addrs;
  sopts.self = 0;
  const Transport::Stats before = cluster->transport().stats();
  const double cpu0 = process_cpu_s();
  net::SocketRunResult run;
  double call_s = 0;
  {
    auto span = phase.tracer->span("net.run_commit_rounds_over_sockets",
                                   static_cast<std::int64_t>(episode));
    const auto t = Clock::now();
    run = net::run_commit_rounds_over_sockets(*cluster, cfg.protocol, std::move(batches), sopts);
    call_s = seconds_since(t);
  }
  sched_setaffinity(0, sizeof own_cpus, &own_cpus);
  phase.cpu_s += process_cpu_s() - cpu0;
  phase.add_traffic(before, cluster->transport().stats());
  phase.timed_s += call_s;
  phase.engine_call_s += call_s;
  phase.engine_rounds += run.pipeline.rounds.size();
  for (const RoundMetrics& m : run.pipeline.rounds) {
    phase.add_round_metrics(m);
    phase.attempted += m.txns_in_block;
    if (m.decision == ledger::Decision::kCommit) {
      phase.committed += m.txns_in_block;
      phase.latency.ok.push_back(m.measured_latency_us / 1e3);
    } else {
      phase.aborted += m.txns_in_block;
      phase.latency.failed += 1;
    }
  }
  check(out, run.pipeline.rounds.size() == kSocketBlocks, "socket run lost rounds");

  std::string why;
  {
    auto span = phase.tracer->span("net.wait_exit", static_cast<std::int64_t>(episode));
    check(out, children.wait_all(&why), "unclean serverd exit:" + why);
  }
  const ledger::TamperProofLog& coord = cluster->server(ServerId{0}).log();
  check(out, run.digests.size() == cfg.num_servers - 1, "missing peer digests");
  for (const net::PeerDigest& d : run.digests) {
    check(out, d.log_height == coord.size() && d.log_head == coord.head_hash(),
          "peer " + std::to_string(d.server) + "'s log head differs from the coordinator's");
  }
  // The remote servers' state lives in their durable round logs; rebuild
  // them here so the Auditor sees the deployment's every ledger and shard.
  {
    auto span = phase.tracer->span("fides.recover_server", static_cast<std::int64_t>(episode));
    for (std::uint32_t i = 1; i < cfg.num_servers; ++i) {
      cluster->crash_server(ServerId{i});
      check(out, cluster->recover_server(ServerId{i}),
            "server " + std::to_string(i) + "'s durable round log failed to replay");
    }
  }
  std::filesystem::remove_all(dir);
  if (!out.check_failures.empty()) return nullptr;
  audit_and_check(*cluster, phase, out);
  return cluster;
}

// --- Episode loop -------------------------------------------------------------------

double per(double num, double den) { return den > 0 ? num / den : 0; }

using EpisodeFn = std::unique_ptr<Cluster> (*)(const RunOptions&, std::uint64_t, Phase&,
                                                RunResult&);

struct WorkloadSpec {
  const char* name;
  EpisodeFn episode;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"inproc_write", inproc_write_episode},
    {"socket_readmostly", socket_readmostly_episode},
};

/// Fewest episodes of an untraced run.
constexpr std::size_t kMinEpisodes = 3;

/// Runs episodes until at least `min_episodes` ran, the timed phases add up
/// to `budget_s`, and the latency tally holds `min_samples`. Each episode is
/// one root span of a traced phase; the layer probes run once, after the
/// first traced episode and outside every span.
void run_phase(EpisodeFn fn, const RunOptions& opts, double budget_s, std::size_t min_episodes,
               std::size_t min_samples, std::uint64_t& next_episode, Phase& phase,
               RunResult& out) {
  constexpr std::size_t kMaxEpisodes = 64;
  for (std::size_t e = 0; e < kMaxEpisodes && out.check_failures.empty(); ++e) {
    if (e >= min_episodes && phase.timed_s >= budget_s && phase.latency.count() >= min_samples) {
      break;
    }
    const std::uint64_t episode = next_episode++;
    const double timed0 = phase.timed_s;
    const double audit0 = phase.audit_s;
    const std::uint64_t committed0 = phase.committed;
    const std::uint64_t audited0 = phase.audited;
    const std::size_t setups0 = phase.setup_s.size();
    const std::size_t ok0 = phase.latency.ok.size();
    const std::size_t failed0 = phase.latency.failed;
    const CpuTicks ticks0 = read_cpu_ticks();
    std::unique_ptr<Cluster> cluster;
    {
      auto span = phase.tracer->span("episode", static_cast<std::int64_t>(episode));
      cluster = fn(opts, episode, phase, out);
    }
    Episode ep;
    ep.index = episode;
    ep.committed = phase.committed - committed0;
    ep.timed_s = phase.timed_s - timed0;
    ep.audited = phase.audited - audited0;
    ep.audit_s = phase.audit_s - audit0;
    ep.setup_s.assign(phase.setup_s.begin() + static_cast<std::ptrdiff_t>(setups0),
                      phase.setup_s.end());
    ep.latency.ok.assign(phase.latency.ok.begin() + static_cast<std::ptrdiff_t>(ok0),
                         phase.latency.ok.end());
    ep.latency.failed = phase.latency.failed - failed0;
    ep.steal_pct = steal_pct(ticks0, read_cpu_ticks());
    const auto p50 = percentile(ep.latency, 50);
    const auto p90 = percentile(ep.latency, 90);
    std::printf("episode %llu%s: %llu txns committed in %.3f s (%.1f txn/s), p50 %.3f ms, "
                "p90 %.3f ms, set-up %.3f s, audit %.1f txn/s, host steal %.2f%%\n",
                static_cast<unsigned long long>(episode), phase.traced() ? " (traced)" : "",
                static_cast<unsigned long long>(ep.committed), ep.timed_s,
                per(static_cast<double>(ep.committed), ep.timed_s), p50 ? p50->value : 0.0,
                p90 ? p90->value : 0.0, ep.setup_s.empty() ? 0.0 : ep.setup_s.back(),
                per(static_cast<double>(ep.audited), ep.audit_s), ep.steal_pct);
    phase.episodes.push_back(std::move(ep));
    if (cluster && phase.traced() && !phase.probed && out.check_failures.empty()) {
      phase.probed = true;
      run_layer_probes(*cluster, cluster->server(ServerId{0}).log().blocks(), opts.work_dir,
                       out.layer, out.check_failures);
    }
  }
}

double median_or_zero(const std::vector<double>& v) { return v.empty() ? 0 : median(v); }

/// Commit rate over every timed phase of a phase's episodes.
double pooled_tps(const Phase& phase) {
  return per(static_cast<double>(phase.committed), phase.timed_s);
}

/// The end-to-end metrics come from the phase's least disturbed episodes
/// (see least_disturbed): CPU time the host steals from the VM slows every
/// metric at once, by as much as half at 10-20% steal. Within them, the
/// metrics are means: the host also moves between a fast and a slow state
/// with no steal at all (co-tenants on the same cores) for tens of seconds
/// at a time, and a deployment's per-round latency differed by a third
/// between the two; a mean moves in proportion to the share of a run spent in each
/// state, where a median jumps from one to the other. The rates pool the
/// chosen episodes, and each latency percentile is the mean over groups of
/// consecutive chosen episodes, each group large enough for a p90 of its
/// own. Set-up is the median of the chosen episodes' set-ups.
void fill_end_to_end(const Phase& phase, std::size_t min_samples, RunResult& out) {
  std::vector<double> steal;
  std::vector<std::size_t> samples;
  for (const Episode& e : phase.episodes) {
    steal.push_back(std::max(e.steal_pct, kStealFloorPct));
    samples.push_back(e.latency.count());
  }
  double committed = 0, timed_s = 0, audited = 0, audit_s = 0;
  std::vector<LatencyTally> latency;
  std::string chosen;
  for (const std::size_t i : least_disturbed(steal, samples, min_samples)) {
    const Episode& e = phase.episodes[i];
    committed += static_cast<double>(e.committed);
    timed_s += e.timed_s;
    audited += static_cast<double>(e.audited);
    audit_s += e.audit_s;
    out.setup_s.insert(out.setup_s.end(), e.setup_s.begin(), e.setup_s.end());
    latency.push_back(e.latency);
    chosen += (chosen.empty() ? "" : ", ") + std::to_string(e.index);
  }
  out.commit_tps = per(committed, timed_s);
  out.audit_txns_per_s = per(audited, audit_s);
  out.commit_ms = latency_groups(latency, min_samples);
  std::printf("least host steal: episodes %s\n", chosen.c_str());
}

/// Per-layer metrics of the traced phase; the untraced phase is the
/// baseline of the tracing overhead.
void fill_layers(const Phase& phase, const Phase& untraced, RunResult& out) {
  auto& L = out.layer;
  const double txns = static_cast<double>(phase.attempted);
  L["workload.data_path_ms_per_block"] =
      per(1e3 * phase.data_path_s, static_cast<double>(phase.data_path_blocks));
  L["engine.round_ms"] = per(1e3 * phase.engine_call_s, static_cast<double>(phase.engine_rounds));
  const auto rounds = static_cast<double>(phase.metric_rounds);
  L["engine.coordinator_ms"] = per(phase.coordinator_us / 1e3, rounds);
  L["engine.cohort_critical_ms"] = per(phase.cohort_critical_us / 1e3, rounds);
  L["engine.spec_revotes"] = static_cast<double>(phase.spec_revotes);
  L["proc.cpu_util"] = per(phase.cpu_s, phase.timed_s);
  L["proc.host_steal_pct"] = steal_pct(phase.host_start, read_cpu_ticks());
  const auto& traffic = phase.traffic;
  L["crypto.sigs_created_per_txn"] = per(static_cast<double>(traffic.signatures_created), txns);
  L["crypto.sigs_verified_per_txn"] = per(static_cast<double>(traffic.signatures_verified), txns);
  L["merkle.mht_ms"] = per(phase.mht_us / 1e3, rounds);
  L["net.msgs_per_txn"] = per(static_cast<double>(traffic.messages), txns);
  L["net.bytes_per_txn"] = per(static_cast<double>(traffic.bytes), txns);
  L["net.serverd_ready_s"] = median_or_zero(phase.serverd_ready_s);
  const double passes = static_cast<double>(phase.audit_passes);
  L["audit.select_ms"] = per(1e3 * phase.audit_select_s, passes);
  L["audit.history_ms"] = per(1e3 * phase.audit_history_s, passes);
  L["audit.datastore_ms"] = per(1e3 * phase.audit_datastore_s, passes);
  L["setup.cluster_s"] = median_or_zero(phase.cluster_s);
  L["setup.mint_s"] = median_or_zero(phase.mint_s);
  L["setup.serverd_s"] = median_or_zero(phase.serverd_wait_s);
  L["abort_ratio"] = per(static_cast<double>(phase.aborted), txns);
  const double traced_tps = pooled_tps(phase);
  const double untraced_tps = pooled_tps(untraced);
  L["trace.overhead_pct"] = per(100.0 * (untraced_tps - traced_tps), untraced_tps);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WorkloadSpec& w : kWorkloads) v.emplace_back(w.name);
    return v;
  }();
  return names;
}

RunResult run_workload(const RunOptions& opts) {
  RunResult out;
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opts.workload == w.name) spec = &w;
  }
  if (spec == nullptr) throw std::invalid_argument("unknown workload " + opts.workload);
  const EpisodeFn fn = spec->episode;
  std::uint64_t next_episode = 0;
  Tracer off(false);
  Tracer on(true);
  Phase untraced(&off);
  Phase traced(&on);
  try {
    if (!opts.trace) {
      run_phase(fn, opts, opts.seconds, kMinEpisodes, kMinLatencySamples, next_episode,
                untraced, out);
    } else {
      run_phase(fn, opts, opts.seconds / 2, 1, 0, next_episode, untraced, out);
      run_phase(fn, opts, opts.seconds / 2, 1, 0, next_episode, traced, out);
    }
  } catch (const std::exception& e) {
    out.check_failures.push_back(std::string("run aborted: ") + e.what());
  }
  out.attempted = untraced.attempted + traced.attempted;
  out.aborted = untraced.aborted + traced.aborted;
  // Every workload is built so that nothing conflicts (disjoint blocks, or
  // a stream whose items are all fresh): an abort is a defect.
  check(out, out.aborted == 0, std::to_string(out.aborted) + " transactions aborted");
  fill_end_to_end(untraced, opts.trace ? 0 : kMinLatencySamples, out);
  out.peak_rss_mb = max_rss_mb(RUSAGE_SELF) + max_rss_mb(RUSAGE_CHILDREN);
  if (opts.trace) {
    fill_layers(traced, untraced, out);
    out.trace = on.summarize();
    out.layer["trace.unaccounted_pct"] = out.trace.unaccounted_pct;
    for (const std::string& p : out.trace.problems) out.check_failures.push_back("trace: " + p);
    const double gap = std::abs(out.trace.self_total_s - out.trace.root_wall_s);
    check(out, gap <= 1e-3 * out.trace.root_wall_s,
          "trace tie-out: span self times do not add up to the traced wall time");
    check(out, out.trace.unaccounted_pct <= kMaxUnaccountedPct,
          "trace tie-out: " + std::to_string(out.trace.unaccounted_pct) +
              "% of the traced wall time is outside every layer span");
    if (!on.write_chrome_json(opts.work_dir + "/trace.json")) {
      out.check_failures.push_back("could not write the trace file");
    }
  }
  return out;
}

}  // namespace perfbench
