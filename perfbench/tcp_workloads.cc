// The real-runtime workload: three runtime::OrdupNode sites in one process
// over loopback TcpTransport, TimerWheel, ThreadPool strands and a
// recovery::Wal each — esrd's code path, driven through the node's public
// API.
//
//   tcp-saturate  closed loop: each site keeps a window of single-increment
//                 updates outstanding and resubmits from on_stable; a light
//                 open-loop reader issues queries off-strand through
//                 node.store().Read() at the non-sequencer sites beside it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "obs/metric_registry.h"
#include "recovery/storage.h"
#include "recovery/wal.h"
#include "runtime/ordup_node.h"
#include "runtime/tcp_transport.h"
#include "runtime/thread_pool.h"
#include "runtime/timer_wheel.h"
#include "store/operation.h"
#include "trace.h"

namespace perfbench {
namespace {

using esr::runtime::Clock;
using esr::runtime::Executor;
using esr::runtime::OrdupNode;
using esr::runtime::OrdupNodeConfig;
using esr::runtime::Strand;
using esr::runtime::TcpTransport;
using esr::runtime::TcpTransportConfig;
using esr::runtime::ThreadPool;
using esr::runtime::TimerWheel;
using esr::runtime::Transport;
using esr::store::Operation;

constexpr int kSites = 3;
constexpr esr::SiteId kSequencerSite = 0;
constexpr double kWarmupS = 1.0;
constexpr double kSliceS = 0.1;  // see Window
constexpr double kDrainDeadlineS = 10.0;
constexpr const char* kLagHistogram = "esr_runtime_commit_to_stable_us";

struct TcpParams {
  int64_t num_objects = 1024;  // uniform keys
  int ops_per_update = 1;
  int window_per_site = 32;    // updates outstanding per site
  double query_rate = 0;       // open-loop queries/s
  int reads_per_query = 4;
};

/// Bucket bounds (µs) the benchmark gives the nodes' commit -> stable
/// histogram before the nodes create it: 5% geometric steps from 1 µs, so a
/// quantile read from bucket counts is within a few percent. The registry's
/// default decade buckets are too coarse to read a median from.
const std::vector<double>& LagBoundsUs() {
  static const std::vector<double> kBounds = [] {
    std::vector<double> b;
    for (double v = 1; v < 1e8; v *= 1.05) b.push_back(v);
    return b;
  }();
  return kBounds;
}

/// Quantile q of the samples counted in `counts` over LagBoundsUs(),
/// interpolated linearly within the bucket; 0 when empty.
double BucketQuantile(const std::vector<int64_t>& counts, double q) {
  const std::vector<double>& bounds = LagBoundsUs();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  double below = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const double c = static_cast<double>(counts[i]);
    if (below + c >= target && c > 0) {
      if (i == bounds.size()) return bounds.back();  // overflow bucket
      const double lo = i == 0 ? 0 : bounds[i - 1];
      return lo + (bounds[i] - lo) * (target - below) / c;
    }
    below += c;
  }
  return bounds.back();
}

/// Learns `n` distinct free loopback ports: binds that many ephemeral
/// listeners at once (so the kernel cannot hand out one port twice), reads
/// their ports, and closes them; the nodes' transports bind them again
/// right after. A failed bind yields -1, and the set-up then fails loudly.
std::vector<int> FreePorts(int n) {
  std::vector<int> fds, ports;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    int port = -1;
    if (fd >= 0 &&
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port = ntohs(addr.sin_port);
    }
    if (fd >= 0) fds.push_back(fd);
    ports.push_back(port);
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

/// Runs `fn` on a strand and waits for it.
void OnStrand(Executor* strand, const std::function<void()>& fn) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  strand->Post([&] {
    fn();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

/// The WAL's medium in untraced runs: takes every flushed byte and keeps
/// none, standing in for a disk whose write cost and page cache live outside
/// the process (as a tmpfs file's would). The benchmark may write only inside
/// its checkout, and there FileStorage's per-flush fsync on a shared disk
/// varied run throughput fourfold; an in-memory medium would count the whole
/// log in the process's memory. Traced runs bind FileStorage instead, so the
/// WAL figures time the program's own medium. Nodes are never restarted, so
/// nothing is read back.
class DiscardStorage : public esr::recovery::StorageBackend {
 public:
  void AppendWal(esr::SiteId, std::string_view) override {}
  std::string ReadWal(esr::SiteId) const override { return {}; }
  void ReplaceWal(esr::SiteId, std::string) override {}
  void WriteCheckpoint(esr::SiteId, std::string) override {}
  std::string ReadCheckpoint(esr::SiteId) const override { return {}; }
};

/// One site's runtime stack. With tracing on, the node binds the
/// benchmark's decorators instead of the raw seam implementations.
struct Site {
  std::unique_ptr<Strand> strand;
  std::unique_ptr<trace::TracingExecutor> traced_exec;
  Executor* exec = nullptr;  // where program work is posted
  std::unique_ptr<TimerWheel> wheel;
  std::unique_ptr<trace::TracingClock> traced_clock;
  std::unique_ptr<TcpTransport> tcp;
  std::unique_ptr<trace::TracingTransport> traced_transport;
  std::unique_ptr<esr::recovery::StorageBackend> storage;
  std::unique_ptr<trace::TracingStorage> traced_storage;
  std::unique_ptr<esr::recovery::Wal> wal;
  esr::obs::MetricRegistry metrics;
  /// The node's commit -> stable histogram; strand-confined.
  const esr::obs::Histogram* commit_to_stable = nullptr;
  std::unique_ptr<OrdupNode> node;
};

/// Three sites on loopback. `wal_dir` empty: the WAL writes to
/// DiscardStorage; otherwise to FileStorage files under `wal_dir`.
class Cluster {
 public:
  Cluster(trace::RuntimeStats* stats, const std::string& wal_dir)
      : pool_(std::make_unique<ThreadPool>(kSites)) {
    std::vector<std::string> peers;
    for (int port : FreePorts(kSites)) {
      peers.push_back("127.0.0.1:" + std::to_string(port));
    }
    for (int s = 0; s < kSites; ++s) {
      auto site = std::make_unique<Site>();
      site->strand = pool_->MakeStrand();
      site->exec = site->strand.get();
      if (stats != nullptr) {
        site->traced_exec = std::make_unique<trace::TracingExecutor>(
            site->strand.get(), s, stats);
        site->exec = site->traced_exec.get();
      }
      site->wheel = std::make_unique<TimerWheel>(site->exec);
      Clock* clock = site->wheel.get();
      if (stats != nullptr) {
        site->traced_clock =
            std::make_unique<trace::TracingClock>(clock, s, stats);
        clock = site->traced_clock.get();
      }
      TcpTransportConfig tcfg;
      tcfg.self = s;
      tcfg.peers = peers;
      // Peers start within a millisecond of each other; a short first
      // backoff keeps a refused early dial from dominating set-up time.
      tcfg.backoff_min_ms = 1;
      site->tcp = std::make_unique<TcpTransport>(tcfg, site->exec);
      Transport* transport = site->tcp.get();
      if (stats != nullptr) {
        site->traced_transport =
            std::make_unique<trace::TracingTransport>(transport, s, stats);
        transport = site->traced_transport.get();
      }
      if (wal_dir.empty()) {
        site->storage = std::make_unique<DiscardStorage>();
      } else {
        site->storage = std::make_unique<esr::recovery::FileStorage>(wal_dir);
      }
      esr::recovery::StorageBackend* storage = site->storage.get();
      if (stats != nullptr) {
        site->traced_storage =
            std::make_unique<trace::TracingStorage>(storage, s, stats);
        storage = site->traced_storage.get();
      }
      // RecoveryConfig defaults: group commit of 8 records or 5 ms.
      esr::recovery::RecoveryConfig rcfg;
      rcfg.enabled = true;
      site->wal = std::make_unique<esr::recovery::Wal>(clock, storage, s, rcfg,
                                                       &site->metrics);
      site->commit_to_stable =
          &site->metrics.GetHistogram(kLagHistogram, {}, LagBoundsUs());
      OrdupNodeConfig ncfg;
      ncfg.self = s;
      ncfg.num_sites = kSites;
      ncfg.sequencer_site = kSequencerSite;
      site->node = std::make_unique<OrdupNode>(ncfg, transport, clock,
                                               site->wal.get(), &site->metrics);
      sites_.push_back(std::move(site));
    }
  }

  ~Cluster() { Shutdown(); }

  void Start() {
    for (auto& site : sites_) site->wheel->Start();
    for (auto& site : sites_) {
      OrdupNode* node = site->node.get();
      site->strand->Post([node] { node->Start(); });
    }
  }

  /// Node stop on each strand, then timers and sockets, then the pool
  /// drains whatever is still queued; nothing runs after this returns.
  void Shutdown() {
    if (down_) return;
    down_ = true;
    for (auto& site : sites_) {
      OrdupNode* node = site->node.get();
      esr::recovery::Wal* wal = site->wal.get();
      OnStrand(site->strand.get(), [node, wal] {
        wal->Flush();
        node->Stop();
      });
    }
    for (auto& site : sites_) site->wheel->Stop();
    for (auto& site : sites_) site->tcp->Stop();
    pool_->Shutdown();
  }

  Site& site(int s) { return *sites_[static_cast<size_t>(s)]; }
  OrdupNode& node(int s) { return *site(s).node; }

 private:
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Site>> sites_;
  bool down_ = false;
};

/// Builds a cluster and returns the seconds from construction until one
/// update is stable at every site (TCP mesh connect and the sequencer's
/// start-up probe included).
double SetUp(std::unique_ptr<Cluster>& cluster, trace::RuntimeStats* stats,
             const std::string& wal_dir) {
  const int64_t t0 = NowNs();
  cluster = std::make_unique<Cluster>(stats, wal_dir);
  cluster->Start();
  std::atomic<bool> stable{false};
  OrdupNode& node = cluster->node(1);
  cluster->site(1).exec->Post([&node, &stable] {
    node.SubmitUpdate({Operation::Increment(0, 1)},
                      [&stable] { stable.store(true); });
  });
  while (!stable.load()) {
    if (NowNs() - t0 > static_cast<int64_t>(kDrainDeadlineS * 1e9)) return -1;
    std::this_thread::yield();
  }
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

/// Count-weighted mean over sites of one P² quantile of a node histogram.
double NodeQuantile(Cluster& cluster, const char* name, double q) {
  double weighted = 0;
  int64_t total = 0;
  for (int s = 0; s < kSites; ++s) {
    const auto& h = cluster.site(s).metrics.GetHistogram(name);
    if (h.quantile_sample_count() < 5) continue;
    weighted += h.QuantileValue(q) * static_cast<double>(h.count());
    total += h.count();
  }
  return total == 0 ? 0 : weighted / static_cast<double>(total);
}

int64_t NodeCounter(Cluster& cluster, const char* name) {
  int64_t sum = 0;
  for (int s = 0; s < kSites; ++s) {
    sum += cluster.site(s).metrics.GetCounter(name).value();
  }
  return sum;
}

/// Fixed-size record of one slice of the measured window. Samples go
/// straight into histograms, so the benchmark's own memory does not grow
/// with the work done and the per-update memory figure is the program's.
struct SliceStats {
  LatencyHist update_ns;  // submit -> stable, by submit time
  LatencyHist query_ns;   // first read issued -> last read returned
  std::atomic<int64_t> stable{0};  // completions, by completion time
  std::atomic<int64_t> first_stable{INT64_MAX};
  std::atomic<int64_t> last_stable{0};
  std::atomic<int64_t> queries{0};
  std::atomic<int64_t> inconsistency{0};
};

/// The measured window [t0, t0 + slices * slice_ns), cut into 100 ms
/// slices, each figure read per slice and then at zero host steal (see
/// SliceFit). On a shared cloud VM the hypervisor steals CPU time in
/// stretches of seconds to minutes (from 0 to 40% of the 4 vCPUs while this
/// benchmark was tuned). A stolen vCPU stalls the closed loop's critical
/// path: each 10 ms of steal in a 100 ms slice cost about 1k of the 23k
/// updates/s, so whole-run medians of identical runs ranged 7k-24k.
struct Window {
  int64_t t0 = 0;
  int64_t slice_ns = 1;
  std::vector<std::unique_ptr<SliceStats>> slices;

  explicit Window(double window_s) {
    const int n = std::max(1, static_cast<int>(std::lround(window_s / kSliceS)));
    slice_ns = static_cast<int64_t>(window_s * 1e9) / n;
    for (int k = 0; k < n; ++k) slices.push_back(std::make_unique<SliceStats>());
  }
  int64_t end() const { return t0 + static_cast<int64_t>(slices.size()) * slice_ns; }
  /// Slice holding time `t`, or null outside the window.
  SliceStats* At(int64_t t) const {
    if (t < t0 || t >= end()) return nullptr;
    return slices[static_cast<size_t>((t - t0) / slice_ns)].get();
  }
};

/// Reads per-slice figures at zero host steal. It fits a Theil-Sen line
/// (the median of the pairwise slopes, then the median intercept) through
/// (steal, value) over the least-stolen half of the slices, ties at the cut
/// kept, and reads it at zero steal. The half, because the rate flattens
/// once steal passes about a third of the CPUs; Theil-Sen, because one
/// stalled slice must not tilt the line. With no spread in steal the slope
/// is 0 and the figure is the median over those slices.
class SliceFit {
 public:
  explicit SliceFit(std::vector<double> steal) : steal_(std::move(steal)) {
    std::vector<double> sorted = steal_;
    const double cut = Percentile(sorted, 50);
    for (size_t k = 0; k < steal_.size(); ++k) {
      if (steal_[k] <= cut) keep_.push_back(k);
    }
  }

  size_t kept() const { return keep_.size(); }

  /// A rate (or any figure that falls in proportion to the CPU taken).
  double Rate(const std::vector<double>& v) const {
    std::vector<double> x, y;
    for (size_t k : keep_) {
      x.push_back(steal_[k]);
      y.push_back(v[k]);
    }
    return AtZero(x, y);
  }

  /// A latency: fitted as its reciprocal, a rate, over the slices that
  /// have a sample.
  double Latency(const std::vector<double>& v) const {
    std::vector<double> x, y;
    for (size_t k : keep_) {
      if (v[k] <= 0) continue;
      x.push_back(steal_[k]);
      y.push_back(1.0 / v[k]);
    }
    const double inv = AtZero(x, y);
    return inv > 0 ? 1.0 / inv : 0;
  }

  /// Median over the kept slices, for figures that are not times.
  double Median(const std::vector<double>& v) const {
    std::vector<double> y;
    for (size_t k : keep_) y.push_back(v[k]);
    return Percentile(y, 50);
  }

 private:
  static double AtZero(const std::vector<double>& x, std::vector<double> y) {
    std::vector<double> slopes;
    for (size_t i = 0; i < x.size(); ++i) {
      for (size_t j = i + 1; j < x.size(); ++j) {
        if (x[i] != x[j]) slopes.push_back((y[j] - y[i]) / (x[j] - x[i]));
      }
    }
    const double slope = slopes.empty() ? 0 : Percentile(slopes, 50);
    for (size_t i = 0; i < y.size(); ++i) y[i] -= slope * x[i];
    return Percentile(y, 50);
  }

  std::vector<double> steal_;
  std::vector<size_t> keep_;
};

void AtomicMin(std::atomic<int64_t>& a, int64_t v) {
  int64_t prev = a.load(std::memory_order_relaxed);
  while (v < prev && !a.compare_exchange_weak(prev, v)) {
  }
}

void AtomicMax(std::atomic<int64_t>& a, int64_t v) {
  int64_t prev = a.load(std::memory_order_relaxed);
  while (v > prev && !a.compare_exchange_weak(prev, v)) {
  }
}

/// Everything one measured phase (a cluster, warm-up, window, drain)
/// produces.
struct Phase {
  double setup_s = 0;
  // Per-slice figures read at zero host steal (see SliceFit).
  double updates_per_s = 0;
  double update_p50_us = 0, update_p99_us = 0;
  double query_p50_us = 0, query_p99_us = 0;
  double query_incons_mean = 0;
  double ets_per_cpu_s = 0;
  double commit_p50_us = 0, commit_p99_us = 0, stable_lag_p50_us = 0;
  double heap_b_per_update = 0;
  int slices = 0, fitted_slices = 0;
  double steal_ms_per_slice = 0;  // host steal, mean over the window
  double raw_updates_per_s = 0;   // median over all slices, for comparison
  int64_t attempted = 0, failed = 0;
  int64_t updates_total = 0;  // submitted over the whole phase
  double window_s = 0;
  int64_t retransmits = 0, duplicates = 0;
  double digest_ms = 0;
  std::array<int64_t, trace::kMaxSites> busy_ns{};
  std::unique_ptr<LatencyHist> late_ns = std::make_unique<LatencyHist>();
};

class Load {
 public:
  Load(const TcpParams& p, const Options& opt, Cluster* cluster,
       const Window* window, Phase* out, trace::RuntimeStats* stats)
      : p_(p), opt_(opt), cluster_(cluster), window_(window), out_(out),
        stats_(stats), counters_(static_cast<size_t>(p.num_objects)) {
    for (int s = 0; s < kSites; ++s) site_rng_.emplace_back(SubSeed(opt.seed, 10 + s));
    for (int r = 0; r < 2; ++r) {
      last_read_.emplace_back(static_cast<size_t>(p.num_objects), 0);
    }
    // The set-up update already added one increment of object 0.
    counters_[0].store(1);
    increments_.store(1);
  }

  int64_t Pick(Rng& rng) const {
    return static_cast<int64_t>(rng.Below(static_cast<uint64_t>(p_.num_objects)));
  }

  /// Draws the update's objects and counts its increments before the
  /// update exists anywhere, so a reader that sees an increment also sees
  /// it counted.
  std::vector<Operation> MakeUpdate(Rng& rng) {
    std::vector<Operation> ops;
    ops.reserve(static_cast<size_t>(p_.ops_per_update));
    for (int i = 0; i < p_.ops_per_update; ++i) {
      const int64_t obj = Pick(rng);
      counters_[static_cast<size_t>(obj)].fetch_add(1);
      ops.push_back(Operation::Increment(obj, 1));
    }
    increments_.fetch_add(p_.ops_per_update);
    return ops;
  }

  /// Submits on site `s`'s strand.
  void Submit(int s, std::vector<Operation> ops) {
    OrdupNode& node = cluster_->node(s);
    submitted_.fetch_add(1);
    const int64_t submit_ns = NowNs();
    auto on_stable = [this, s, submit_ns] {
      const int64_t now = NowNs();
      if (SliceStats* sl = window_->At(now)) {
        sl->stable.fetch_add(1);
        AtomicMin(sl->first_stable, now);
        AtomicMax(sl->last_stable, now);
      }
      if (SliceStats* sl = window_->At(submit_ns)) {
        sl->update_ns.Record(now - submit_ns);
      }
      stable_.fetch_add(1);
      if (!stop_.load()) {
        cluster_->site(s).exec->Post([this, s] { ClosedLoopIssue(s); });
      }
    };
    if (stats_ != nullptr) {
      trace::Scope scope("node.submit", 0, s);
      node.SubmitUpdate(std::move(ops), std::move(on_stable));
      stats_->submit_ns.Record(scope.End());
    } else {
      node.SubmitUpdate(std::move(ops), std::move(on_stable));
    }
  }

  void ClosedLoopIssue(int s) {
    if (stop_.load()) return;
    Submit(s, MakeUpdate(site_rng_[static_cast<size_t>(s)]));
  }

  /// Open-loop query ETs: `reads_per_query` off-strand reads at one of the
  /// non-sequencer sites, timed from the first read issued to the last
  /// returned (pacing lateness is loadgen.late_us, not query time). The
  /// values are checked after the clock stops. Inconsistency of a read =
  /// increments of that object already submitted but not yet visible.
  void Reader(int64_t start_ns, int64_t end_ns) {
    SetTightTimerSlack();
    Rng rng(SubSeed(opt_.seed, 2));
    const double period_ns = 1e9 / p_.query_rate;
    std::vector<int64_t> objs(static_cast<size_t>(p_.reads_per_query));
    std::vector<int64_t> vals(objs.size());
    for (int64_t j = 0;; ++j) {
      const int64_t due = start_ns + static_cast<int64_t>(j * period_ns);
      if (due >= end_ns) break;
      SleepUntilNs(due);
      const int reader = static_cast<int>(j % 2);
      const esr::store::MvStore& store = cluster_->node(1 + reader).store();
      for (int64_t& obj : objs) obj = Pick(rng);
      const int64_t begin = NowNs();
      out_->late_ns->Record(begin - due);
      for (size_t r = 0; r < objs.size(); ++r) {
        if (stats_ != nullptr) {
          trace::Scope scope("store.read", 0, 1 + reader);
          vals[r] = store.Read(objs[r]).AsInt();
          stats_->store_read_ns.Record(scope.End());
        } else {
          vals[r] = store.Read(objs[r]).AsInt();
        }
      }
      const int64_t took = NowNs() - begin;
      std::vector<int32_t>& last = last_read_[static_cast<size_t>(reader)];
      int64_t incons = 0;
      for (size_t r = 0; r < objs.size(); ++r) {
        const auto obj = static_cast<size_t>(objs[r]);
        const int64_t v = vals[r];
        const int64_t submitted = counters_[obj].load();
        if (v > submitted) read_ahead_.fetch_add(1);
        if (v < last[obj]) read_backwards_.fetch_add(1);
        last[obj] = static_cast<int32_t>(v);
        incons += submitted - v;
      }
      if (SliceStats* sl = window_->At(begin)) {
        sl->query_ns.Record(took);
        sl->queries.fetch_add(1);
        sl->inconsistency.fetch_add(incons);
      }
      queries_.fetch_add(1);
    }
  }

  void Stop() { stop_.store(true); }
  int64_t submitted() const { return submitted_.load(); }
  int64_t stable() const { return stable_.load(); }
  int64_t queries() const { return queries_.load(); }
  int64_t increments() const { return increments_.load(); }
  int64_t read_ahead() const { return read_ahead_.load(); }
  int64_t read_backwards() const { return read_backwards_.load(); }

 private:
  const TcpParams& p_;
  const Options& opt_;
  Cluster* cluster_;
  const Window* window_;
  Phase* out_;
  trace::RuntimeStats* stats_;
  std::vector<std::atomic<int64_t>> counters_;
  std::vector<Rng> site_rng_;  // strand-confined
  std::vector<std::vector<int32_t>> last_read_;  // reader thread only
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> stable_{0};
  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> increments_{0};
  std::atomic<int64_t> read_ahead_{0};
  std::atomic<int64_t> read_backwards_{0};
};

/// Times `n` set-ups into `times`, shutting each cluster down except the
/// last, which is left in `cluster`. False if a set-up failed.
bool TimeSetUps(int n, std::unique_ptr<Cluster>& cluster,
                trace::RuntimeStats* stats, const std::string& wal_dir,
                std::vector<double>& times) {
  for (int i = 0; i < n; ++i) {
    if (cluster) cluster->Shutdown();
    cluster.reset();
    // A fresh log per cluster: FileStorage appends to what it finds.
    if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
    const double t = SetUp(cluster, stats, wal_dir);
    if (t < 0) return false;
    times.push_back(t);
  }
  return true;
}

/// One measured cluster lifetime: timed set-ups (the last cluster is kept),
/// warm-up, a measured window of `window_s`, drain, the correctness gates,
/// then as many timed set-ups again. setup_s is the fastest of them all: a
/// set-up lasts about a millisecond, so most escape the host's steal, but
/// how many do drifts with the shared machine's load. Gate failures are
/// recorded in `result`.
Phase RunPhase(const TcpParams& p, const Options& opt, double window_s,
               int setups, trace::RuntimeStats* stats,
               const std::string& wal_dir, RunResult& result) {
  Phase out;
  out.window_s = window_s;
  std::unique_ptr<Cluster> cluster;
  std::vector<double> setup_times;
  if (!TimeSetUps(setups, cluster, stats, wal_dir, setup_times)) {
    result.Fail("cluster set-up did not make an update stable");
    return out;
  }

  Window window(window_s);
  const size_t n_slices = window.slices.size();
  // Marks at each slice boundary: process CPU, host steal, and each site's
  // commit -> stable bucket counts (copied on the site's strand, which owns
  // the histogram). All allocated before the heap baseline.
  std::vector<double> cpu_marks(n_slices + 1), steal_marks(n_slices + 1);
  std::vector<std::vector<std::vector<int64_t>>> lag_marks(
      n_slices + 1, std::vector<std::vector<int64_t>>(
                        kSites, std::vector<int64_t>(LagBoundsUs().size() + 1)));
  Load load(p, opt, cluster.get(), &window, &out, stats);
  const double heap0 = HeapInUseBytes();
  const int64_t start_ns = NowNs();
  window.t0 = start_ns + static_cast<int64_t>(kWarmupS * 1e9);
  const int64_t t0 = window.t0;
  const int64_t t1 = window.end();

  for (int s = 0; s < kSites; ++s) {
    for (int w = 0; w < p.window_per_site; ++w) {
      cluster->site(s).exec->Post([&load, s] { load.ClosedLoopIssue(s); });
    }
  }
  std::thread reader;
  if (p.query_rate > 0) {
    reader = std::thread([&] { load.Reader(start_ns, t1); });
  }

  auto mark = [&](size_t k) {
    cpu_marks[k] = ProcessCpuSeconds();
    steal_marks[k] = StealSeconds();
    for (int s = 0; s < kSites; ++s) {
      const esr::obs::Histogram* h = cluster->site(s).commit_to_stable;
      std::vector<int64_t>* slot = &lag_marks[k][static_cast<size_t>(s)];
      cluster->site(s).exec->Post([h, slot] { *slot = h->bucket_counts(); });
    }
  };
  SleepUntilNs(t0);
  mark(0);
  std::array<int64_t, trace::kMaxSites> busy0{};
  if (stats != nullptr) {
    for (int s = 0; s < kSites; ++s) busy0[s] = stats->busy_ns[s].load();
  }
  for (size_t k = 1; k <= n_slices; ++k) {
    SleepUntilNs(t0 + static_cast<int64_t>(k) * window.slice_ns);
    mark(k);
  }
  if (stats != nullptr) {
    for (int s = 0; s < kSites; ++s) {
      out.busy_ns[s] = stats->busy_ns[s].load() - busy0[s];
    }
  }
  load.Stop();
  if (reader.joinable()) reader.join();

  // Drain: every submitted update stable, then every node idle with one
  // applied watermark, all by a fixed deadline.
  const int64_t deadline = NowNs() + static_cast<int64_t>(kDrainDeadlineS * 1e9);
  while (load.stable() < load.submitted() && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::array<int64_t, kSites> watermark{};
  bool settled = false;
  while (!settled && NowNs() < deadline) {
    settled = true;
    for (int s = 0; s < kSites; ++s) {
      bool idle = false;
      OnStrand(cluster->site(s).strand.get(), [&] {
        idle = cluster->node(s).Idle();
        watermark[s] = cluster->node(s).applied_watermark();
      });
      settled = settled && idle && watermark[s] == watermark[0];
    }
    if (!settled) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const int64_t drained_ns = NowNs();
  cluster->Shutdown();
  out.heap_b_per_update = (HeapInUseBytes() - heap0) /
                          static_cast<double>(std::max<int64_t>(load.submitted(), 1));

  // --- Correctness gates ---------------------------------------------------
  if (!settled) result.Fail("cluster did not drain by the deadline");
  const uint64_t digest0 = cluster->node(0).store().StateDigest();
  std::vector<double> digest_ms;
  for (int s = 0; s < kSites; ++s) {
    const esr::store::MvStore& store = cluster->node(s).store();
    const int64_t d0 = NowNs();
    const uint64_t digest = store.StateDigest();
    digest_ms.push_back(static_cast<double>(NowNs() - d0) * 1e-6);
    if (digest != digest0) result.Fail("site state digests differ");
    if (cluster->node(s).applied_watermark() !=
        cluster->node(0).applied_watermark()) {
      result.Fail("site applied watermarks differ");
    }
    int64_t sum = 0;
    for (esr::ObjectId id : store.ObjectIds()) sum += store.Read(id).AsInt();
    if (sum != load.increments()) {
      result.Fail("site " + std::to_string(s) + " holds " +
                  std::to_string(sum) + " increments, expected " +
                  std::to_string(load.increments()));
    }
  }
  out.digest_ms = Mean(digest_ms);
  if (load.read_backwards() > 0) result.Fail("an off-strand read went backwards");
  if (load.read_ahead() > 0) result.Fail("a read saw an increment never submitted");

  // --- Metrics ----------------------------------------------------------------
  // An update never stable counts as missing every latency limit: it enters
  // the last slice with the time it had waited at the deadline.
  out.failed = load.submitted() - load.stable();
  for (int64_t i = 0; i < out.failed; ++i) {
    window.slices.back()->update_ns.Record(drained_ns - t0);
  }
  std::vector<double> steal, rate, cpu_rate, u50, u99, q50, q99, lag50, incons;
  std::vector<int64_t> lag(LagBoundsUs().size() + 1);
  for (size_t k = 0; k < n_slices; ++k) {
    const SliceStats& sl = *window.slices[k];
    steal.push_back(steal_marks[k + 1] - steal_marks[k]);
    const int64_t n = sl.stable.load();
    const int64_t span = sl.last_stable.load() - sl.first_stable.load();
    // Completions per second between the slice's first and last completion.
    rate.push_back(n > 1 && span > 0
                       ? static_cast<double>(n - 1) * 1e9 / static_cast<double>(span)
                       : static_cast<double>(n) * 1e9 /
                             static_cast<double>(window.slice_ns));
    const double cpu = cpu_marks[k + 1] - cpu_marks[k];
    cpu_rate.push_back(static_cast<double>(n + sl.queries.load()) /
                       std::max(cpu, 1e-9));
    u50.push_back(sl.update_ns.Quantile(0.5) * 1e-3);
    u99.push_back(sl.update_ns.Quantile(0.99) * 1e-3);
    q50.push_back(sl.query_ns.Quantile(0.5) * 1e-3);
    q99.push_back(sl.query_ns.Quantile(0.99) * 1e-3);
    for (size_t b = 0; b < lag.size(); ++b) {
      lag[b] = 0;
      for (size_t s = 0; s < static_cast<size_t>(kSites); ++s) {
        lag[b] += lag_marks[k + 1][s][b] - lag_marks[k][s][b];
      }
    }
    lag50.push_back(BucketQuantile(lag, 0.5));
    incons.push_back(static_cast<double>(sl.inconsistency.load()) /
                     static_cast<double>(std::max<int64_t>(sl.queries.load(), 1)));
  }
  out.slices = static_cast<int>(n_slices);
  out.steal_ms_per_slice = Mean(steal) * 1e3;
  std::vector<double> all_rates = rate;
  out.raw_updates_per_s = Percentile(all_rates, 50);
  const SliceFit fit(steal);
  out.fitted_slices = static_cast<int>(fit.kept());
  out.attempted = load.submitted() + load.queries();
  out.updates_total = load.submitted();
  out.updates_per_s = fit.Rate(rate);
  out.update_p50_us = fit.Latency(u50);
  out.update_p99_us = fit.Latency(u99);
  out.query_p50_us = fit.Latency(q50);
  out.query_p99_us = fit.Latency(q99);
  out.stable_lag_p50_us = fit.Latency(lag50);
  out.ets_per_cpu_s = fit.Median(cpu_rate);
  out.query_incons_mean = fit.Median(incons);
  out.commit_p50_us = NodeQuantile(*cluster, "esr_runtime_submit_to_commit_us", 0.5);
  out.commit_p99_us = NodeQuantile(*cluster, "esr_runtime_submit_to_commit_us", 0.99);
  out.retransmits = NodeCounter(*cluster, "esr_runtime_retransmits_total");
  out.duplicates = NodeCounter(*cluster, "esr_runtime_duplicates_total");

  cluster.reset();
  if (!TimeSetUps(setups, cluster, nullptr, wal_dir, setup_times)) {
    result.Fail("cluster set-up did not make an update stable");
  }
  cluster.reset();
  if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
  out.setup_s = *std::min_element(setup_times.begin(), setup_times.end());
  return out;
}

RunResult RunTcp(const TcpParams& p, const Options& opt) {
  ::signal(SIGPIPE, SIG_IGN);
  RunResult result;
  if (!opt.trace) {
    Phase ph = RunPhase(p, opt, opt.seconds, /*setups=*/40, nullptr, "", result);
    result.attempted = ph.attempted;
    result.failed = ph.failed;
    auto& m = result.e2e;
    m["updates_per_s"] = {ph.updates_per_s, "1/s"};
    m["update_stable_p50_us"] = {ph.update_p50_us, "us"};
    m["stable_lag_p50_us"] = {ph.stable_lag_p50_us, "us"};
    m["query_p50_us"] = {ph.query_p50_us, "us"};
    m["setup_s"] = {ph.setup_s, "s"};
    m["heap_b_per_update"] = {ph.heap_b_per_update, "B"};
    std::printf("host steal %.1f CPU-ms per %.0f ms slice; fitted on the %d of "
                "%d least-stolen slices; updates_per_s over all slices %.1f\n",
                ph.steal_ms_per_slice, kSliceS * 1e3, ph.fitted_slices,
                ph.slices, ph.raw_updates_per_s);
    return result;
  }

  // Traced run: an untraced half for the baseline, then a traced half on a
  // fresh cluster; the difference in ETs per CPU-second is the tracing
  // overhead. Both halves write the WAL to FileStorage files in the work
  // directory, so the WAL figures time the program's medium and the
  // overhead compares like with like.
  const double half = std::max(1.0, opt.seconds / 2);
  const std::string wal_dir = opt.work_dir + "/" + opt.workload + "/wal";
  Phase base = RunPhase(p, opt, half, 1, nullptr, wal_dir, result);
  trace::RuntimeStats stats;
  Phase ph = RunPhase(p, opt, half, 1, &stats, wal_dir, result);
  result.attempted = base.attempted + ph.attempted;
  result.failed = base.failed + ph.failed;
  const double updates = static_cast<double>(std::max<int64_t>(ph.updates_total, 1));
  const double msgs = static_cast<double>(stats.msgs.load());
  double busy_max = 0;
  for (int s = 0; s < kSites; ++s) {
    busy_max = std::max(busy_max, static_cast<double>(ph.busy_ns[s]) /
                                      (ph.window_s * 1e9));
  }
  auto& m = result.layer;
  // Tails come from the untraced half: they carry no bound (on a shared VM
  // they move with host scheduling), but tracing must not inflate them.
  m["client.update_stable_p99_us"] = {base.update_p99_us, "us"};
  m["process.rss_mb"] = {PeakRssMb(), "MB"};
  m["process.ets_per_cpu_s"] = {base.ets_per_cpu_s, "1/s"};
  m["client.query_p99_us"] = {base.query_p99_us, "us"};
  m["client.query_inconsistency_mean"] = {base.query_incons_mean, "count"};
  m["runtime.transport.msgs_per_update"] = {msgs / updates, "count"};
  m["runtime.transport.bytes_per_update"] = {
      static_cast<double>(stats.bytes.load()) / updates, "B"};
  m["runtime.transport.send_us_p50"] = {stats.send_ns.Quantile(0.5) * 1e-3, "us"};
  m["runtime.strand.wait_us_p50"] = {stats.strand_wait_ns.Quantile(0.5) * 1e-3, "us"};
  m["runtime.strand.wait_us_p99"] = {stats.strand_wait_ns.Quantile(0.99) * 1e-3, "us"};
  m["runtime.strand.busy_frac"] = {busy_max, "fraction"};
  m["runtime.node.handle_us_p50"] = {stats.handle_self_ns.Quantile(0.5) * 1e-3, "us"};
  m["runtime.node.commit_us_p50"] = {ph.commit_p50_us, "us"};
  m["runtime.node.commit_us_p99"] = {ph.commit_p99_us, "us"};
  m["runtime.node.submit_us_p50"] = {stats.submit_ns.Quantile(0.5) * 1e-3, "us"};
  m["runtime.node.retransmit_ratio"] = {
      static_cast<double>(ph.retransmits + ph.duplicates) / std::max(msgs, 1.0),
      "ratio"};
  m["runtime.clock.timers_per_update"] = {
      static_cast<double>(stats.timers.load()) / updates, "count"};
  m["runtime.clock.timer_late_us_p99"] = {
      stats.timer_late_ns.Quantile(0.99) * 1e-3, "us"};
  m["recovery.wal.append_us_p50"] = {stats.wal_append_ns.Quantile(0.5) * 1e-3, "us"};
  m["recovery.wal.append_us_p99"] = {stats.wal_append_ns.Quantile(0.99) * 1e-3, "us"};
  m["recovery.wal.appends_per_update"] = {
      static_cast<double>(stats.wal_appends.load()) / updates, "count"};
  m["recovery.wal.bytes_per_update"] = {
      static_cast<double>(stats.wal_bytes.load()) / updates, "B"};
  m["store.read_us_p50"] = {stats.store_read_ns.Quantile(0.5) * 1e-3, "us"};
  m["store.read_us_p99"] = {stats.store_read_ns.Quantile(0.99) * 1e-3, "us"};
  m["store.digest_ms"] = {ph.digest_ms, "ms"};
  m["msg.seq.batch_size_mean"] = {
      static_cast<double>(stats.seq_positions.load()) /
          static_cast<double>(std::max<int64_t>(stats.seq_requests.load(), 1)),
      "count"};
  m["msg.seq.rtt_p50_us"] = {stats.seq_rtt_ns.Quantile(0.5) * 1e-3, "us"};
  m["loadgen.late_us_p99"] = {ph.late_ns->Quantile(0.99) * 1e-3, "us"};
  m["loadgen.late_us_max"] = {static_cast<double>(ph.late_ns->max()) * 1e-3, "us"};
  m["trace.overhead_frac"] = {
      base.ets_per_cpu_s > 0 ? 1.0 - ph.ets_per_cpu_s / base.ets_per_cpu_s : 0,
      "fraction"};
  std::printf("untraced ets_per_cpu_s %.1f, traced %.1f\nmessages per update by type:",
              base.ets_per_cpu_s, ph.ets_per_cpu_s);
  for (int type = 0; type < trace::kMaxMsgTypes; ++type) {
    const int64_t n = stats.msgs_by_type[static_cast<size_t>(type)].load();
    if (n > 0) std::printf(" %d:%.3f", type, static_cast<double>(n) / updates);
  }
  std::printf("\n");
  return result;
}

}  // namespace

RunResult RunTcpSaturate(const Options& opt) {
  TcpParams p;
  p.num_objects = 1024;
  p.ops_per_update = 1;
  p.window_per_site = 32;
  p.query_rate = 2000;
  p.reads_per_query = 4;
  return RunTcp(p, opt);
}

}  // namespace perfbench
