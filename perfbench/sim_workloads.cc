// The two simulator workloads: the core::ReplicatedSystem facade on the
// discrete-event simulator, the only place the ESR methods, stable queues,
// the facade's sequencer and sharding run.
//
//   sim-commu        COMMU, 5 sites, 2 ms +- 0.5 ms one-way delay, 1% loss,
//                    one crash/restart mid-run; closed-loop clients, 30%
//                    updates of 2 increments, 4-read queries with gaps at
//                    epsilon 4, Zipf(0.9) keys.
//   sim-ordup-shard  ORDUP, 8 sites, 16 shards, RF 3, batched sequencer with
//                    a modeled service time; mostly single-shard updates
//                    and reads forwarded to owner sites.
//
// Every input is drawn from the benchmark's seed, and the amount of
// simulated work is fixed by (seed, --seconds), so the simulated-time
// metrics and the event and message counts repeat exactly for a seed.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>

#include "bench.h"
#include "esr/replicated_system.h"
#include "store/operation.h"
#include "trace.h"

namespace perfbench {
namespace {

using esr::EtId;
using esr::ObjectId;
using esr::SimDuration;
using esr::SimTime;
using esr::SiteId;
using esr::core::ReplicatedSystem;
using esr::core::SystemConfig;
using esr::store::Operation;

constexpr SimDuration kChunkUs = 10'000;     // RunUntil step
/// An untraced run is this many identical simulations (one seed, so every
/// simulated-time figure repeats exactly), each checked by the gates.
constexpr int kTrials = 10;
constexpr SimDuration kDrainUs = 5'000'000;  // fixed drain deadline
/// Timed set-ups before each trial; setup_s is the fastest of all of them,
/// so a slow stretch of the shared machine does not move it.
constexpr int kSetupsPerTrial = 31;
constexpr int64_t kRestartLimit = 16;

struct SimParams {
  SystemConfig config;
  int clients_per_site = 4;
  int64_t num_objects = 10'000;
  double zipf_theta = 0.9;
  double update_fraction = 0.3;
  int ops_per_update = 2;
  int reads_per_query = 4;
  int64_t epsilon = 4;
  SimDuration think_us = 1'000;
  SimDuration read_gap_us = 200;  // mean of the exponential gap
  double single_shard_fraction = 0;  // sharded runs only
  bool crash = false;
  /// Simulated seconds of issue window per second of --seconds, sized so
  /// a run takes roughly --seconds of wall time on one core.
  double sim_s_per_s = 1;
};

struct UpdateRec {
  EtId et = 0;
  SimTime submit = 0;
  SimTime commit = -1;
  bool rejected = false;
};

struct QueryRec {
  SimTime begin = 0;
  SimTime end = -1;
  int64_t inconsistency = 0;
  int64_t epsilon = 0;
  int64_t reads = 0;
  int64_t blocked = 0;
  int64_t restarts = 0;
};

/// Facade call timings, recorded only in the traced half.
struct SimLayerStats {
  LatencyHist submit_ns;
  LatencyHist read_ns;
  int64_t divergence_max = 0;
};

class SimRun {
 public:
  SimRun(const SimParams& p, uint64_t seed, SimTime window_us,
         SimLayerStats* stats)
      : p_(p), seed_(seed), window_us_(window_us), stats_(stats),
        zipf_(p.num_objects, p.zipf_theta) {}

  /// Builds the system `setups` times, each until one update is stable,
  /// and keeps the last; appends each set-up's wall seconds to `times`.
  /// False if the set-up update never became stable.
  bool SetUp(int setups, std::vector<double>& times) {
    for (int i = 0; i < setups; ++i) {
      const int64_t t0 = NowNs();
      system_.reset();
      system_ = std::make_unique<ReplicatedSystem>(p_.config);
      SiteId origin = 0;
      if (const auto* placement = system_->placement()) {
        origin = placement->Owners(placement->ShardOf(0)).front();
      }
      auto et = system_->SubmitUpdate(origin, {Operation::Increment(0, 1)});
      if (!et.ok()) return false;
      auto& sim = system_->simulator();
      while (system_->tracer().StabilityLag(*et) < 0) {
        if (sim.Now() > kDrainUs) return false;
        sim.RunUntil(sim.Now() + 1'000);
      }
      times.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    increments_ = 1;  // the set-up update
    return true;
  }

  void Run() {
    auto& sim = system_->simulator();
    start_ = sim.Now();
    stop_ = start_ + window_us_;
    if (p_.crash) {
      esr::sim::CrashSpec crash;
      crash.site = p_.config.num_sites - 1;
      crash.crash_at = start_ + window_us_ * 2 / 5;
      crash.restart_at = crash.crash_at + 300'000;
      system_->failures().ScheduleCrash(crash);
    }
    for (SiteId s = 0; s < p_.config.num_sites; ++s) {
      for (int c = 0; c < p_.clients_per_site; ++c) {
        clients_.push_back(Client{
            s, Rng(SubSeed(seed_, 1000 + clients_.size()))});
      }
    }
    heap0_ = HeapInUseBytes();
    for (size_t i = 0; i < clients_.size(); ++i) {
      const auto first = static_cast<SimDuration>(
          clients_[i].rng.Exponential(static_cast<double>(p_.think_us)));
      sim.Schedule(first, [this, i] { Next(i); });
    }
    const double cpu0 = ProcessCpuSeconds();
    int64_t chunks = 0;
    while (sim.Now() < stop_ + kDrainUs) {
      const SimTime until = std::min(sim.Now() + kChunkUs, stop_ + kDrainUs);
      if (stats_ != nullptr) {
        trace::Scope scope("sim.run_until", 0, -1);
        events_ += sim.RunUntil(until);
      } else {
        events_ += sim.RunUntil(until);
      }
      if (stats_ != nullptr && ++chunks % 10 == 0 && sim.Now() < stop_) {
        system_->SampleGauges();
        stats_->divergence_max = std::max<int64_t>(
            stats_->divergence_max,
            static_cast<int64_t>(
                system_->metrics().GetGauge("esr_replica_divergence_max").value()));
      }
      if (sim.Now() >= stop_ && Drained()) break;
    }
    cpu_s_ = ProcessCpuSeconds() - cpu0;
    // Stability is judged at the drain deadline; quiescence below only
    // settles the replicas for the convergence gate.
    for (const UpdateRec& u : updates_) {
      if (!u.rejected && system_->tracer().StabilityLag(u.et) < 0) {
        ++unstable_;
      }
    }
    system_->RunUntilQuiescent();
    // The run's own per-ET records are not the program's: their buffers are
    // taken out of the heap growth.
    heap1_ = HeapInUseBytes() -
             static_cast<double>(updates_.capacity() * sizeof(UpdateRec) +
                                 queries_.capacity() * sizeof(QueryRec));
  }

  /// Heap growth over the run per update submitted: what the program keeps
  /// per unit of work.
  double HeapPerUpdate() const {
    return (heap1_ - heap0_) /
           static_cast<double>(std::max<size_t>(updates_.size(), 1));
  }

  void Check(RunResult& result) {
    if (!system_->Converged()) result.Fail("replicas did not converge");
    const auto* placement = system_->placement();
    const int sites = p_.config.num_sites;
    std::vector<int64_t> site_sum(static_cast<size_t>(sites), 0);
    int64_t total = 0;
    for (ObjectId o = 0; o < p_.num_objects; ++o) {
      bool counted = false;
      for (SiteId s = 0; s < sites; ++s) {
        if (placement != nullptr && !placement->OwnsObject(s, o)) continue;
        const int64_t v = system_->SiteValue(s, o).AsInt();
        site_sum[static_cast<size_t>(s)] += v;
        if (!counted) total += v;
        counted = true;
      }
    }
    if (total != increments_) {
      result.Fail("objects hold " + std::to_string(total) +
                  " increments, expected " + std::to_string(increments_));
    }
    if (placement == nullptr) {
      for (SiteId s = 0; s < sites; ++s) {
        if (site_sum[static_cast<size_t>(s)] != increments_) {
          result.Fail("site " + std::to_string(s) + " lost increments");
        }
      }
    }
    for (const QueryRec& q : queries_) {
      if (q.end >= 0 && q.inconsistency > q.epsilon) {
        result.Fail("a query's inconsistency exceeded its epsilon");
        break;
      }
    }
    std::vector<double> digest_ms;
    for (SiteId s = 0; s < sites; ++s) {
      const int64_t d0 = NowNs();
      (void)system_->SiteDigest(s);
      digest_ms.push_back(static_cast<double>(NowNs() - d0) * 1e-6);
    }
    digest_ms_ = Mean(digest_ms);
  }

  /// Every attempted ET and the ones that failed: rejected or not stable
  /// by the drain deadline (updates); unfinished or restarted past the
  /// limit (queries).
  void Count(RunResult& result) const {
    result.attempted += static_cast<int64_t>(updates_.size() + queries_.size());
    int64_t failed = unstable_;
    for (const UpdateRec& u : updates_) failed += u.rejected ? 1 : 0;
    for (const QueryRec& q : queries_) {
      failed += (q.end < 0 || q.restarts > kRestartLimit) ? 1 : 0;
    }
    result.failed += failed;
  }

  /// The end-to-end figures that are in simulated time.
  std::map<std::string, Metric> EndToEnd() {
    std::vector<double> commit, stable, lag, query, incons;
    int64_t stable_updates = 0;
    const SimTime unstable_wait = stop_ + kDrainUs;
    for (const UpdateRec& u : updates_) {
      if (u.rejected) continue;
      const SimTime l = system_->tracer().StabilityLag(u.et);
      if (u.commit >= 0) commit.push_back(static_cast<double>(u.commit - u.submit));
      if (l >= 0 && u.commit >= 0) {
        ++stable_updates;
        lag.push_back(static_cast<double>(l));
        stable.push_back(static_cast<double>(u.commit + l - u.submit));
      } else {
        // Never stable: counts as missing every latency limit.
        stable.push_back(static_cast<double>(unstable_wait - u.submit));
      }
    }
    for (const QueryRec& q : queries_) {
      if (q.end < 0) continue;
      query.push_back(static_cast<double>(q.end - q.begin));
      incons.push_back(static_cast<double>(q.inconsistency));
    }
    lag_p99_ = Percentile(lag, 99);
    incons_mean_ = Mean(incons);
    update_p99_ = Percentile(stable, 99);
    query_p99_ = Percentile(query, 99);
    commit_p50_ = Percentile(commit, 50);
    commit_p99_ = Percentile(commit, 99);
    std::map<std::string, Metric> m;
    m["updates_per_s"] = {static_cast<double>(stable_updates) /
                              (static_cast<double>(window_us_) * 1e-6),
                          "1/s"};
    m["update_stable_p50_us"] = {Percentile(stable, 50), "us"};
    m["stable_lag_p50_us"] = {Percentile(lag, 50), "us"};
    m["query_p50_us"] = {Percentile(query, 50), "us"};
    return m;
  }

  /// Update ETs submitted plus queries finished, per CPU-second of Run().
  double EtsPerCpuS() const {
    int64_t finished = 0;
    for (const QueryRec& q : queries_) finished += q.end >= 0 ? 1 : 0;
    return static_cast<double>(static_cast<int64_t>(updates_.size()) + finished) /
           std::max(cpu_s_, 1e-9);
  }

  /// Per-layer figures of this (traced) run.
  void Layers(std::map<std::string, Metric>& m) const {
    const double updates = static_cast<double>(std::max<size_t>(updates_.size(), 1));
    const double ets = static_cast<double>(
        std::max<size_t>(updates_.size() + queries_.size(), 1));
    int64_t reads = 0, blocked = 0, restarts = 0;
    for (const QueryRec& q : queries_) {
      reads += q.reads;
      blocked += q.blocked;
      restarts += q.restarts;
    }
    int64_t retransmits = 0;
    for (SiteId s = 0; s < p_.config.num_sites; ++s) {
      retransmits += system_->site_queues(s).counters().Get("queue.retransmit");
    }
    // Sequencer figures across the facade's order servers (one per shard
    // when sharded, else one unlabeled).
    auto& reg = system_->metrics();
    std::vector<esr::obs::LabelSet> labels = {{}};
    for (int k = 0; k < p_.config.shard.num_shards; ++k) {
      labels.push_back({{"shard", std::to_string(k)}});
    }
    int64_t grants = 0, batches = 0, rtt_n = 0;
    double rtt_weighted = 0;
    for (const auto& l : labels) {
      grants += reg.GetCounter("esr_seq_grants_total", l).value();
      batches += reg.GetCounter("esr_seq_batches_total", l).value();
      const auto& h = reg.GetHistogram("esr_seq_rtt_us", l);
      if (h.quantile_sample_count() >= 5) {
        rtt_weighted += h.QuantileValue(0.5) * static_cast<double>(h.count());
        rtt_n += h.count();
      }
    }
    m["sim.events_per_et"] = {static_cast<double>(events_) / ets, "count"};
    m["sim.cpu_ns_per_event"] = {
        cpu_s_ * 1e9 / static_cast<double>(std::max<int64_t>(events_, 1)), "ns"};
    m["esr.submit_us_p50"] = {stats_->submit_ns.Quantile(0.5) * 1e-3, "us"};
    m["esr.read_us_p50"] = {stats_->read_ns.Quantile(0.5) * 1e-3, "us"};
    m["esr.query_blocked_ratio"] = {
        static_cast<double>(blocked) /
            static_cast<double>(std::max<int64_t>(reads + blocked, 1)),
        "ratio"};
    m["esr.query_restarts_per_query"] = {
        static_cast<double>(restarts) /
            static_cast<double>(std::max<size_t>(queries_.size(), 1)),
        "count"};
    m["esr.divergence_max"] = {static_cast<double>(stats_->divergence_max), "count"};
    m["esr.stable_lag_p99_us"] = {lag_p99_, "us"};
    m["client.update_stable_p99_us"] = {update_p99_, "us"};
    m["client.query_p99_us"] = {query_p99_, "us"};
    m["client.query_inconsistency_mean"] = {incons_mean_, "count"};
    m["esr.commit_us_p50"] = {commit_p50_, "us"};
    m["esr.commit_us_p99"] = {commit_p99_, "us"};
    m["msg.net.msgs_per_update"] = {
        static_cast<double>(system_->network().counters().Get("net.sent")) / updates,
        "count"};
    m["msg.queue.retransmits_per_update"] = {
        static_cast<double>(retransmits) / updates, "count"};
    m["msg.seq.batch_size_mean"] = {
        static_cast<double>(grants) /
            static_cast<double>(std::max<int64_t>(batches, 1)),
        "count"};
    m["msg.seq.rtt_p50_us"] = {
        rtt_n == 0 ? 0 : rtt_weighted / static_cast<double>(rtt_n), "us"};
    m["shard.cross_shard_fraction"] = {
        static_cast<double>(cross_shard_) / updates, "fraction"};
    m["shard.forwarded_read_fraction"] = {
        static_cast<double>(forwarded_reads_) /
            static_cast<double>(std::max<int64_t>(reads_issued_, 1)),
        "fraction"};
    m["store.digest_ms"] = {digest_ms_, "ms"};
  }

  int64_t events() const { return events_; }

 private:
  struct Client {
    SiteId site;
    Rng rng;
  };

  /// No client ET in flight and every update stable (scans forward from
  /// the oldest update not yet seen stable).
  bool Drained() {
    if (pending_ > 0) return false;
    for (; drained_upto_ < updates_.size(); ++drained_upto_) {
      const UpdateRec& u = updates_[drained_upto_];
      if (!u.rejected && system_->tracer().StabilityLag(u.et) < 0) return false;
    }
    return true;
  }

  ObjectId Pick(Rng& rng) const { return zipf_.Sample(rng); }

  void Later(size_t client, SimDuration delay) {
    system_->simulator().Schedule(delay, [this, client] { Next(client); });
  }

  void Think(size_t client) {
    Later(client, static_cast<SimDuration>(clients_[client].rng.Exponential(
                      static_cast<double>(p_.think_us))));
  }

  void Next(size_t client) {
    if (system_->simulator().Now() >= stop_) return;
    Client& c = clients_[client];
    if (!system_->network().SiteUp(c.site)) {
      Later(client, 1'000);  // the client's site is down: wait it out
      return;
    }
    if (c.rng.Chance(p_.update_fraction)) {
      IssueUpdate(client);
    } else {
      IssueQuery(client);
    }
  }

  void IssueUpdate(size_t client) {
    Client& c = clients_[client];
    const auto* placement = system_->placement();
    const bool confine = placement != nullptr &&
                         c.rng.Chance(p_.single_shard_fraction);
    std::vector<Operation> ops;
    esr::ShardId shard = -1;
    for (int i = 0; i < p_.ops_per_update; ++i) {
      ObjectId o = Pick(c.rng);
      if (confine) {
        if (shard < 0) shard = placement->ShardOf(o);
        for (int tries = 0; tries < 256 && placement->ShardOf(o) != shard;
             ++tries) {
          o = Pick(c.rng);
        }
      }
      ops.push_back(Operation::Increment(o, 1));
    }
    if (placement != nullptr && placement->ShardsOf(ops).size() > 1) {
      ++cross_shard_;
    }
    const size_t idx = updates_.size();
    updates_.push_back(UpdateRec{0, system_->simulator().Now(), -1, false});
    ++pending_;
    auto done = [this, idx, client](esr::Status s) {
      --pending_;
      if (s.ok()) {
        updates_[idx].commit = system_->simulator().Now();
      } else {
        updates_[idx].rejected = true;
      }
      Think(client);
    };
    const int64_t n = static_cast<int64_t>(ops.size());
    esr::Result<EtId> et = [&] {
      if (stats_ == nullptr) {
        return system_->SubmitUpdate(c.site, std::move(ops), done);
      }
      trace::Scope scope("esr.submit", 0, c.site);
      auto r = system_->SubmitUpdate(c.site, std::move(ops), done);
      stats_->submit_ns.Record(scope.End());
      return r;
    }();
    if (!et.ok()) {
      --pending_;
      updates_[idx].rejected = true;
      Think(client);
      return;
    }
    updates_[idx].et = *et;
    increments_ += n;
  }

  void IssueQuery(size_t client) {
    Client& c = clients_[client];
    const size_t idx = queries_.size();
    queries_.push_back(QueryRec{system_->simulator().Now(), -1, 0, 0, 0, 0, 0});
    ++pending_;
    const EtId q = system_->BeginQuery(c.site, p_.epsilon);
    ReadStep(client, idx, q, p_.reads_per_query);
  }

  void ReadStep(size_t client, size_t idx, EtId q, int left) {
    Client& c = clients_[client];
    if (left == 0) {
      QueryRec& rec = queries_[idx];
      if (const auto* state = system_->query_state(q)) {
        rec.inconsistency = state->inconsistency;
        rec.epsilon = state->declared_epsilon;
        rec.reads = state->reads;
        rec.blocked = state->blocked_attempts;
        rec.restarts = state->restarts;
      }
      rec.end = system_->simulator().Now();
      (void)system_->EndQuery(q);
      --pending_;
      Think(client);
      return;
    }
    const ObjectId o = Pick(c.rng);
    ++reads_issued_;
    if (const auto* placement = system_->placement()) {
      if (!placement->OwnsObject(c.site, o)) ++forwarded_reads_;
    }
    auto on_value = [this, client, idx, q, left](esr::Result<esr::Value> v) {
      if (!v.ok()) {  // abandoned: stays unfinished and counts as failed
        (void)system_->EndQuery(q);
        --pending_;
        Think(client);
        return;
      }
      const auto gap = static_cast<SimDuration>(clients_[client].rng.Exponential(
          static_cast<double>(p_.read_gap_us)));
      system_->simulator().Schedule(gap, [this, client, idx, q, left] {
        ReadStep(client, idx, q, left - 1);
      });
    };
    if (stats_ == nullptr) {
      system_->Read(q, o, on_value);
      return;
    }
    trace::Scope scope("esr.read", q, c.site);
    system_->Read(q, o, on_value);
    stats_->read_ns.Record(scope.End());
  }

  const SimParams& p_;
  uint64_t seed_;
  SimTime window_us_;
  SimLayerStats* stats_;
  Zipf zipf_;
  std::unique_ptr<ReplicatedSystem> system_;
  std::deque<Client> clients_;
  std::vector<UpdateRec> updates_;
  std::vector<QueryRec> queries_;
  SimTime start_ = 0, stop_ = 0;
  int64_t pending_ = 0;
  size_t drained_upto_ = 0;
  int64_t increments_ = 0;
  int64_t events_ = 0;
  int64_t unstable_ = 0;
  int64_t cross_shard_ = 0;
  int64_t reads_issued_ = 0;
  int64_t forwarded_reads_ = 0;
  double cpu_s_ = 0;
  double heap0_ = 0, heap1_ = 0;
  double digest_ms_ = 0;
  double lag_p99_ = 0;
  double incons_mean_ = 0;
  double update_p99_ = 0;
  double query_p99_ = 0;
  double commit_p50_ = 0;
  double commit_p99_ = 0;
};

RunResult RunSim(SimParams p, const Options& opt) {
  p.config.seed = SubSeed(opt.seed, 7);
  p.config.record_history = false;
  p.config.record_spans = false;
  RunResult result;
  const auto window = static_cast<SimTime>(opt.seconds * p.sim_s_per_s * 1e6);
  if (!opt.trace) {
    const SimTime trial_window = std::max<SimTime>(window / kTrials, 1'000'000);
    std::vector<double> setup_times;
    for (int t = 0; t < kTrials; ++t) {
      SimRun run(p, opt.seed, trial_window, nullptr);
      if (!run.SetUp(kSetupsPerTrial, setup_times)) {
        result.Fail("set-up update never became stable");
        return result;
      }
      run.Run();
      run.Check(result);
      run.Count(result);
      if (t == 0) {
        result.e2e = run.EndToEnd();
        result.e2e["heap_b_per_update"] = {run.HeapPerUpdate(), "B"};
      }
    }
    result.e2e["setup_s"] = {*std::min_element(setup_times.begin(),
                                               setup_times.end()),
                             "s"};
    return result;
  }
  // Traced run: an untraced half, then the same half traced; the
  // difference in ETs per CPU-second is the tracing overhead.
  const SimTime half = std::max<SimTime>(window / 2, 1'000'000);
  SimRun base(p, opt.seed, half, nullptr);
  SimLayerStats stats;
  SimRun traced(p, opt.seed, half, &stats);
  double base_rate = 0, traced_rate = 0;
  std::vector<double> setup_times;
  for (SimRun* run : {&base, &traced}) {
    if (!run->SetUp(1, setup_times)) {
      result.Fail("set-up update never became stable");
      return result;
    }
    run->Run();
    run->Check(result);
    run->Count(result);
    run->EndToEnd();  // fills the percentiles Layers() reports
    (run == &base ? base_rate : traced_rate) = run->EtsPerCpuS();
  }
  traced.Layers(result.layer);
  result.layer["process.rss_mb"] = {PeakRssMb(), "MB"};
  result.layer["process.ets_per_cpu_s"] = {base_rate, "1/s"};
  result.layer["trace.overhead_frac"] = {
      base_rate > 0 ? 1.0 - traced_rate / base_rate : 0, "fraction"};
  std::printf("untraced ets_per_cpu_s %.1f, traced %.1f\n", base_rate, traced_rate);
  return result;
}

}  // namespace

RunResult RunSimCommu(const Options& opt) {
  SimParams p;
  p.config.method = esr::core::Method::kCommu;
  p.config.num_sites = 5;
  p.config.network.base_latency_us = 1'500;  // 2 ms +- 0.5 ms one way
  p.config.network.jitter_us = 1'000;
  p.config.network.loss_probability = 0.01;
  p.clients_per_site = 8;
  p.num_objects = 10'000;
  p.zipf_theta = 0.9;
  p.update_fraction = 0.3;
  p.ops_per_update = 2;
  p.reads_per_query = 4;
  p.epsilon = 4;
  p.crash = true;
  p.sim_s_per_s = 2.5;
  return RunSim(p, opt);
}

RunResult RunSimOrdupShard(const Options& opt) {
  SimParams p;
  p.config.method = esr::core::Method::kOrdup;
  p.config.num_sites = 8;
  p.config.shard.num_shards = 16;
  p.config.shard.replication_factor = 3;
  p.config.seq_batch_max = 8;
  p.config.seq_batch_linger_us = 200;
  p.config.seq_service_us = 20;
  p.config.network.base_latency_us = 1'000;
  p.config.network.jitter_us = 500;
  p.clients_per_site = 4;
  p.num_objects = 4'096;
  p.zipf_theta = 0.9;
  p.update_fraction = 0.5;
  p.ops_per_update = 2;
  p.single_shard_fraction = 0.9;
  p.reads_per_query = 4;
  p.epsilon = 4;
  p.sim_s_per_s = 3.5;
  return RunSim(p, opt);
}

}  // namespace perfbench
