// Conformance tests for the runtime seam (runtime/interfaces.h) against
// BOTH bindings — the deterministic simulator binding (SimTransport +
// Simulator-as-Clock + SimExecutor) and the real binding (TcpTransport +
// TimerWheel + ThreadPool strands). The contracts checked are the ones
// protocol code is written against:
//
//   * delivery: sent messages arrive, in per-peer send order (sim: with
//     jitter disabled), with sender identity and payload intact
//   * no delivery after Stop(): a stopped transport never invokes its
//     handler again, even for messages already in flight
//   * timers: earlier deadline fires first, FIFO among equal deadlines;
//     Cancel() == true guarantees the callback never runs — including for
//     a timer already expired and posted but not yet executed
//   * strand: tasks never run concurrently and run in post order
//
// Plus end-to-end checks of OrdupNode over the sim binding: a 3-site
// cluster converges deterministically; a site amnesia-restart with an
// in-flight sequencer grant is healed (the order hole is filled, the
// cluster drains); and watermark stability holds — one number per site,
// no per-ET stability messages or WAL records, a down site holds stability
// back everywhere, stale watermarks never move it back, and a lossless
// network sees no retransmissions; and group sequencing holds — one
// sequencer request in flight per site, positions in submit order, grants
// of the wrong size and torn MSet batches dropped whole, and a dead site's
// whole granted block healed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/wire.h"
#include "esr/mset.h"
#include "msg/mailbox.h"
#include "msg/sequencer_wire.h"
#include "obs/metric_registry.h"
#include "recovery/codec.h"
#include "recovery/storage.h"
#include "recovery/wal.h"
#include "runtime/interfaces.h"
#include "runtime/ordup_node.h"
#include "runtime/sim_binding.h"
#include "runtime/tcp_transport.h"
#include "runtime/thread_pool.h"
#include "runtime/timer_wheel.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "store/operation.h"

namespace esr::runtime {
namespace {

/// Deterministic executor for TimerWheel unit tests: posted thunks queue
/// until the test drains them explicitly. Mutex-guarded because the wheel
/// posts from its own thread while the test polls and drains.
class ManualExecutor : public Executor {
 public:
  void Post(std::function<void()> fn) override {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  int Drain() {
    int n = 0;
    for (;;) {
      std::function<void()> fn;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (queue_.empty()) return n;
        fn = std::move(queue_.front());
        queue_.pop_front();
      }
      fn();
      ++n;
    }
  }
  bool WaitNonEmpty(int timeout_ms) {
    for (int i = 0; i < timeout_ms; ++i) {
      if (!Empty()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return !Empty();
  }

 private:
  bool Empty() {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.empty();
  }

  std::mutex mu_;
  std::deque<std::function<void()>> queue_;
};

sim::NetworkConfig LosslessFifoNetwork() {
  sim::NetworkConfig config;
  config.base_latency_us = 1'000;
  config.jitter_us = 0;  // equal latency + FIFO tiebreak = in-order
  config.loss_probability = 0.0;
  return config;
}

Message Msg(int type, std::string payload) {
  Message m;
  m.type = type;
  m.payload = std::move(payload);
  return m;
}

/// --- Sim binding -----------------------------------------------------------

TEST(SimBindingTest, DeliversInOrderWithSenderAndPayload) {
  sim::Simulator simulator;
  sim::Network network(&simulator, 2, LosslessFifoNetwork(), /*seed=*/1);
  SimTransport a(&network, 0);
  SimTransport b(&network, 1);
  std::vector<std::pair<SiteId, std::string>> got;
  b.SetHandler([&](SiteId from, Message msg) {
    got.emplace_back(from, msg.payload);
  });
  a.Start();
  b.Start();
  for (int i = 0; i < 50; ++i) {
    a.Send(1, Msg(7, "m" + std::to_string(i)));
  }
  simulator.Run();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)].first, 0);
    EXPECT_EQ(got[static_cast<size_t>(i)].second, "m" + std::to_string(i));
  }
}

TEST(SimBindingTest, NoDeliveryAfterStopEvenForInFlightMessages) {
  sim::Simulator simulator;
  sim::Network network(&simulator, 2, LosslessFifoNetwork(), /*seed=*/1);
  SimTransport a(&network, 0);
  SimTransport b(&network, 1);
  int delivered = 0;
  b.SetHandler([&](SiteId, Message) { ++delivered; });
  a.Start();
  b.Start();
  a.Send(1, Msg(1, "in-flight"));
  b.Stop();  // message is scheduled for delivery but must be dropped
  simulator.Run();
  EXPECT_EQ(delivered, 0);
}

TEST(SimBindingTest, SimulatorClockTimerOrderingAndCancel) {
  sim::Simulator simulator;
  Clock* clock = &simulator;
  std::vector<int> fired;
  clock->Schedule(300, [&] { fired.push_back(3); });
  clock->Schedule(100, [&] { fired.push_back(1); });
  const TimerId second = clock->Schedule(200, [&] { fired.push_back(2); });
  clock->Schedule(100, [&] { fired.push_back(11); });  // FIFO among equals
  EXPECT_TRUE(clock->Cancel(second));
  EXPECT_FALSE(clock->Cancel(second));  // already cancelled
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 11, 3}));
  EXPECT_EQ(clock->Now(), 300);
}

TEST(SimBindingTest, SimExecutorPreservesPostOrder) {
  sim::Simulator simulator;
  SimExecutor executor(&simulator);
  std::vector<int> ran;
  for (int i = 0; i < 10; ++i) {
    executor.Post([&ran, i] { ran.push_back(i); });
  }
  simulator.Run();
  ASSERT_EQ(ran.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ran[static_cast<size_t>(i)], i);
}

/// --- Real binding: thread pool + strand ------------------------------------

TEST(StrandTest, SerializesAndPreservesFifoUnderConcurrentPosts) {
  ThreadPool pool(4);
  std::unique_ptr<Strand> strand = pool.MakeStrand();
  std::atomic<bool> in_task{false};
  std::atomic<int> overlaps{0};
  std::vector<int> order;
  constexpr int kPerThread = 200;
  std::vector<std::thread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        strand->Post([&, t, i] {
          if (in_task.exchange(true)) overlaps.fetch_add(1);
          order.push_back(t * kPerThread + i);  // unsynchronized on purpose
          in_task.store(false);
        });
      }
    });
  }
  for (auto& th : posters) th.join();
  pool.Shutdown();
  EXPECT_EQ(overlaps.load(), 0);
  ASSERT_EQ(order.size(), static_cast<size_t>(4 * kPerThread));
  // FIFO per poster: each thread's tasks appear in its own post order.
  std::vector<int> next(4, 0);
  for (int v : order) {
    const int t = v / kPerThread;
    EXPECT_EQ(v % kPerThread, next[static_cast<size_t>(t)]);
    ++next[static_cast<size_t>(t)];
  }
}

TEST(StrandTest, RunningInThisStrandIsTrueOnlyInside) {
  ThreadPool pool(2);
  std::unique_ptr<Strand> strand = pool.MakeStrand();
  EXPECT_FALSE(strand->RunningInThisStrand());
  std::atomic<bool> inside{false};
  strand->Post([&] { inside.store(strand->RunningInThisStrand()); });
  pool.Shutdown();
  EXPECT_TRUE(inside.load());
}

/// --- Real binding: timer wheel ---------------------------------------------

TEST(TimerWheelTest, FiresInDeadlineOrder) {
  ThreadPool pool(1);
  std::unique_ptr<Strand> strand = pool.MakeStrand();
  TimerWheel wheel(strand.get());
  wheel.Start();
  std::vector<int> fired;
  std::atomic<int> count{0};
  wheel.Schedule(60'000, [&] { fired.push_back(3); count.fetch_add(1); });
  wheel.Schedule(20'000, [&] { fired.push_back(1); count.fetch_add(1); });
  wheel.Schedule(40'000, [&] { fired.push_back(2); count.fetch_add(1); });
  for (int i = 0; i < 2000 && count.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wheel.Stop();
  pool.Shutdown();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(TimerWheelTest, EarlierTimerScheduledWhileSleepingFiresOnTime) {
  // The wheel is asleep until a far deadline when a nearer one arrives:
  // scheduling it must wake the timer thread, or it would fire late.
  ThreadPool pool(1);
  std::unique_ptr<Strand> strand = pool.MakeStrand();
  TimerWheel wheel(strand.get());
  wheel.Start();
  std::mutex mu;
  std::vector<int> fired;
  std::atomic<int> count{0};
  std::atomic<int64_t> early_elapsed_us{-1};
  wheel.Schedule(1'500'000, [&] {
    std::lock_guard<std::mutex> lock(mu);
    fired.push_back(2);
    count.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  wheel.Schedule(20'000, [&] {
    early_elapsed_us.store(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    std::lock_guard<std::mutex> lock(mu);
    fired.push_back(1);
    count.fetch_add(1);
  });
  for (int i = 0; i < 5000 && count.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  wheel.Stop();
  pool.Shutdown();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_GE(early_elapsed_us.load(), 20'000);
  // Without the wake it would fire with the 1.5 s timer.
  EXPECT_LT(early_elapsed_us.load(), 1'000'000) << "earlier timer fired late";
}

TEST(TimerWheelTest, CancelBeforeExpiryPreventsRun) {
  ManualExecutor executor;
  TimerWheel wheel(&executor);
  wheel.Start();
  bool ran = false;
  const TimerId id = wheel.Schedule(5'000'000, [&] { ran = true; });
  EXPECT_TRUE(wheel.Cancel(id));
  EXPECT_FALSE(wheel.Cancel(id));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  wheel.Stop();
  executor.Drain();
  EXPECT_FALSE(ran);
}

TEST(TimerWheelTest, CancelAfterExpiryButBeforeExecutionPreventsRun) {
  // The strongest clause of the Clock contract: a timer whose thunk is
  // already sitting on the executor can still be cancelled — Cancel()
  // returning true means the callback will never run.
  ManualExecutor executor;
  TimerWheel wheel(&executor);
  wheel.Start();
  bool ran = false;
  const TimerId id = wheel.Schedule(1'000, [&] { ran = true; });
  ASSERT_TRUE(executor.WaitNonEmpty(2'000));  // expired and posted
  EXPECT_TRUE(wheel.Cancel(id));
  executor.Drain();  // runs the posted thunk, which must no-op
  EXPECT_FALSE(ran);
  wheel.Stop();
}

TEST(TimerWheelTest, MonotonicNow) {
  ManualExecutor executor;
  TimerWheel wheel(&executor);
  const SimTime a = wheel.Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const SimTime b = wheel.Now();
  EXPECT_GE(b - a, 4'000);
}

/// --- Real binding: TCP transport -------------------------------------------

struct TcpPair {
  explicit TcpPair(ThreadPool* pool)
      : strand_a(pool->MakeStrand()), strand_b(pool->MakeStrand()) {
    TcpTransportConfig cfg_a;
    cfg_a.self = 0;
    cfg_a.peers = {"127.0.0.1:0", "127.0.0.1:0"};
    TcpTransportConfig cfg_b = cfg_a;
    cfg_b.self = 1;
    a = std::make_unique<TcpTransport>(cfg_a, strand_a.get());
    b = std::make_unique<TcpTransport>(cfg_b, strand_b.get());
    a->Start();
    b->Start();
    // Ephemeral ports are only known after Start.
    a->SetPeerAddress(1, "127.0.0.1:" + std::to_string(b->port()));
    b->SetPeerAddress(0, "127.0.0.1:" + std::to_string(a->port()));
  }

  std::unique_ptr<Strand> strand_a;
  std::unique_ptr<Strand> strand_b;
  std::unique_ptr<TcpTransport> a;
  std::unique_ptr<TcpTransport> b;
};

TEST(TcpTransportTest, DeliversInOrderWithTypeSenderAndPayload) {
  ThreadPool pool(2);
  TcpPair pair(&pool);
  std::mutex mu;
  std::vector<Message> got;
  std::atomic<int> count{0};
  pair.b->SetHandler([&](SiteId from, Message msg) {
    EXPECT_EQ(from, 0);
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(std::move(msg));
    count.fetch_add(1);
  });
  constexpr int kMessages = 500;
  for (int i = 0; i < kMessages; ++i) {
    pair.a->Send(1, Msg(i % 7, "payload-" + std::to_string(i)));
  }
  for (int i = 0; i < 5000 && count.load() < kMessages; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pair.a->Stop();
  pair.b->Stop();
  pool.Shutdown();
  ASSERT_EQ(got.size(), static_cast<size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)].type, i % 7);
    EXPECT_EQ(got[static_cast<size_t>(i)].payload,
              "payload-" + std::to_string(i));
  }
}

TEST(TcpTransportTest, LoopbackSelfSendDelivers) {
  ThreadPool pool(2);
  std::unique_ptr<Strand> strand = pool.MakeStrand();
  TcpTransportConfig cfg;
  cfg.self = 0;
  cfg.peers = {"127.0.0.1:0"};
  TcpTransport t(cfg, strand.get());
  std::atomic<int> got{0};
  t.SetHandler([&](SiteId from, Message msg) {
    EXPECT_EQ(from, 0);
    EXPECT_EQ(msg.payload, "self");
    got.fetch_add(1);
  });
  t.Start();
  t.Send(0, Msg(1, "self"));
  for (int i = 0; i < 2000 && got.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  t.Stop();
  pool.Shutdown();
  EXPECT_EQ(got.load(), 1);
}

TEST(TcpTransportTest, NoDeliveryAfterStop) {
  ThreadPool pool(2);
  TcpPair pair(&pool);
  std::atomic<int> delivered{0};
  pair.b->SetHandler([&](SiteId, Message) { delivered.fetch_add(1); });
  pair.a->Send(1, Msg(1, "warmup"));
  for (int i = 0; i < 5000 && delivered.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(delivered.load(), 1);
  pair.b->Stop();
  const int after_stop = delivered.load();
  for (int i = 0; i < 50; ++i) {
    pair.a->Send(1, Msg(1, "late-" + std::to_string(i)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(delivered.load(), after_stop);
  pair.a->Stop();
  pool.Shutdown();
}

TEST(TcpTransportTest, NoDeliveryAfterStopMidBatch) {
  // Stop() lands while multi-message batches sit on the receiver's
  // executor: the message being handled is the last one delivered, both
  // for the rest of its own batch and for the batches queued behind it.
  ThreadPool pool(1);
  std::unique_ptr<Strand> strand_a = pool.MakeStrand();
  ManualExecutor executor_b;
  TcpTransportConfig cfg_a;
  cfg_a.self = 0;
  cfg_a.peers = {"127.0.0.1:0", "127.0.0.1:0"};
  TcpTransportConfig cfg_b = cfg_a;
  cfg_b.self = 1;
  TcpTransport a(cfg_a, strand_a.get());
  TcpTransport b(cfg_b, &executor_b);
  int delivered = 0;
  b.SetHandler([&](SiteId, Message) {
    if (++delivered == 1) b.Stop();
  });
  a.Start();
  b.Start();
  // Queue the whole burst before the sender learns the receiver's port, so
  // it leaves in a few vectored sends and arrives in a few read bursts.
  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    a.Send(1, Msg(1, "m-" + std::to_string(i)));
  }
  a.SetPeerAddress(1, "127.0.0.1:" + std::to_string(b.port()));
  ASSERT_TRUE(executor_b.WaitNonEmpty(5'000));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const int tasks = executor_b.Drain();
  EXPECT_LT(tasks, kMessages) << "expected multi-message batches";
  EXPECT_EQ(delivered, 1);
  a.Stop();
  pool.Shutdown();
}

/// --- End to end: OrdupNode over the sim binding ---------------------------

/// Transport decorator: counts sends by message type, shows a test every
/// message sent or delivered, can deliver one type twice, and lets a test
/// hand the node a message as if a peer had sent it.
class CountingTransport : public Transport {
 public:
  /// Sees each message the node sends (outbound) or the network delivers.
  using Tap = std::function<void(bool outbound, SiteId peer, const Message&)>;

  explicit CountingTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  SiteId self() const override { return inner_->self(); }
  void SetHandler(Handler handler) override {
    handler_ = std::move(handler);
    inner_->SetHandler([this](SiteId from, Message msg) {
      if (tap) tap(/*outbound=*/false, from, msg);
      if (msg.type == drop_next_type) {
        drop_next_type = -1;
        return;
      }
      if (msg.type == duplicate_type) handler_(from, msg);
      handler_(from, std::move(msg));
    });
  }
  void Send(SiteId to, Message msg) override {
    ++sent_[msg.type];
    if (tap) tap(/*outbound=*/true, to, msg);
    inner_->Send(to, std::move(msg));
  }
  void Start() override { inner_->Start(); }
  void Stop() override { inner_->Stop(); }

  void Inject(SiteId from, Message msg) { handler_(from, std::move(msg)); }
  int64_t sent(int type) const {
    auto it = sent_.find(type);
    return it == sent_.end() ? 0 : it->second;
  }

  Tap tap;
  /// Network deliveries of this message type reach the node twice.
  int duplicate_type = -1;
  /// The next network delivery of this message type is lost.
  int drop_next_type = -1;

 private:
  std::unique_ptr<Transport> inner_;
  Handler handler_;
  std::map<int, int64_t> sent_;
};

/// One OrdupNode per site over SimTransport, each with its own metrics and
/// a WAL on shared in-memory storage.
struct SimCluster {
  explicit SimCluster(int n, uint64_t seed = 7,
                      sim::NetworkConfig net = LosslessFifoNetwork())
      : network(&simulator, n, net, seed),
        transports(static_cast<size_t>(n)),
        metrics(static_cast<size_t>(n)),
        wals(static_cast<size_t>(n)),
        nodes(static_cast<size_t>(n)) {
    for (SiteId s = 0; s < n; ++s) Make(s, /*incarnation=*/0, /*durable=*/true);
    for (auto& node : nodes) node->Start();
  }

  /// Recreates site `s`'s node on a fresh transport and starts it.
  void Boot(SiteId s, int64_t incarnation, bool durable) {
    Make(s, incarnation, durable);
    nodes[static_cast<size_t>(s)]->Start();
  }

  void Make(SiteId s, int64_t incarnation, bool durable) {
    const size_t i = static_cast<size_t>(s);
    transports[i] = std::make_unique<CountingTransport>(
        std::make_unique<SimTransport>(&network, s));
    metrics[i] = std::make_unique<obs::MetricRegistry>();
    recovery::RecoveryConfig rcfg;
    rcfg.enabled = true;
    wals[i] = durable ? std::make_unique<recovery::Wal>(
                            &simulator, &storage, s, rcfg, metrics[i].get())
                      : nullptr;
    OrdupNodeConfig cfg;
    cfg.self = s;
    cfg.num_sites = static_cast<int>(nodes.size());
    cfg.sequencer_site = 0;
    cfg.incarnation = incarnation;
    nodes[i] = std::make_unique<OrdupNode>(cfg, transports[i].get(),
                                           &simulator, wals[i].get(),
                                           metrics[i].get());
  }

  /// Takes site `s` down; its objects stay alive for events in flight.
  void Kill(SiteId s) {
    const size_t i = static_cast<size_t>(s);
    nodes[i]->Stop();
    transports[i]->Stop();
    retired_nodes.push_back(std::move(nodes[i]));
    retired_transports.push_back(std::move(transports[i]));
    retired_wals.push_back(std::move(wals[i]));
  }

  int64_t Counter(SiteId s, const std::string& name) {
    return metrics[static_cast<size_t>(s)]->GetCounter(name).value();
  }

  sim::Simulator simulator;
  sim::Network network;
  recovery::MemoryStorage storage;
  std::vector<std::unique_ptr<CountingTransport>> transports;
  std::vector<std::unique_ptr<obs::MetricRegistry>> metrics;
  std::vector<std::unique_ptr<recovery::Wal>> wals;
  std::vector<std::unique_ptr<OrdupNode>> nodes;
  std::vector<std::unique_ptr<OrdupNode>> retired_nodes;
  std::vector<std::unique_ptr<CountingTransport>> retired_transports;
  std::vector<std::unique_ptr<recovery::Wal>> retired_wals;
};

/// Submits `count` one-increment updates round-robin over sites
/// 0..sites-1, one every `gap_us` from `start`; `fired[k]` counts update
/// k's callbacks.
void SubmitPaced(SimCluster& cluster, int count, SimTime start,
                 SimDuration gap_us, std::vector<int>* fired, int sites = 3) {
  fired->assign(static_cast<size_t>(count), 0);
  const int n = sites;
  for (int k = 0; k < count; ++k) {
    cluster.simulator.ScheduleAt(start + k * gap_us, [&cluster, fired, k, n] {
      cluster.nodes[static_cast<size_t>(k % n)]->SubmitUpdate(
          {store::Operation::Increment(1 + k % 16, 1)},
          [fired, k] { ++(*fired)[static_cast<size_t>(k)]; });
    });
  }
}

Message WatermarkMsg(SequenceNumber watermark) {
  wire::Encoder e;
  e.I64(watermark);
  return Msg(kWatermarkMsg, e.Take());
}

/// The MSet message layout: `I64 watermark ++ U32 n ++ n × MsetRec`.
std::string EncodeMsetBatch(SequenceNumber watermark,
                            const std::vector<core::Mset>& msets) {
  recovery::Encoder e;
  e.I64(watermark);
  e.U32(static_cast<uint32_t>(msets.size()));
  for (const core::Mset& mset : msets) e.MsetRec(mset);
  return e.Take();
}

std::vector<core::Mset> DecodeMsetBatch(std::string_view payload) {
  recovery::Decoder d(payload);
  d.I64();
  const uint32_t n = d.U32();
  std::vector<core::Mset> msets;
  for (uint32_t i = 0; i < n && d.ok(); ++i) msets.push_back(d.MsetRec());
  EXPECT_TRUE(d.ok()) << "malformed MSet message on the wire";
  return msets;
}

/// A one-increment MSet at `position`, as if site `origin` had sent it.
core::Mset IncrementMset(SequenceNumber position, SiteId origin,
                         ObjectId object, int64_t delta) {
  core::Mset mset;
  mset.et = 1'000'000 + position;
  mset.origin = origin;
  mset.global_order = position;
  mset.timestamp = LamportTimestamp{position, origin};
  mset.tentative = false;
  mset.operations = {store::Operation::Increment(object, delta)};
  return mset;
}

/// What one site's sequencer client did, read off its transport.
struct SeqAudit {
  int64_t inflight_rid = 0;  // request sent whose grant is not yet delivered
  int64_t requests = 0;      // distinct request ids sent
  int64_t positions_requested = 0;
  int64_t overlapping_requests = 0;  // sent while another was in flight
  size_t largest_mset_batch = 0;
  std::map<EtId, SequenceNumber> position;  // own ETs, as broadcast
};

/// Taps every site's transport into `audits` (one per site).
void AuditSequencing(SimCluster& cluster, std::vector<SeqAudit>* audits) {
  audits->assign(cluster.nodes.size(), SeqAudit{});
  for (size_t i = 0; i < cluster.nodes.size(); ++i) {
    SeqAudit* audit = &(*audits)[i];
    const SiteId self = static_cast<SiteId>(i);
    cluster.transports[i]->tap = [audit, self](bool outbound, SiteId,
                                               const Message& msg) {
      if (outbound && msg.type == msg::kSeqRequest) {
        auto req = msg::DecodeSeqBatchRequest(msg.payload);
        ASSERT_TRUE(req.has_value());
        if (req->request_id == audit->inflight_rid) return;  // a re-send
        if (audit->inflight_rid != 0) ++audit->overlapping_requests;
        audit->inflight_rid = req->request_id;
        ++audit->requests;
        audit->positions_requested += req->count;
      } else if (!outbound && msg.type == msg::kSeqResponse) {
        auto grant = msg::DecodeSeqBatchGrant(msg.payload);
        ASSERT_TRUE(grant.has_value());
        if (grant->request_id == audit->inflight_rid) audit->inflight_rid = 0;
      } else if (outbound && msg.type == core::kMsetMsg) {
        const std::vector<core::Mset> msets = DecodeMsetBatch(msg.payload);
        audit->largest_mset_batch =
            std::max(audit->largest_mset_batch, msets.size());
        for (const core::Mset& mset : msets) {
          if (mset.origin == self) audit->position[mset.et] = mset.global_order;
        }
      }
    };
  }
}

/// Submits `per_site` updates at each site inside one simulator event (one
/// strand task), runs to `horizon`, and checks group sequencing end to end.
void CheckGroupSequencing(SimCluster& cluster, int per_site,
                          SimTime horizon) {
  const int sites = static_cast<int>(cluster.nodes.size());
  std::vector<SeqAudit> audits;
  AuditSequencing(cluster, &audits);
  std::vector<std::vector<EtId>> submitted(static_cast<size_t>(sites));
  std::map<EtId, int> fired;
  cluster.simulator.ScheduleAt(10'000, [&] {
    for (SiteId s = 0; s < sites; ++s) {
      for (int k = 0; k < per_site; ++k) {
        const EtId et = cluster.nodes[static_cast<size_t>(s)]->SubmitUpdate(
            {store::Operation::Increment(1 + (s * per_site + k) % 16, 1)},
            [&fired, &submitted, s, k] {
              ++fired[submitted[static_cast<size_t>(s)]
                             [static_cast<size_t>(k)]];
            });
        submitted[static_cast<size_t>(s)].push_back(et);
      }
    }
  });
  cluster.simulator.RunUntil(horizon);

  const int64_t total = static_cast<int64_t>(sites) * per_site;
  const uint64_t digest = cluster.nodes[0]->store().StateDigest();
  for (SiteId s = 0; s < sites; ++s) {
    const size_t i = static_cast<size_t>(s);
    const SeqAudit& audit = audits[i];
    OrdupNode& node = *cluster.nodes[i];
    EXPECT_EQ(audit.overlapping_requests, 0) << "site " << s;
    EXPECT_EQ(audit.positions_requested, per_site) << "site " << s;
    EXPECT_LT(audit.requests, per_site) << "site " << s << ": no batching";
    EXPECT_GT(audit.largest_mset_batch, 1u) << "site " << s;
    // Positions follow submit order.
    SequenceNumber previous = 0;
    for (EtId et : submitted[i]) {
      auto it = audit.position.find(et);
      ASSERT_NE(it, audit.position.end()) << "site " << s << " et " << et;
      EXPECT_GT(it->second, previous) << "site " << s << " et " << et;
      previous = it->second;
      EXPECT_EQ(fired[et], 1) << "site " << s << " et " << et;
    }
    EXPECT_EQ(node.applied_watermark(), total) << "site " << s;
    EXPECT_EQ(node.stable_count(), total) << "site " << s;
    EXPECT_EQ(node.store().StateDigest(), digest) << "site " << s;
    EXPECT_TRUE(node.Idle()) << "site " << s;
    // The batches show up in the node's own sequencer metrics.
    EXPECT_EQ(cluster.Counter(s, "esr_seq_batches_total"), audit.requests)
        << "site " << s;
    const obs::Histogram& sizes =
        cluster.metrics[i]->GetHistogram("esr_seq_batch_size");
    EXPECT_EQ(sizes.count(), audit.requests) << "site " << s;
    EXPECT_EQ(sizes.sum(), per_site) << "site " << s;
    EXPECT_EQ(cluster.metrics[i]->GetHistogram("esr_seq_rtt_us").count(),
              audit.requests)
        << "site " << s;
  }
  for (auto& transport : cluster.transports) transport->tap = nullptr;
}

TEST(OrdupNodeSimTest, ThreeSitesConvergeDeterministically) {
  uint64_t first_digest = 0;
  for (int run = 0; run < 2; ++run) {
    SimCluster cluster(3);
    for (int round = 0; round < 20; ++round) {
      for (SiteId s = 0; s < 3; ++s) {
        cluster.nodes[static_cast<size_t>(s)]->SubmitUpdate(
            {store::Operation::Increment(1 + round % 4, 1 + s)});
      }
    }
    // Bounded horizon: the retry loop re-arms itself while nodes run, so
    // the event queue never drains on its own.
    cluster.simulator.RunUntil(5'000'000);
    const uint64_t digest = cluster.nodes[0]->store().StateDigest();
    for (SiteId s = 0; s < 3; ++s) {
      OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
      EXPECT_EQ(node.applied_watermark(), 60) << "site " << s;
      EXPECT_EQ(node.store().StateDigest(), digest) << "site " << s;
      EXPECT_TRUE(node.Idle()) << "site " << s;
      EXPECT_EQ(node.stable_count(), 60) << "site " << s;
    }
    if (run == 0) {
      first_digest = digest;
    } else {
      EXPECT_EQ(digest, first_digest) << "determinism across identical runs";
    }
  }
}

TEST(OrdupNodeSimTest, ConvergesUnderLossAndReordering) {
  sim::NetworkConfig net;
  net.base_latency_us = 1'000;
  net.jitter_us = 900;
  net.loss_probability = 0.05;
  SimCluster cluster(3, /*seed=*/42, net);
  int callbacks = 0;
  for (int round = 0; round < 15; ++round) {
    for (SiteId s = 0; s < 3; ++s) {
      cluster.nodes[static_cast<size_t>(s)]->SubmitUpdate(
          {store::Operation::Increment(1 + s, 1)},
          [&callbacks] { ++callbacks; });
    }
  }
  cluster.simulator.RunUntil(10'000'000);
  EXPECT_EQ(callbacks, 45);
  const uint64_t digest = cluster.nodes[0]->store().StateDigest();
  for (SiteId s = 0; s < 3; ++s) {
    OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
    EXPECT_EQ(node.applied_watermark(), 45) << "site " << s;
    EXPECT_EQ(node.store().StateDigest(), digest) << "site " << s;
    EXPECT_TRUE(node.Idle()) << "site " << s;
    EXPECT_EQ(node.stable_count(), 45) << "site " << s;
  }
}

TEST(OrdupNodeSimTest, AmnesiaRestartWithInFlightGrantHealsOrderHole) {
  // Site 1 submits one update and dies with the sequencer's grant still in
  // flight: position 1 is granted but no MSet for it will ever exist. The
  // restarted incarnation must make the cluster whole again — the server
  // detects the incarnation jump, probes, and fills the hole with a no-op.
  SimCluster cluster(3);
  cluster.nodes[1]->SubmitUpdate({store::Operation::Increment(1, 100)});
  // The order server only activates once its startup probe round-trip
  // finishes (t~2000, epoch 2); site 1's request is then re-sent on the
  // epoch announce (t~3000), granted at t~4000, and the grant lands back at
  // t~5000. Stop site 1 at t=4500: the grant is consumed by a dead site.
  cluster.simulator.RunUntil(4'500);
  cluster.nodes[1]->Stop();
  cluster.transports[1]->Stop();
  cluster.simulator.RunUntil(1'000'000);
  EXPECT_EQ(cluster.nodes[0]->applied_watermark(), 0);  // the hole stalls all

  // Amnesia restart: a fresh node, same site id, higher incarnation.
  auto transport = std::make_unique<SimTransport>(&cluster.network, 1);
  OrdupNodeConfig cfg;
  cfg.self = 1;
  cfg.num_sites = 3;
  cfg.sequencer_site = 0;
  cfg.incarnation = 1'000'000;
  OrdupNode restarted(cfg, transport.get(), &cluster.simulator, nullptr,
                      nullptr);
  restarted.Start();
  restarted.SubmitUpdate({store::Operation::Increment(2, 5)});
  cluster.nodes[0]->SubmitUpdate({store::Operation::Increment(3, 7)});
  cluster.simulator.RunUntil(10'000'000);

  // Healed: the granted-but-dead position was no-op filled, both live
  // updates applied, everyone agrees.
  const uint64_t digest = cluster.nodes[0]->store().StateDigest();
  EXPECT_EQ(cluster.nodes[0]->applied_watermark(), 3);
  EXPECT_EQ(cluster.nodes[2]->applied_watermark(), 3);
  EXPECT_EQ(restarted.applied_watermark(), 3);
  EXPECT_EQ(restarted.store().StateDigest(), digest);
  EXPECT_EQ(cluster.nodes[2]->store().StateDigest(), digest);
  EXPECT_TRUE(restarted.Idle());
  EXPECT_TRUE(cluster.nodes[0]->Idle());
  // The dead incarnation's +100 increment never landed anywhere.
  EXPECT_EQ(restarted.store().Read(1).AsInt(), 0);
  EXPECT_EQ(restarted.store().Read(2).AsInt(), 5);
  EXPECT_EQ(restarted.store().Read(3).AsInt(), 7);
}

TEST(OrdupNodeSimTest, StabilityNeedsNoPerEtMessagesOrWalRecords) {
  // Stability rides on one cumulative watermark per site: no apply acks,
  // no stability notices, no stability acks, and no kStable WAL records.
  SimCluster cluster(3);
  constexpr int kUpdates = 300;
  std::vector<int> fired;
  SubmitPaced(cluster, kUpdates, 10'000, 100, &fired);
  cluster.simulator.RunUntil(1'000'000);
  constexpr int kRetiredStableAckMsg = 112;  // the per-ET stability ack
  int64_t watermark_msgs = 0;
  for (SiteId s = 0; s < 3; ++s) {
    const size_t i = static_cast<size_t>(s);
    OrdupNode& node = *cluster.nodes[i];
    EXPECT_EQ(node.stable_count(), kUpdates) << "site " << s;
    EXPECT_TRUE(node.Idle()) << "site " << s;
    const CountingTransport& t = *cluster.transports[i];
    EXPECT_EQ(t.sent(core::kApplyAckMsg), 0) << "site " << s;
    EXPECT_EQ(t.sent(core::kStableMsg), 0) << "site " << s;
    EXPECT_EQ(t.sent(kRetiredStableAckMsg), 0) << "site " << s;
    watermark_msgs += t.sent(kWatermarkMsg);
    cluster.wals[i]->Flush();
    int64_t msets = 0;
    for (const recovery::WalRecord& rec : cluster.wals[i]->ReadAll()) {
      EXPECT_EQ(rec.type, recovery::WalRecordType::kMset) << "site " << s;
      ++msets;
    }
    EXPECT_EQ(msets, kUpdates) << "site " << s;
  }
  for (int k = 0; k < kUpdates; ++k) {
    EXPECT_EQ(fired[static_cast<size_t>(k)], 1) << "update " << k;
  }
  // Standalone watermarks (idle links and retry ticks) stay well below
  // one per update cluster-wide.
  EXPECT_LT(watermark_msgs, kUpdates);
}

TEST(OrdupNodeSimTest, LosslessNetworkSeesNoRetransmits) {
  // Updates every 100 µs for several retry ticks on a lossless 1 ms
  // network: every request is granted and every MSet applied well within
  // one retry interval, so the retry loop must re-send nothing.
  SimCluster cluster(3);
  constexpr int kUpdates = 2'000;  // 200 ms: four retry ticks
  std::vector<int> fired;
  SubmitPaced(cluster, kUpdates, 10'000, 100, &fired);
  cluster.simulator.RunUntil(2'000'000);
  for (SiteId s = 0; s < 3; ++s) {
    OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
    EXPECT_EQ(node.applied_watermark(), kUpdates) << "site " << s;
    EXPECT_EQ(node.stable_count(), kUpdates) << "site " << s;
    EXPECT_TRUE(node.Idle()) << "site " << s;
    EXPECT_EQ(cluster.Counter(s, "esr_runtime_retransmits_total"), 0)
        << "site " << s;
  }
}

TEST(OrdupNodeSimTest, DownSiteHoldsBackStabilityUntilItRestarts) {
  SimCluster cluster(3);
  cluster.simulator.RunUntil(10'000);  // past the sequencer's start-up probe
  cluster.Kill(2);
  std::vector<int> fired;
  SubmitPaced(cluster, 20, 20'000, 100, &fired, /*sites=*/2);
  cluster.simulator.RunUntil(1'000'000);
  for (SiteId s = 0; s < 2; ++s) {
    OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
    EXPECT_EQ(node.applied_watermark(), 20) << "site " << s;
    EXPECT_EQ(node.stable_count(), 0) << "site " << s;
    EXPECT_FALSE(node.Idle()) << "site " << s;
  }
  for (int k = 0; k < 20; ++k) EXPECT_EQ(fired[static_cast<size_t>(k)], 0);

  // Amnesia restart: no WAL, fresh incarnation, catch-up from the peers.
  cluster.Boot(2, /*incarnation=*/1'000'000, /*durable=*/false);
  cluster.simulator.RunUntil(3'000'000);
  const SequenceNumber wm = cluster.nodes[0]->applied_watermark();
  for (SiteId s = 0; s < 3; ++s) {
    OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
    EXPECT_EQ(node.applied_watermark(), wm) << "site " << s;
    EXPECT_EQ(node.stable_count(), wm) << "site " << s;
    EXPECT_TRUE(node.Idle()) << "site " << s;
  }
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(fired[static_cast<size_t>(k)], 1) << "update " << k;
  }
}

TEST(OrdupNodeSimTest, StaleWatermarkDoesNotMoveStabilityBack) {
  SimCluster cluster(3);
  cluster.simulator.RunUntil(10'000);
  cluster.Kill(2);
  int fired = 0;
  for (int k = 0; k < 5; ++k) {
    cluster.nodes[0]->SubmitUpdate({store::Operation::Increment(1, 1)},
                                   [&fired] { ++fired; });
  }
  cluster.simulator.RunUntil(500'000);
  OrdupNode& node = *cluster.nodes[0];
  CountingTransport& transport = *cluster.transports[0];
  ASSERT_EQ(node.applied_watermark(), 5);
  EXPECT_EQ(node.stable_count(), 0);  // site 2 has reported nothing

  transport.Inject(2, WatermarkMsg(5));
  EXPECT_EQ(node.stable_count(), 5);
  EXPECT_EQ(fired, 5);
  EXPECT_TRUE(node.Idle());

  // A stale report (delayed, or from before a restart) arrives late.
  transport.Inject(2, WatermarkMsg(1));
  EXPECT_EQ(node.stable_count(), 5);
  cluster.simulator.RunUntil(1'000'000);
  EXPECT_EQ(node.stable_count(), 5);
  EXPECT_EQ(fired, 5);
}

TEST(OrdupNodeSimTest, SequencerDropsMultiPositionRequest) {
  // A request for a block outside [1, kMaxSeqBatch] from the wire must not
  // reserve it: the positions would stay unfilled and stall the total
  // order for everyone.
  SimCluster cluster(3);
  cluster.simulator.RunUntil(10'000);
  int bogus_grants = 0;
  cluster.transports[0]->tap = [&bogus_grants](bool outbound, SiteId,
                                               const Message& msg) {
    if (!outbound || msg.type != msg::kSeqResponse) return;
    auto grant = msg::DecodeSeqBatchGrant(msg.payload);
    if (grant && grant->request_id > 990 && grant->request_id < 1000) {
      ++bogus_grants;
    }
  };
  int64_t request_id = 990;
  for (int32_t count : {0, -1, kMaxSeqBatch + 1, 1 << 20}) {
    msg::SeqBatchRequest bogus{++request_id, count,
                               cluster.nodes[0]->sequencer_epoch(),
                               TraceContext{}, /*incarnation=*/0};
    cluster.transports[0]->Inject(
        1, Msg(msg::kSeqRequest, msg::EncodeSeqBatchRequest(bogus)));
  }
  cluster.nodes[1]->SubmitUpdate({store::Operation::Increment(4, 9)});
  cluster.simulator.RunUntil(1'000'000);
  for (SiteId s = 0; s < 3; ++s) {
    OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
    EXPECT_EQ(node.applied_watermark(), 1) << "site " << s;
    EXPECT_EQ(node.store().Read(4).AsInt(), 9) << "site " << s;
  }
  EXPECT_EQ(bogus_grants, 0);
}

TEST(OrdupNodeSimTest, GroupSequencingKeepsOneRequestInFlightPerSite) {
  // 32 updates per site in one strand task: the first leaves alone, the
  // rest queue behind it and are asked for in one request when its grant
  // arrives.
  SimCluster cluster(3);
  CheckGroupSequencing(cluster, /*per_site=*/32, /*horizon=*/1'000'000);
}

TEST(OrdupNodeSimTest, GroupSequencingSurvivesLossDuplicationAndReordering) {
  // The same under 5% loss and jitter, with every grant delivered twice:
  // lost grants are re-requested under the same id, duplicates and stale
  // grants are ignored, and lost batched MSets are re-sent.
  sim::NetworkConfig net;
  net.base_latency_us = 1'000;
  net.jitter_us = 900;
  net.loss_probability = 0.05;
  SimCluster cluster(3, /*seed=*/42, net);
  for (auto& transport : cluster.transports) {
    transport->duplicate_type = msg::kSeqResponse;
  }
  CheckGroupSequencing(cluster, /*per_site=*/32, /*horizon=*/10'000'000);
}

TEST(OrdupNodeSimTest, ClientDropsGrantOfWrongSize) {
  // A grant naming the request in flight but a block of another size is
  // not that request's grant. Taking it would put the request's ETs on
  // positions the server gave to others.
  SimCluster cluster(3);
  cluster.simulator.RunUntil(10'000);
  std::vector<SeqAudit> audits;
  AuditSequencing(cluster, &audits);
  // t=10 ms: one update leaves alone (granted at t=12 ms), the other three
  // queue and are requested together at t=12 ms (granted at t=14 ms).
  for (int k = 0; k < 4; ++k) {
    cluster.nodes[1]->SubmitUpdate({store::Operation::Increment(1, 1)});
  }
  cluster.nodes[2]->SubmitUpdate({store::Operation::Increment(2, 1)});
  cluster.simulator.RunUntil(13'000);
  ASSERT_EQ(audits[1].requests, 2);
  ASSERT_EQ(cluster.nodes[1]->pending_seq_size(), 3);
  for (int32_t count : {2, 4}) {
    msg::SeqBatchGrant bogus{audits[1].inflight_rid, /*first=*/1, count,
                             cluster.nodes[1]->sequencer_epoch()};
    cluster.transports[1]->Inject(
        0, Msg(msg::kSeqResponse, msg::EncodeSeqBatchGrant(bogus)));
    EXPECT_EQ(cluster.nodes[1]->pending_seq_size(), 3) << "count " << count;
  }
  cluster.simulator.RunUntil(1'000'000);
  const uint64_t digest = cluster.nodes[0]->store().StateDigest();
  for (SiteId s = 0; s < 3; ++s) {
    OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
    EXPECT_EQ(node.applied_watermark(), 5) << "site " << s;
    EXPECT_EQ(node.store().Read(1).AsInt(), 4) << "site " << s;
    EXPECT_EQ(node.store().Read(2).AsInt(), 1) << "site " << s;
    EXPECT_EQ(node.store().StateDigest(), digest) << "site " << s;
    EXPECT_TRUE(node.Idle()) << "site " << s;
  }
}

TEST(OrdupNodeSimTest, TruncatedMsetBatchAdmitsNothing) {
  // A batched MSet message cut short anywhere, or claiming more records
  // than it holds, is dropped whole: no crash, and no record of it admitted.
  SimCluster cluster(3);
  cluster.simulator.RunUntil(10'000);
  const std::vector<core::Mset> batch = {IncrementMset(1, 1, 5, 100),
                                         IncrementMset(2, 1, 6, 100),
                                         IncrementMset(3, 1, 7, 100)};
  const std::string whole = EncodeMsetBatch(/*watermark=*/3, batch);
  OrdupNode& node = *cluster.nodes[2];
  CountingTransport& transport = *cluster.transports[2];
  for (size_t len = 0; len < whole.size(); ++len) {
    transport.Inject(1, Msg(core::kMsetMsg, whole.substr(0, len)));
  }
  // Intact records, but a count beyond them (up to the U32 maximum).
  for (uint32_t n : {4u, 1'000u, 0xFFFF'FFFFu}) {
    std::string claimed = whole;
    const std::string count = [n] {
      wire::Encoder e;
      e.U32(n);
      return e.Take();
    }();
    claimed.replace(sizeof(int64_t), count.size(), count);
    transport.Inject(1, Msg(core::kMsetMsg, claimed));
  }
  EXPECT_EQ(node.applied_watermark(), 0);
  EXPECT_EQ(node.store().Read(5).AsInt(), 0);
  EXPECT_EQ(cluster.Counter(2, "esr_runtime_duplicates_total"), 0);
  EXPECT_EQ(node.stable_count(), 0);  // no watermark taken from them either

  // The real traffic for those positions is then applied normally.
  for (SiteId s = 0; s < 3; ++s) {
    cluster.nodes[static_cast<size_t>(s)]->SubmitUpdate(
        {store::Operation::Increment(5, 1)});
  }
  cluster.simulator.RunUntil(1'000'000);
  const uint64_t digest = cluster.nodes[0]->store().StateDigest();
  for (SiteId s = 0; s < 3; ++s) {
    OrdupNode& site = *cluster.nodes[static_cast<size_t>(s)];
    EXPECT_EQ(site.applied_watermark(), 3) << "site " << s;
    EXPECT_EQ(site.store().Read(5).AsInt(), 3) << "site " << s;
    EXPECT_EQ(site.store().StateDigest(), digest) << "site " << s;
  }
}

TEST(OrdupNodeSimTest, AmnesiaRestartHealsWholeGrantedBlock) {
  // Site 1 dies holding a granted block of four positions it never
  // broadcast. Its restart must get all four no-op filled so the order
  // resumes behind them.
  SimCluster cluster(3);
  cluster.simulator.RunUntil(10'000);
  std::vector<SeqAudit> audits;
  AuditSequencing(cluster, &audits);
  // t=10 ms: the first update leaves alone (position 1, granted at
  // t=12 ms and broadcast); the other four are requested together at
  // t=12 ms, granted positions 2..5 at t=13 ms, and the grant would land
  // at t=14 ms.
  for (int k = 0; k < 5; ++k) {
    cluster.nodes[1]->SubmitUpdate({store::Operation::Increment(1, 100)});
  }
  cluster.simulator.RunUntil(13'500);
  ASSERT_EQ(audits[1].requests, 2);
  ASSERT_EQ(audits[1].positions_requested, 5);
  cluster.Kill(1);
  cluster.simulator.RunUntil(1'000'000);
  EXPECT_EQ(cluster.nodes[0]->applied_watermark(), 1);  // the block stalls all
  EXPECT_EQ(cluster.nodes[2]->applied_watermark(), 1);

  cluster.Boot(1, /*incarnation=*/1'000'000, /*durable=*/false);
  cluster.nodes[1]->SubmitUpdate({store::Operation::Increment(2, 5)});
  cluster.nodes[0]->SubmitUpdate({store::Operation::Increment(3, 7)});
  cluster.simulator.RunUntil(10'000'000);

  const uint64_t digest = cluster.nodes[0]->store().StateDigest();
  for (SiteId s = 0; s < 3; ++s) {
    OrdupNode& node = *cluster.nodes[static_cast<size_t>(s)];
    EXPECT_EQ(node.applied_watermark(), 7) << "site " << s;  // 1 + 4 + 2
    EXPECT_EQ(node.store().StateDigest(), digest) << "site " << s;
    EXPECT_TRUE(node.Idle()) << "site " << s;
    // Only the first of the dead incarnation's five increments landed.
    EXPECT_EQ(node.store().Read(1).AsInt(), 100) << "site " << s;
    EXPECT_EQ(node.store().Read(2).AsInt(), 5) << "site " << s;
    EXPECT_EQ(node.store().Read(3).AsInt(), 7) << "site " << s;
  }
}

TEST(OrdupNodeSimTest, GapIsBackfilledWhileTrafficContinues) {
  // Site 2 loses site 1's MSet for position 1, and site 1 dies before it
  // could re-send it: only a catch-up from site 0 can fill the gap. Site 0
  // keeps submitting, so new MSets land in site 2's holdback all the time;
  // the gap must still count as old once it outlives the gap timeout.
  SimCluster cluster(3);
  cluster.simulator.RunUntil(10'000);
  cluster.transports[2]->drop_next_type = core::kMsetMsg;
  cluster.nodes[1]->SubmitUpdate({store::Operation::Increment(1, 1)});
  cluster.simulator.RunUntil(20'000);  // granted, applied at site 0
  ASSERT_EQ(cluster.nodes[0]->applied_watermark(), 1);
  ASSERT_EQ(cluster.nodes[2]->applied_watermark(), 0);
  cluster.Kill(1);
  std::vector<int> fired;
  constexpr int kUpdates = 5'000;  // one every 100 µs until t = 520 ms
  SubmitPaced(cluster, kUpdates, 20'000, 100, &fired, /*sites=*/1);
  cluster.simulator.RunUntil(400'000);
  // Well before the traffic stops, site 2 has filled the gap and follows.
  EXPECT_GT(cluster.nodes[2]->applied_watermark(), 3'000);
  cluster.simulator.RunUntil(2'000'000);
  EXPECT_EQ(cluster.nodes[2]->applied_watermark(), kUpdates + 1);
  EXPECT_EQ(cluster.nodes[2]->store().StateDigest(),
            cluster.nodes[0]->store().StateDigest());
}

}  // namespace
}  // namespace esr::runtime
