#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Benchmark-owned tracing for the traced run. Spans are recorded from the
// benchmark's own files, around the calls into each layer:
//
//  - decorators of the runtime seam's public interfaces (Transport, the
//    delivery handler, Executor, Clock) and of recovery::StorageBackend,
//    which the TCP workloads bind in place of the raw TcpTransport /
//    Strand / TimerWheel / FileStorage;
//  - scopes around facade calls and Simulator::RunUntil in the sim
//    workloads.
//
// Every span has a name, start, end, parent span and ET id (the id
// OrdupNode already stamps into Message::trace). Aggregates (histograms and
// counters) see every span; the span records themselves are kept for a
// 1-in-256 sample of ETs, in memory, and written out when the run ends.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "recovery/storage.h"
#include "runtime/interfaces.h"

namespace perfbench::trace {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t et = 0;
  int32_t site = -1;
};

/// Process-wide span store (bounded).
class SpanLog {
 public:
  static SpanLog& Get();
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const Span& span);
  /// Writes one JSON object per line; returns the number of spans written.
  size_t WriteJsonl(const std::string& path) const;

 private:
  static constexpr size_t kMaxSpans = 200'000;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t epoch_ns_ = NowNs();
};

/// Measures one layer call on the current thread. Scopes nest through a
/// thread-local stack: a scope's ET and parent default to the enclosing
/// scope's (or to the context a decorated Executor carried across a Post),
/// and each scope learns how much of its time its children covered, so
/// `self_ns()` is duration minus children.
class Scope {
 public:
  Scope(const char* name, int64_t et, int32_t site);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the scope early (idempotent); returns the duration in ns.
  int64_t End();
  int64_t self_ns() const { return duration_ns_ - child_ns_; }
  uint64_t id() const { return span_.id; }
  int64_t et() const { return span_.et; }

  /// The innermost open scope on this thread (null outside any scope).
  static Scope* Current();
  /// Context inherited by scopes opened on this thread while no scope is
  /// open (set by the Executor decorator around a posted task).
  struct Inherited {
    uint64_t parent = 0;
    int64_t et = 0;
  };

 private:
  Span span_;
  Scope* outer_;
  int64_t child_ns_ = 0;
  int64_t duration_ns_ = 0;
  bool ended_ = false;
};

constexpr int kMaxSites = 16;
constexpr int kMaxMsgTypes = 256;

/// Aggregates for the real-runtime layers, shared by all sites' decorators.
struct RuntimeStats {
  // runtime.transport
  LatencyHist send_ns;
  std::atomic<int64_t> msgs{0};
  std::atomic<int64_t> bytes{0};
  std::array<std::atomic<int64_t>, kMaxMsgTypes> msgs_by_type{};
  // runtime.node (delivery handler)
  LatencyHist handle_self_ns;
  LatencyHist submit_ns;
  // runtime.strand
  LatencyHist strand_wait_ns;
  std::array<std::atomic<int64_t>, kMaxSites> busy_ns{};
  // runtime.clock
  std::atomic<int64_t> timers{0};
  LatencyHist timer_late_ns;
  // recovery.wal (storage appends = group-commit flushes)
  LatencyHist wal_append_ns;
  std::atomic<int64_t> wal_appends{0};
  std::atomic<int64_t> wal_bytes{0};
  // msg.seq as seen on the wire: positions asked per request, and request
  // send -> grant delivery
  std::atomic<int64_t> seq_requests{0};
  std::atomic<int64_t> seq_positions{0};
  LatencyHist seq_rtt_ns;
  // store (off-strand reads issued by the benchmark's reader)
  LatencyHist store_read_ns;
};

/// runtime::Executor decorator: post -> run wait, task run time, busy time
/// per site, and the span context carried across the hop.
class TracingExecutor : public esr::runtime::Executor {
 public:
  TracingExecutor(esr::runtime::Executor* inner, int site, RuntimeStats* stats)
      : inner_(inner), site_(site), stats_(stats) {}
  void Post(std::function<void()> fn) override;

 private:
  esr::runtime::Executor* inner_;
  int site_;
  RuntimeStats* stats_;
};

/// runtime::Transport decorator: send time, message and byte counts by
/// Message::type, node handler self time per delivered message, and the
/// sequencer round trip (request send -> grant delivery, same strand).
class TracingTransport : public esr::runtime::Transport {
 public:
  TracingTransport(esr::runtime::Transport* inner, int site,
                   RuntimeStats* stats)
      : inner_(inner), site_(site), stats_(stats) {}
  esr::SiteId self() const override { return inner_->self(); }
  void SetHandler(Handler handler) override;
  void Send(esr::SiteId to, esr::runtime::Message msg) override;
  void Start() override { inner_->Start(); }
  void Stop() override { inner_->Stop(); }

 private:
  esr::runtime::Transport* inner_;
  int site_;
  RuntimeStats* stats_;
  /// ET -> send time of its sequencer request. Touched only on this site's
  /// strand (Send and the delivery handler both run there).
  std::unordered_map<int64_t, int64_t> seq_sent_ns_;
};

/// runtime::Clock decorator: timers scheduled and how late each fired.
class TracingClock : public esr::runtime::Clock {
 public:
  TracingClock(esr::runtime::Clock* inner, int site, RuntimeStats* stats)
      : inner_(inner), site_(site), stats_(stats) {}
  esr::SimTime Now() const override { return inner_->Now(); }
  esr::runtime::TimerId Schedule(esr::SimDuration delay,
                                 std::function<void()> fn) override;
  esr::runtime::TimerId ScheduleAt(esr::SimTime when,
                                   std::function<void()> fn) override;
  bool Cancel(esr::runtime::TimerId id) override { return inner_->Cancel(id); }

 private:
  std::function<void()> Wrap(int64_t deadline_ns, std::function<void()> fn);
  esr::runtime::Clock* inner_;
  int site_;
  RuntimeStats* stats_;
};

/// recovery::StorageBackend decorator: WAL append (flush) time and bytes.
class TracingStorage : public esr::recovery::StorageBackend {
 public:
  TracingStorage(esr::recovery::StorageBackend* inner, int site,
                 RuntimeStats* stats)
      : inner_(inner), site_(site), stats_(stats) {}
  void AppendWal(esr::SiteId site, std::string_view bytes) override;
  std::string ReadWal(esr::SiteId site) const override {
    return inner_->ReadWal(site);
  }
  void ReplaceWal(esr::SiteId site, std::string bytes) override {
    inner_->ReplaceWal(site, std::move(bytes));
  }
  void WriteCheckpoint(esr::SiteId site, std::string bytes) override {
    inner_->WriteCheckpoint(site, std::move(bytes));
  }
  std::string ReadCheckpoint(esr::SiteId site) const override {
    return inner_->ReadCheckpoint(site);
  }

 private:
  esr::recovery::StorageBackend* inner_;
  int site_;
  RuntimeStats* stats_;
};

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H_
