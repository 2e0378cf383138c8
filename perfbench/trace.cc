#include "trace.h"

#include <cstdio>

#include "msg/mailbox.h"
#include "msg/sequencer_wire.h"

namespace perfbench::trace {

namespace {

thread_local Scope* tls_current = nullptr;
thread_local Scope::Inherited tls_inherited;
thread_local uint64_t tls_untagged = 0;

/// Keeps spans of 1 in 256 ETs (by a hash of the id, so every span of a
/// sampled ET is kept on every thread) and 1 in 256 spans without an ET.
bool Sampled(int64_t et) {
  if (et <= 0) return (tls_untagged++ & 255) == 0;
  uint64_t h = static_cast<uint64_t>(et) * 0x9e3779b97f4a7c15ULL;
  return (h >> 56) == 0;
}

}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() < kMaxSpans) spans_.push_back(span);
}

size_t SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"et\":%lld,\"site\":%d}\n",
                 s.name, static_cast<long long>(s.start_ns - epoch_ns_),
                 static_cast<long long>(s.end_ns - epoch_ns_),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.et), s.site);
  }
  std::fclose(f);
  return spans_.size();
}

Scope::Scope(const char* name, int64_t et, int32_t site) : outer_(tls_current) {
  span_.name = name;
  span_.site = site;
  span_.parent = outer_ != nullptr ? outer_->span_.id : tls_inherited.parent;
  span_.et = et > 0 ? et : (outer_ != nullptr ? outer_->span_.et : tls_inherited.et);
  span_.id = SpanLog::Get().NewId();
  tls_current = this;
  span_.start_ns = NowNs();
}

Scope::~Scope() { End(); }

int64_t Scope::End() {
  if (ended_) return duration_ns_;
  ended_ = true;
  span_.end_ns = NowNs();
  duration_ns_ = span_.end_ns - span_.start_ns;
  if (outer_ != nullptr) outer_->child_ns_ += duration_ns_;
  tls_current = outer_;
  if (Sampled(span_.et)) SpanLog::Get().Add(span_);
  return duration_ns_;
}

Scope* Scope::Current() { return tls_current; }

void TracingExecutor::Post(std::function<void()> fn) {
  Scope::Inherited ctx = tls_inherited;
  if (Scope* cur = Scope::Current()) ctx = {cur->id(), cur->et()};
  const int64_t posted_ns = NowNs();
  inner_->Post([this, ctx, posted_ns, fn = std::move(fn)]() {
    const int64_t start_ns = NowNs();
    stats_->strand_wait_ns.Record(start_ns - posted_ns);
    const Scope::Inherited saved = tls_inherited;
    tls_inherited = ctx;
    int64_t run_ns;
    {
      Scope task("strand.task", 0, site_);
      fn();
      run_ns = task.End();
    }
    tls_inherited = saved;
    stats_->busy_ns[static_cast<size_t>(site_)].fetch_add(
        run_ns, std::memory_order_relaxed);
  });
}

void TracingTransport::SetHandler(Handler handler) {
  inner_->SetHandler([this, handler = std::move(handler)](
                         esr::SiteId from, esr::runtime::Message msg) {
    const int64_t et = msg.trace.et;
    if (msg.type == esr::msg::kSeqResponse) {
      auto it = seq_sent_ns_.find(et);
      if (it != seq_sent_ns_.end()) {
        stats_->seq_rtt_ns.Record(NowNs() - it->second);
        seq_sent_ns_.erase(it);
      }
    }
    Scope scope("node.handle", et, site_);
    handler(from, std::move(msg));
    scope.End();
    stats_->handle_self_ns.Record(scope.self_ns());
  });
}

void TracingTransport::Send(esr::SiteId to, esr::runtime::Message msg) {
  const int type = msg.type;
  const auto bytes = static_cast<int64_t>(msg.payload.size());
  Scope scope("transport.send", msg.trace.et, site_);
  if (type == esr::msg::kSeqRequest) {
    if (auto req = esr::msg::DecodeSeqBatchRequest(msg.payload)) {
      stats_->seq_requests.fetch_add(1, std::memory_order_relaxed);
      stats_->seq_positions.fetch_add(req->count, std::memory_order_relaxed);
    }
    if (msg.trace.et > 0) {
      seq_sent_ns_.emplace(msg.trace.et, NowNs());  // retries keep the first
    }
  }
  inner_->Send(to, std::move(msg));
  stats_->send_ns.Record(scope.End());
  stats_->msgs.fetch_add(1, std::memory_order_relaxed);
  stats_->bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (type >= 0 && type < kMaxMsgTypes) {
    stats_->msgs_by_type[static_cast<size_t>(type)].fetch_add(
        1, std::memory_order_relaxed);
  }
}

std::function<void()> TracingClock::Wrap(int64_t deadline_ns,
                                         std::function<void()> fn) {
  stats_->timers.fetch_add(1, std::memory_order_relaxed);
  return [this, deadline_ns, fn = std::move(fn)]() {
    stats_->timer_late_ns.Record(NowNs() - deadline_ns);
    Scope scope("clock.timer", 0, site_);
    fn();
  };
}

esr::runtime::TimerId TracingClock::Schedule(esr::SimDuration delay,
                                             std::function<void()> fn) {
  const int64_t deadline_ns = NowNs() + delay * 1000;
  return inner_->Schedule(delay, Wrap(deadline_ns, std::move(fn)));
}

esr::runtime::TimerId TracingClock::ScheduleAt(esr::SimTime when,
                                               std::function<void()> fn) {
  const int64_t deadline_ns = NowNs() + (when - inner_->Now()) * 1000;
  return inner_->ScheduleAt(when, Wrap(deadline_ns, std::move(fn)));
}

void TracingStorage::AppendWal(esr::SiteId site, std::string_view bytes) {
  Scope scope("wal.append", 0, site_);
  inner_->AppendWal(site, bytes);
  stats_->wal_append_ns.Record(scope.End());
  stats_->wal_appends.fetch_add(1, std::memory_order_relaxed);
  stats_->wal_bytes.fetch_add(static_cast<int64_t>(bytes.size()),
                              std::memory_order_relaxed);
}

}  // namespace perfbench::trace
