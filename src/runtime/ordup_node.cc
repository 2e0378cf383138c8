#include "runtime/ordup_node.h"

#include <algorithm>
#include <utility>

#include "common/wire.h"
#include "msg/mailbox.h"
#include "msg/sequencer_wire.h"
#include "recovery/codec.h"

namespace esr::runtime {

namespace {

/// MSets on the wire: the sender's applied watermark, then
/// `U32 n ++ n × MsetRec`.
std::string EncodeMsets(SequenceNumber watermark,
                        const std::vector<const core::Mset*>& msets) {
  recovery::Encoder e;
  e.I64(watermark);
  e.U32(static_cast<uint32_t>(msets.size()));
  for (const core::Mset* mset : msets) e.MsetRec(*mset);
  return e.Take();
}

/// Reads `U32 n ++ n × MsetRec` (an MSet message after its watermark, or a
/// catch-up response). All or nothing: false on a torn or corrupt list.
bool DecodeMsets(recovery::Decoder& d, std::vector<core::Mset>* out) {
  const uint32_t n = d.U32();
  for (uint32_t i = 0; i < n && d.ok(); ++i) {
    out->push_back(d.MsetRec());
    if (out->back().global_order < 1) return false;
  }
  return d.ok();
}

std::string EncodeWatermark(SequenceNumber watermark) {
  wire::Encoder e;
  e.I64(watermark);
  return e.Take();
}

}  // namespace

OrdupNode::OrdupNode(OrdupNodeConfig config, Transport* transport,
                     Clock* clock, recovery::Wal* wal,
                     obs::MetricRegistry* metrics)
    : config_(config),
      transport_(transport),
      clock_(clock),
      wal_(wal),
      metrics_(metrics),
      store_(store::MvStoreOptions{.partitions = config.store_partitions}),
      peer_wm_(static_cast<size_t>(std::max(config.num_sites, 1)), 0),
      wm_owed_(peer_wm_.size(), false),
      seq_home_(config.sequencer_site) {
  // Seed both id counters from the incarnation: ET ids and request ids must
  // never collide with a previous life of this site (the server dedups
  // request retries by id, so a reused id would be answered with the dead
  // predecessor's position). Wall-clock µs outruns any realistic submit
  // count, so `incarnation > previous incarnation + previous submits` holds.
  submit_counter_ = config_.incarnation;
  next_request_id_ = config_.incarnation + 1;
  if (metrics_ != nullptr) {
    m_submitted_ = &metrics_->GetCounter("esr_runtime_updates_submitted_total");
    m_applied_ = &metrics_->GetCounter("esr_runtime_msets_applied_total");
    m_stable_ = &metrics_->GetCounter("esr_runtime_ets_stable_total");
    m_retransmits_ = &metrics_->GetCounter("esr_runtime_retransmits_total");
    m_duplicates_ = &metrics_->GetCounter("esr_runtime_duplicates_total");
    m_commit_stable_us_ =
        &metrics_->GetHistogram("esr_runtime_commit_to_stable_us");
    m_submit_commit_us_ =
        &metrics_->GetHistogram("esr_runtime_submit_to_commit_us");
    m_seq_batches_ = &metrics_->GetCounter("esr_seq_batches_total");
    m_seq_batch_size_ = &metrics_->GetHistogram("esr_seq_batch_size", {},
                                                msg::kSeqBatchSizeBounds);
    m_seq_rtt_us_ =
        &metrics_->GetHistogram("esr_seq_rtt_us", {}, msg::kSeqRttBoundsUs);
  }
}

void OrdupNode::Start() {
  if (running_) return;
  running_ = true;
  transport_->SetHandler([this](SiteId from, Message msg) {
    if (!running_) return;
    HandleMessage(from, std::move(msg));
  });
  transport_->Start();
  ReplayWal();
  if (config_.self == config_.sequencer_site) {
    seq_server_active_ = true;
    seq_next_ = MaxOrderSeen() + 1;
    if (config_.num_sites > 1) {
      // Seal until the peer probe answers (or times out): the durable WAL
      // floor alone cannot prove no higher position was granted before the
      // crash — a peer may have seen a grant this site never flushed.
      seq_sealed_ = true;
      probing_ = true;
      probe_id_ = ++next_request_id_;
      probe_floor_ = 0;
      probe_epoch_ = seq_epoch_;
      awaiting_probe_.clear();
      for (SiteId s = 0; s < config_.num_sites; ++s) {
        if (s != config_.self) awaiting_probe_.insert(s);
      }
      const std::string probe = msg::EncodeSeqProbeRequest(
          msg::SeqProbeRequest{probe_id_, config_.self});
      Broadcast(msg::kSeqProbeRequest, probe, kInvalidEtId);
      probe_timer_ = clock_->Schedule(
          10 * config_.retry_interval_us, [this] { FinishSequencerProbe(); });
    }
  }
  if (config_.num_sites > 1 && applied_watermark_ >= 0) {
    SendCatchupRequest();
  }
  retry_timer_ =
      clock_->Schedule(config_.retry_interval_us, [this] { RetryTick(); });
}

void OrdupNode::Stop() {
  if (!running_) return;
  running_ = false;
  if (retry_timer_ != 0) clock_->Cancel(retry_timer_);
  if (probe_timer_ != 0) clock_->Cancel(probe_timer_);
  retry_timer_ = 0;
  probe_timer_ = 0;
}

void OrdupNode::ReplayWal() {
  if (wal_ == nullptr) return;
  const std::vector<recovery::WalRecord> records = wal_->ReadAll();
  for (const recovery::WalRecord& rec : records) {
    switch (rec.type) {
      case recovery::WalRecordType::kMset:
        if (rec.mset.global_order >= 1) {
          Admit(rec.mset, /*persist=*/false);
        }
        break;
      default:
        break;
    }
  }
}

EtId OrdupNode::SubmitUpdate(std::vector<store::Operation> ops,
                             std::function<void()> on_stable) {
  const EtId et =
      submit_counter_++ * static_cast<int64_t>(config_.num_sites) +
      static_cast<int64_t>(config_.self) + 1;
  LocalEt local;
  local.mset.operations = std::move(ops);
  local.submitted_at = clock_->Now();
  local.on_stable = std::move(on_stable);
  outstanding_.emplace(et, std::move(local));
  ++submitted_count_;
  if (m_submitted_ != nullptr) m_submitted_->Increment();

  unrequested_.push_back(et);
  RequestQueued();
  return et;
}

void OrdupNode::RequestQueued() {
  if (!pending_seq_.ets.empty() || unrequested_.empty()) return;
  if (unrequested_.size() <= static_cast<size_t>(kMaxSeqBatch)) {
    pending_seq_.ets.swap(unrequested_);
  } else {
    const auto cut = unrequested_.begin() + kMaxSeqBatch;
    pending_seq_.ets.assign(unrequested_.begin(), cut);
    unrequested_.erase(unrequested_.begin(), cut);
  }
  pending_seq_.request_id = next_request_id_++;
  pending_seq_.first_sent_at = clock_->Now();
  SendRequest();
}

void OrdupNode::SendRequest() {
  PendingSeq& pending = pending_seq_;
  const EtId first_et = pending.ets.front();
  pending.epoch = seq_epoch_;
  pending.sent_at = clock_->Now();
  msg::SeqBatchRequest req{
      pending.request_id, static_cast<int32_t>(pending.ets.size()),
      seq_epoch_, TraceContext{first_et, 0, config_.self, msg::kSeqRequest},
      config_.incarnation};
  SendTo(seq_home_, msg::kSeqRequest, msg::EncodeSeqBatchRequest(req),
         first_et);
}

void OrdupNode::HandleMessage(SiteId from, Message msg) {
  switch (msg.type) {
    case core::kMsetMsg: {
      recovery::Decoder d(msg.payload);
      const SequenceNumber watermark = d.I64();
      std::vector<core::Mset> msets;
      if (DecodeMsets(d, &msets)) {
        for (const core::Mset& mset : msets) Admit(mset, /*persist=*/true);
        HandleWatermark(from, watermark);
      }
      break;
    }
    case kWatermarkMsg: {
      wire::Decoder d(msg.payload);
      const SequenceNumber watermark = d.I64();
      if (d.ok()) HandleWatermark(from, watermark);
      break;
    }
    case msg::kSeqRequest: {
      auto req = msg::DecodeSeqBatchRequest(msg.payload);
      if (req) HandleSeqRequest(from, *req);
      break;
    }
    case msg::kSeqResponse: {
      auto grant = msg::DecodeSeqBatchGrant(msg.payload);
      if (grant) HandleSeqGrant(*grant);
      break;
    }
    case msg::kSeqProbeRequest: {
      auto probe = msg::DecodeSeqProbeRequest(msg.payload);
      if (probe) HandleSeqProbeRequest(from, *probe);
      break;
    }
    case msg::kSeqProbeResponse: {
      auto resp = msg::DecodeSeqProbeResponse(msg.payload);
      if (resp) HandleSeqProbeResponse(*resp);
      break;
    }
    case msg::kSeqEpochAnnounce: {
      auto ann = msg::DecodeSeqEpochAnnounce(msg.payload);
      if (ann) HandleEpochAnnounce(from, *ann);
      break;
    }
    case kCatchupReqMsg: {
      wire::Decoder d(msg.payload);
      const SequenceNumber after = d.I64();
      if (d.ok()) HandleCatchupReq(from, after);
      break;
    }
    case kCatchupRespMsg:
      HandleCatchupResp(msg.payload);
      break;
    case kPosProbeReqMsg: {
      wire::Decoder d(msg.payload);
      const SequenceNumber pos = d.I64();
      if (d.ok()) HandlePosProbeReq(from, pos);
      break;
    }
    case kPosProbeRespMsg:
      HandlePosProbeResp(from, msg.payload);
      break;
    default:
      break;
  }
  AdvanceStable();
  FlushWatermark();
}

/// --- Sequencer (client + co-located server) -------------------------------

void OrdupNode::HandleSeqRequest(SiteId from, const msg::SeqBatchRequest& req) {
  if (!seq_server_active_ || seq_sealed_) return;
  if (req.count < 1 || req.count > kMaxSeqBatch) return;
  // Incarnation bookkeeping happens before the epoch gate: even a
  // stale-epoch request proves the site restarted.
  auto inc_it = last_incarnation_.find(from);
  if (inc_it == last_incarnation_.end()) {
    last_incarnation_[from] = req.incarnation;
  } else if (req.incarnation > inc_it->second) {
    inc_it->second = req.incarnation;
    // The previous life of `from` is dead with amnesia. Any position it was
    // granted but that never showed up as an MSet is a permanent hole in
    // the total order (the new life uses fresh request ids, so the retry
    // path can never fill it) — heal each one.
    for (const auto& [pos, owner] : unfilled_grants_) {
      if (owner.first == from && owner.second < req.incarnation) {
        StartHealing(pos);
      }
    }
  }
  if (req.epoch != seq_epoch_) {
    // Stale epoch. A client that restarted after the epoch announce has no
    // way to learn the current epoch on its own (the announce is broadcast
    // once, at probe completion) — repeat it to this client, whose
    // HandleEpochAnnounce re-sends every pending request in the new epoch.
    msg::SeqEpochAnnounce ann{seq_epoch_, config_.self, seq_next_};
    SendTo(from, msg::kSeqEpochAnnounce, msg::EncodeSeqEpochAnnounce(ann),
           kInvalidEtId);
    return;
  }
  // A retry of a granted request gets the identical grant (the original may
  // be in flight or lost — never grant the same request twice).
  const std::pair<SiteId, int64_t> key{from, req.request_id};
  auto [it, fresh] =
      granted_.try_emplace(key, std::make_pair(seq_next_, req.count));
  if (fresh) {
    for (int32_t i = 0; i < req.count; ++i) {
      unfilled_grants_.emplace(seq_next_++,
                               std::make_pair(from, req.incarnation));
    }
  }
  const auto [first, count] = it->second;
  msg::SeqBatchGrant grant{req.request_id, first, count, seq_epoch_};
  SendTo(from, msg::kSeqResponse, msg::EncodeSeqBatchGrant(grant), req.trace.et);
}

void OrdupNode::HandleSeqGrant(const msg::SeqBatchGrant& grant) {
  PendingSeq& pending = pending_seq_;
  if (pending.ets.empty() || grant.request_id != pending.request_id) {
    return;  // duplicate grant
  }
  if (grant.epoch < seq_epoch_) return;  // superseded; re-sent on announce
  // A block of another size is not this request's grant (corrupt, or a
  // server answering someone else): positions would be left unfilled or
  // taken twice.
  if (grant.count != static_cast<int32_t>(pending.ets.size())) return;
  const SimTime now = clock_->Now();
  if (m_seq_batches_ != nullptr) {
    m_seq_batches_->Increment();
    m_seq_batch_size_->Observe(static_cast<double>(grant.count));
    m_seq_rtt_us_->Observe(static_cast<double>(now - pending.first_sent_at));
  }
  const std::vector<EtId> ets = std::move(pending.ets);
  pending.ets.clear();
  // Ask for everything queued during the round trip before the MSets go.
  RequestQueued();
  std::vector<const core::Mset*> granted;
  granted.reserve(ets.size());
  for (size_t i = 0; i < ets.size(); ++i) {
    LocalEt& local = outstanding_.at(ets[i]);
    core::Mset& mset = local.mset;
    mset.et = ets[i];
    mset.origin = config_.self;
    mset.global_order = grant.first + static_cast<SequenceNumber>(i);
    mset.timestamp = LamportTimestamp{++lamport_, config_.self};
    mset.tentative = false;
    local_by_pos_.emplace(mset.global_order, ets[i]);
    local.sent_at = now;
    Admit(mset, /*persist=*/true);
    granted.push_back(&mset);
  }
  BroadcastMsets(granted);
}

void OrdupNode::HandleSeqProbeRequest(SiteId from,
                                      const msg::SeqProbeRequest& probe) {
  msg::SeqProbeResponse resp{probe.probe_id, config_.self, MaxOrderSeen(),
                             seq_epoch_};
  SendTo(from, msg::kSeqProbeResponse, msg::EncodeSeqProbeResponse(resp),
         kInvalidEtId);
}

void OrdupNode::HandleSeqProbeResponse(const msg::SeqProbeResponse& resp) {
  if (!probing_ || resp.probe_id != probe_id_) return;
  probe_floor_ = std::max(probe_floor_, resp.max_seen);
  probe_epoch_ = std::max(probe_epoch_, resp.epoch);
  awaiting_probe_.erase(resp.from);
  if (awaiting_probe_.empty()) FinishSequencerProbe();
}

void OrdupNode::FinishSequencerProbe() {
  if (!probing_) return;
  probing_ = false;
  if (probe_timer_ != 0) {
    clock_->Cancel(probe_timer_);
    probe_timer_ = 0;
  }
  seq_next_ = std::max(seq_next_, probe_floor_ + 1);
  seq_epoch_ = std::max(seq_epoch_, probe_epoch_) + 1;
  seq_sealed_ = false;
  granted_.clear();  // request ids never repeat within an epoch
  msg::SeqEpochAnnounce ann{seq_epoch_, config_.self, seq_next_};
  const std::string payload = msg::EncodeSeqEpochAnnounce(ann);
  Broadcast(msg::kSeqEpochAnnounce, payload, kInvalidEtId);
  // The co-located client adopts the epoch directly and re-requests.
  if (!pending_seq_.ets.empty()) SendRequest();
}

void OrdupNode::HandleEpochAnnounce(SiteId /*from*/,
                                    const msg::SeqEpochAnnounce& ann) {
  if (ann.epoch <= seq_epoch_) return;
  seq_epoch_ = ann.epoch;
  seq_home_ = ann.home;
  // Re-send the request in flight in the new epoch; the new server has no
  // record of its id, so a fresh block is granted (positions the old epoch
  // granted but this client never learned are covered by the probe floor).
  if (!pending_seq_.ets.empty()) SendRequest();
}

/// --- Order-hole healing (sequencer server only) ----------------------------

void OrdupNode::StartHealing(SequenceNumber pos) {
  if (healing_.count(pos) > 0) return;                          // in flight
  if (pos <= applied_watermark_ || holdback_.count(pos) > 0) return;  // seen
  std::unordered_set<SiteId>& awaiting = healing_[pos];
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    if (s != config_.self) awaiting.insert(s);
  }
  if (awaiting.empty()) {  // single-site cluster: nobody else to ask
    healing_.erase(pos);
    FillHole(pos);
    return;
  }
  wire::Encoder e;
  e.I64(pos);
  Broadcast(kPosProbeReqMsg, e.Take(), kInvalidEtId);
}

void OrdupNode::HandlePosProbeReq(SiteId from, SequenceNumber pos) {
  const core::Mset* found = nullptr;
  auto h = history_.find(pos);
  if (h != history_.end()) {
    found = &h->second;
  } else {
    auto b = holdback_.find(pos);
    if (b != holdback_.end()) found = &b->second;
  }
  recovery::Encoder e;
  e.I64(pos);
  e.U8(found != nullptr ? 1 : 0);
  if (found != nullptr) e.MsetRec(*found);
  SendTo(from, kPosProbeRespMsg, e.Take(), kInvalidEtId);
}

void OrdupNode::HandlePosProbeResp(SiteId from, std::string_view payload) {
  recovery::Decoder d(payload);
  const SequenceNumber pos = d.I64();
  const bool has = d.U8() != 0;
  if (!d.ok()) return;
  auto it = healing_.find(pos);
  if (it == healing_.end()) return;  // already healed or filled naturally
  if (has) {
    const core::Mset mset = d.MsetRec();
    if (!d.ok() || mset.global_order != pos) return;
    // The predecessor did broadcast before dying — at least one site holds
    // the real MSet. Adopt and re-broadcast it; never fill with a no-op.
    healing_.erase(it);
    Admit(mset, /*persist=*/true);
    BroadcastMsets({&mset});
    return;
  }
  it->second.erase(from);
  if (it->second.empty()) {
    // Every site denied holding the position, so the grant died inside the
    // client: the MSet was never broadcast anywhere. Filling with a no-op
    // is safe — the only process that could still produce the real MSet is
    // the dead incarnation.
    healing_.erase(it);
    FillHole(pos);
  }
}

void OrdupNode::FillHole(SequenceNumber pos) {
  if (pos <= applied_watermark_ || holdback_.count(pos) > 0) return;
  core::Mset noop;
  noop.et = submit_counter_++ * static_cast<int64_t>(config_.num_sites) +
            static_cast<int64_t>(config_.self) + 1;
  noop.origin = config_.self;
  noop.global_order = pos;
  noop.timestamp = LamportTimestamp{++lamport_, config_.self};
  noop.tentative = false;
  Admit(noop, /*persist=*/true);
  BroadcastMsets({&noop});
}

/// --- Total order admission + apply ----------------------------------------

void OrdupNode::Admit(const core::Mset& mset, bool persist) {
  const SequenceNumber order = mset.global_order;
  max_grant_seen_ = std::max(max_grant_seen_, order);
  // Server healing bookkeeping: the position is no longer a candidate hole
  // (no-ops at non-servers — both maps stay empty there).
  unfilled_grants_.erase(order);
  healing_.erase(order);
  if (order <= applied_watermark_ || holdback_.count(order) > 0) {
    if (m_duplicates_ != nullptr) m_duplicates_->Increment();
    return;
  }
  if (persist && wal_ != nullptr) wal_->AppendMset(mset);
  holdback_.emplace(order, mset);
  const SequenceNumber before = applied_watermark_;
  while (!holdback_.empty() &&
         holdback_.begin()->first == applied_watermark_ + 1) {
    const core::Mset next = holdback_.begin()->second;
    holdback_.erase(holdback_.begin());
    ApplyInOrder(next);
  }
  // The gap's age restarts only when the order moves: MSets arriving behind
  // a gap must not keep it young, or under steady traffic it never
  // outlives the gap timeout and is never backfilled.
  if (holdback_.empty()) {
    gap_since_ = -1;
  } else if (gap_since_ < 0 || applied_watermark_ > before) {
    gap_since_ = clock_->Now();
  }
}

void OrdupNode::ApplyInOrder(const core::Mset& mset) {
  store_.ApplyAll(mset.operations);
  applied_watermark_ = mset.global_order;
  history_.emplace(mset.global_order, mset);
  lamport_ = std::max(lamport_, mset.timestamp.counter) + 1;
  ++applied_count_;
  if (m_applied_ != nullptr) m_applied_->Increment();
  if (mset.origin != config_.self) {
    if (mset.origin >= 0 && mset.origin < config_.num_sites) {
      wm_owed_[static_cast<size_t>(mset.origin)] = true;
    }
    return;
  }
  auto it = outstanding_.find(mset.et);
  if (it == outstanding_.end()) return;
  LocalEt& local = it->second;
  local.committed_at = clock_->Now();
  if (m_submit_commit_us_ != nullptr) {
    m_submit_commit_us_->Observe(
        static_cast<double>(local.committed_at - local.submitted_at));
  }
}

/// --- Stability -------------------------------------------------------------

void OrdupNode::HandleWatermark(SiteId from, SequenceNumber watermark) {
  if (from < 0 || from >= config_.num_sites || from == config_.self) return;
  SequenceNumber& known = peer_wm_[static_cast<size_t>(from)];
  known = std::max(known, watermark);
}

void OrdupNode::AdvanceStable() {
  // In a total order, "applied everywhere" is a prefix: the floor is the
  // lowest applied watermark of any site.
  SequenceNumber floor = applied_watermark_;
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    if (s == config_.self) continue;
    floor = std::min(floor, peer_wm_[static_cast<size_t>(s)]);
  }
  if (floor <= stable_floor_) return;
  if (m_stable_ != nullptr) m_stable_->Increment(floor - stable_floor_);
  stable_floor_ = floor;
  const SimTime now = clock_->Now();
  while (!local_by_pos_.empty() && local_by_pos_.begin()->first <= floor) {
    const EtId et = local_by_pos_.begin()->second;
    local_by_pos_.erase(local_by_pos_.begin());
    auto it = outstanding_.find(et);
    if (it == outstanding_.end()) continue;
    if (m_commit_stable_us_ != nullptr) {
      m_commit_stable_us_->Observe(
          static_cast<double>(now - it->second.committed_at));
    }
    // Erase before the callback: it may submit again.
    std::function<void()> on_stable = std::move(it->second.on_stable);
    outstanding_.erase(it);
    if (on_stable) on_stable();
  }
}

void OrdupNode::FlushWatermark() {
  if (!running_ || !pending_seq_.ets.empty()) return;
  std::string payload;
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    if (!wm_owed_[static_cast<size_t>(s)]) continue;
    if (payload.empty()) payload = EncodeWatermark(applied_watermark_);
    SendTo(s, kWatermarkMsg, payload, kInvalidEtId);
    wm_owed_[static_cast<size_t>(s)] = false;
  }
}

void OrdupNode::BroadcastWatermark() {
  Broadcast(kWatermarkMsg, EncodeWatermark(applied_watermark_), kInvalidEtId);
  wm_owed_.assign(wm_owed_.size(), false);
}

/// --- Catch-up / backfill ----------------------------------------------------

void OrdupNode::SendCatchupRequest() {
  if (config_.num_sites <= 1) return;
  // Round-robin over peers so one slow peer cannot wedge backfill.
  SiteId target = kInvalidSiteId;
  for (int i = 0; i < config_.num_sites; ++i) {
    const SiteId cand = catchup_rr_;
    catchup_rr_ = (catchup_rr_ + 1) % config_.num_sites;
    if (cand != config_.self) {
      target = cand;
      break;
    }
  }
  if (target == kInvalidSiteId) return;
  wire::Encoder e;
  e.I64(applied_watermark_);
  SendTo(target, kCatchupReqMsg, e.Take(), kInvalidEtId);
}

void OrdupNode::HandleCatchupReq(SiteId from, SequenceNumber after) {
  wire::Encoder e;
  auto it = history_.upper_bound(after);
  int32_t n = 0;
  recovery::Encoder entries;
  for (; it != history_.end() && n < config_.catchup_batch; ++it, ++n) {
    entries.MsetRec(it->second);
  }
  if (n == 0) return;  // nothing to offer
  e.U32(static_cast<uint32_t>(n));
  e.Raw(entries.bytes());
  SendTo(from, kCatchupRespMsg, e.Take(), kInvalidEtId);
}

void OrdupNode::HandleCatchupResp(std::string_view payload) {
  recovery::Decoder d(payload);
  std::vector<core::Mset> msets;
  if (!DecodeMsets(d, &msets)) return;
  const SequenceNumber before = applied_watermark_;
  for (const core::Mset& mset : msets) Admit(mset, /*persist=*/true);
  // A full batch means the responder has more; keep pulling.
  if (applied_watermark_ > before &&
      msets.size() >= static_cast<size_t>(config_.catchup_batch)) {
    SendCatchupRequest();
  }
}

/// --- Retry loop -------------------------------------------------------------

void OrdupNode::RetryTick() {
  if (!running_) return;
  const SimTime now = clock_->Now();
  const auto stale = [&](SimTime sent_at) {
    return now - sent_at >= config_.retry_interval_us;
  };
  // Re-send a sequencer request that went unanswered for a whole interval
  // (the server dedups by request id).
  if (!pending_seq_.ets.empty() && stale(pending_seq_.sent_at)) {
    SendRequest();
    if (m_retransmits_ != nullptr) m_retransmits_->Increment();
  }
  // Re-send stale MSets to the peers whose watermark is still below them.
  for (const auto& [pos, et] : local_by_pos_) {
    LocalEt& local = outstanding_.at(et);
    if (!stale(local.sent_at)) continue;
    std::string payload;
    for (SiteId s = 0; s < config_.num_sites; ++s) {
      if (s == config_.self || peer_wm_[static_cast<size_t>(s)] >= pos) {
        continue;
      }
      if (payload.empty()) {
        payload = EncodeMsets(applied_watermark_, {&local.mset});
      }
      SendTo(s, core::kMsetMsg, payload, et);
      local.sent_at = now;
      if (m_retransmits_ != nullptr) m_retransmits_->Increment();
    }
  }
  // The watermark, every tick: a lost report would otherwise hold back the
  // floor at peers for good once traffic stops.
  BroadcastWatermark();
  // Re-probe while a takeover is waiting (peers may still be booting).
  if (probing_) {
    const std::string probe = msg::EncodeSeqProbeRequest(
        msg::SeqProbeRequest{probe_id_, config_.self});
    for (SiteId s : awaiting_probe_) {
      SendTo(s, msg::kSeqProbeRequest, probe, kInvalidEtId);
    }
  }
  // Re-probe unanswered sites for every hole still being healed.
  for (const auto& [pos, awaiting] : healing_) {
    wire::Encoder e;
    e.I64(pos);
    const std::string payload = e.Take();
    for (SiteId s : awaiting) {
      SendTo(s, kPosProbeReqMsg, payload, kInvalidEtId);
    }
  }
  // A total-order gap that outlived its grace period: pull a backfill.
  if (gap_since_ >= 0 && now - gap_since_ >= config_.gap_timeout_us) {
    SendCatchupRequest();
    gap_since_ = now;  // throttle to one request per timeout
  }
  retry_timer_ =
      clock_->Schedule(config_.retry_interval_us, [this] { RetryTick(); });
}

/// --- Plumbing ---------------------------------------------------------------

void OrdupNode::SendTo(SiteId to, int type, std::string payload, EtId et) {
  Message msg;
  msg.type = type;
  msg.payload = std::move(payload);
  msg.trace = TraceContext{et, 0, config_.self, static_cast<int32_t>(type)};
  transport_->Send(to, std::move(msg));
}

void OrdupNode::Broadcast(int type, const std::string& payload, EtId et) {
  for (SiteId s = 0; s < config_.num_sites; ++s) {
    if (s == config_.self) continue;
    SendTo(s, type, payload, et);
  }
}

void OrdupNode::BroadcastMsets(const std::vector<const core::Mset*>& msets) {
  Broadcast(core::kMsetMsg, EncodeMsets(applied_watermark_, msets),
            msets.front()->et);
  wm_owed_.assign(wm_owed_.size(), false);
}

SequenceNumber OrdupNode::MaxOrderSeen() const {
  SequenceNumber max_seen = std::max(applied_watermark_, max_grant_seen_);
  if (!holdback_.empty()) {
    max_seen = std::max(max_seen, holdback_.rbegin()->first);
  }
  if (!history_.empty()) {
    max_seen = std::max(max_seen, history_.rbegin()->first);
  }
  return max_seen;
}

std::string OrdupNode::DebugStuck(int limit) const {
  std::string out;
  int n = 0;
  if (!pending_seq_.ets.empty()) {
    ++n;
    out += "pending{rid=" + std::to_string(pending_seq_.request_id) +
           ",ets=" + std::to_string(pending_seq_.ets.size()) +
           ",first_et=" + std::to_string(pending_seq_.ets.front()) +
           ",epoch=" + std::to_string(pending_seq_.epoch) + "} ";
  }
  if (!unrequested_.empty()) {
    out += "queued=" + std::to_string(unrequested_.size()) + " ";
  }
  for (const auto& [et, local] : outstanding_) {
    if (n++ >= limit) break;
    out += "out{et=" + std::to_string(et) +
           ",pos=" + std::to_string(local.mset.global_order) + "} ";
  }
  std::string wms;
  for (SequenceNumber wm : peer_wm_) wms += std::to_string(wm) + ",";
  out += "wm=" + std::to_string(applied_watermark_) +
         " floor=" + std::to_string(stable_floor_) + " peer_wm=" + wms;
  return out;
}

}  // namespace esr::runtime
