#ifndef ESR_RUNTIME_ORDUP_NODE_H_
#define ESR_RUNTIME_ORDUP_NODE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "esr/mset.h"
#include "msg/sequencer.h"
#include "obs/metric_registry.h"
#include "recovery/wal.h"
#include "runtime/interfaces.h"
#include "store/mv_store.h"

namespace esr::runtime {

/// Message types the node exchanges (beyond the esr/mset.h MSet id and the
/// msg/mailbox.h sequencer ids it reuses verbatim).
inline constexpr int kCatchupReqMsg = 113;
inline constexpr int kCatchupRespMsg = 114;
/// Order-hole healing: the sequencer asks every site whether it holds the
/// MSet at one total-order position (see OrdupNodeConfig::incarnation).
inline constexpr int kPosProbeReqMsg = 115;
inline constexpr int kPosProbeRespMsg = 116;
/// A site's applied watermark on its own, for links with no MSet to carry it.
inline constexpr int kWatermarkMsg = 117;
/// Most positions one sequencer request may ask for. The order server drops
/// any request outside [1, kMaxSeqBatch]: a corrupt count would reserve
/// positions nobody fills and stall the total order for everyone.
inline constexpr int32_t kMaxSeqBatch = 1024;

struct OrdupNodeConfig {
  SiteId self = 0;
  int num_sites = 1;
  /// Home of the (centralized, epoched) order server.
  SiteId sequencer_site = 0;
  /// Rescan period for the retransmit/catch-up loop (µs of the bound
  /// Clock: simulated µs under the sim binding, wall µs under TCP).
  SimDuration retry_interval_us = 50'000;
  /// How long a total-order gap may stall before the node asks a peer to
  /// backfill it.
  SimDuration gap_timeout_us = 100'000;
  /// Catch-up responses carry at most this many MSets (requester iterates).
  int32_t catchup_batch = 256;
  /// Identity of this process lifetime, strictly increasing across restarts
  /// of the site (esrd uses boot wall-clock µs; deterministic tests pick
  /// 0, 1, 2, ...). Seeds the ET-id and request-id counters so a restarted
  /// site never reuses its dead predecessor's ids, and rides on sequencer
  /// requests so the server can detect the restart and heal the
  /// predecessor's granted-but-never-filled order positions (probe all
  /// sites for the MSet; admit it if anyone holds it, else fill the hole
  /// with a no-op). Must stay below ~2^52 so ET ids fit int64.
  int64_t incarnation = 0;
  /// Hash partitions of the node's MvStore. The strand serializes all
  /// writes, but partitioning lets future off-strand readers (metrics
  /// scrapers, read-only RPCs) take per-partition shared locks instead of
  /// racing the applier; the default matches a small worker pool.
  int store_partitions = 8;
};

/// One ORDUP site as a binding-agnostic protocol core: the paper's
/// global-total-order method (centralized order server, MSet propagation,
/// watermark stability) written purely against the runtime seam —
/// runtime::Transport for messages, runtime::Clock for timers, and the
/// owning strand's single-threaded discipline instead of locks. The same
/// object runs deterministically inside the simulator (SimTransport +
/// Simulator) and for real inside `esrd` (TcpTransport + TimerWheel).
///
/// Stability is a prefix of the total order: the ET at position p is
/// stable once every site has applied through p. Each site therefore
/// reports one number, its applied watermark, prefixed to every MSet it
/// sends (or on its own when it has no MSet going out). The stable floor
/// is the minimum of its own watermark and the highest one heard from each
/// peer; the origin fires `on_stable` for its ETs at or below it.
///
/// Group sequencing: a site keeps at most one sequencer request in flight.
/// ETs submitted meanwhile queue, and the grant's arrival asks once for all
/// of them; the server grants a contiguous block, and the site broadcasts
/// the block's MSets as one message per peer. An idle site's request holds
/// one ET and leaves at once; under load the batch grows with the queue.
///
/// Reliability model: the transport is at-least-once/in-order at best and
/// lossy at worst, so every protocol edge is duplicate-tolerant and
/// retried: an MSet older than `retry_interval_us` is re-sent to each peer
/// whose watermark is still below it, a sequencer request that old is
/// re-sent (the server dedups by request id), the watermark is re-sent
/// every retry tick, and total-order gaps that outlive `gap_timeout_us`
/// are backfilled from a peer's history (which also serves a restarted
/// site's catch-up after WAL replay). A peer's watermark only moves
/// forward, so duplicated or reordered reports are harmless.
///
/// Threading: every method (including Start/Stop and the transport handler
/// it installs) must run on the owner's strand.
class OrdupNode {
 public:
  /// `wal` is optional (null = run without durability). The node does not
  /// own transport/clock/wal/metrics.
  OrdupNode(OrdupNodeConfig config, Transport* transport, Clock* clock,
            recovery::Wal* wal, obs::MetricRegistry* metrics);

  OrdupNode(const OrdupNode&) = delete;
  OrdupNode& operator=(const OrdupNode&) = delete;

  /// Installs the transport handler, replays the WAL (restart path), seeds
  /// the co-located order server (probing peers when the WAL shows a prior
  /// life), requests catch-up, and arms the retry loop.
  void Start();

  /// Cancels timers and detaches from the transport. Safe to call twice.
  void Stop();

  /// Submits one update ET (a set of update operations). Returns its ET id.
  /// `on_stable` (optional) fires at this site when the ET becomes stable —
  /// applied by every site, as their watermarks report.
  EtId SubmitUpdate(std::vector<store::Operation> ops,
                    std::function<void()> on_stable = nullptr);

  /// --- Introspection ------------------------------------------------------
  /// The store itself is internally synchronized (striped per-partition
  /// locks), so point reads and digests may run off-strand — e.g. from an
  /// exporter thread — while the strand applies MSets.
  const store::MvStore& store() const { return store_; }
  SequenceNumber applied_watermark() const { return applied_watermark_; }
  int64_t applied_count() const { return applied_count_; }
  int64_t submitted_count() const { return submitted_count_; }
  /// The stable floor: every position at or below it is applied everywhere.
  int64_t stable_count() const { return stable_floor_; }
  /// No locally-originated ET still queued, awaiting its grant or stability.
  bool Idle() const {
    return outstanding_.empty() && pending_seq_.ets.empty() &&
           unrequested_.empty();
  }
  int64_t sequencer_epoch() const { return seq_epoch_; }
  int64_t outstanding_size() const {
    return static_cast<int64_t>(outstanding_.size());
  }
  /// Local ETs without a position yet: requested or still queued.
  int64_t pending_seq_size() const {
    return static_cast<int64_t>(pending_seq_.ets.size() + unrequested_.size());
  }
  /// One-line debug rendering of up to `limit` stuck local ETs.
  std::string DebugStuck(int limit = 4) const;

 private:
  /// A locally-originated ET from submission to stability.
  struct LocalEt {
    core::Mset mset;  // global_order 0 (only operations set) until granted
    SimTime submitted_at = 0;
    SimTime committed_at = 0;  // local in-order apply time
    SimTime sent_at = 0;       // last (re)broadcast of the MSet
    std::function<void()> on_stable;
  };

  /// The sequencer request in flight: one position per ET, in submit order.
  struct PendingSeq {
    int64_t request_id = 0;
    std::vector<EtId> ets;  // empty = no request in flight
    int64_t epoch = 0;
    SimTime first_sent_at = 0;  // start of the round trip (retries keep it)
    SimTime sent_at = 0;        // last (re)send of the request
  };

  void HandleMessage(SiteId from, Message msg);
  /// Raises `from`'s known watermark (never lowers it).
  void HandleWatermark(SiteId from, SequenceNumber watermark);
  void HandleSeqRequest(SiteId from, const msg::SeqBatchRequest& req);
  void HandleSeqGrant(const msg::SeqBatchGrant& grant);
  void HandleSeqProbeRequest(SiteId from, const msg::SeqProbeRequest& probe);
  void HandleSeqProbeResponse(const msg::SeqProbeResponse& resp);
  void HandleEpochAnnounce(SiteId from, const msg::SeqEpochAnnounce& ann);
  void HandleCatchupReq(SiteId from, SequenceNumber after);
  void HandleCatchupResp(std::string_view payload);
  void HandlePosProbeReq(SiteId from, SequenceNumber pos);
  void HandlePosProbeResp(SiteId from, std::string_view payload);
  /// Begins (or continues) healing one orphaned total-order position.
  void StartHealing(SequenceNumber pos);
  /// Every site denied holding `pos`: fill it with a no-op MSet.
  void FillHole(SequenceNumber pos);

  /// Inserts into the order buffer and drains every contiguous MSet.
  void Admit(const core::Mset& mset, bool durable);
  void ApplyInOrder(const core::Mset& mset);
  /// Recomputes the stable floor and completes local ETs at or below it.
  void AdvanceStable();
  /// Sends the watermark alone to each owed peer, unless a local request
  /// is pending: its MSet will soon carry the watermark to every peer.
  void FlushWatermark();
  void BroadcastWatermark();
  /// Requests positions for the queued ETs unless a request is in flight.
  void RequestQueued();
  void SendRequest();
  void RetryTick();
  void SendCatchupRequest();
  void FinishSequencerProbe();
  void SendTo(SiteId to, int type, std::string payload, EtId et);
  void Broadcast(int type, const std::string& payload, EtId et);
  /// Broadcasts `msets` as one message per peer, current watermark prefixed.
  void BroadcastMsets(const std::vector<const core::Mset*>& msets);
  SequenceNumber MaxOrderSeen() const;
  void ReplayWal();

  OrdupNodeConfig config_;
  Transport* transport_;
  Clock* clock_;
  recovery::Wal* wal_;
  obs::MetricRegistry* metrics_;

  store::MvStore store_;
  int64_t lamport_ = 0;
  int64_t submit_counter_ = 0;

  /// Total order state: contiguously applied prefix + holdback for gaps.
  SequenceNumber applied_watermark_ = 0;
  std::map<SequenceNumber, core::Mset> holdback_;
  SimTime gap_since_ = -1;  // first moment the current gap was observed
  /// Applied MSets by position, the catch-up/backfill source. Unbounded,
  /// even below the stable floor: a peer's WAL group-commits, so it can
  /// report watermark p, crash, and come back without p in its log. Its
  /// catch-up then needs history at or below the floor until a durable
  /// floor plus snapshot transfer exist.
  std::map<SequenceNumber, core::Mset> history_;
  /// Highest watermark heard from each site ([self] unused); only rises.
  std::vector<SequenceNumber> peer_wm_;
  SequenceNumber stable_floor_ = 0;
  /// Peers whose MSets this site applied since they last heard its
  /// watermark: the ones waiting on it to call their own ETs stable.
  std::vector<bool> wm_owed_;
  /// Highest total-order position this site has observed anywhere (applied,
  /// buffered, or granted) — the probe answer during a sequencer takeover.
  SequenceNumber max_grant_seen_ = 0;
  SiteId catchup_rr_ = 0;  // round-robin cursor for backfill targets

  /// Locally-originated ETs in flight, and the granted ones by position.
  std::unordered_map<EtId, LocalEt> outstanding_;
  std::map<SequenceNumber, EtId> local_by_pos_;

  /// Sequencer client state: the request in flight, and the ETs submitted
  /// since it left (in submit order), which the next request asks for.
  PendingSeq pending_seq_;
  std::vector<EtId> unrequested_;
  int64_t next_request_id_ = 1;
  int64_t seq_epoch_ = 1;
  SiteId seq_home_ = 0;

  /// Sequencer server state (self == sequencer_site only).
  bool seq_server_active_ = false;
  bool seq_sealed_ = false;
  SequenceNumber seq_next_ = 1;
  /// (site, request id) -> granted block (first position, count); retry
  /// dedup, one entry per request.
  std::map<std::pair<SiteId, int64_t>, std::pair<SequenceNumber, int32_t>>
      granted_;
  /// Latest incarnation each client has spoken with; a jump marks a
  /// restart and triggers healing of the prior life's unfilled grants.
  std::map<SiteId, int64_t> last_incarnation_;
  /// Granted positions not yet observed admitted: position -> (site,
  /// incarnation). Erased the moment any MSet at that position is seen.
  std::map<SequenceNumber, std::pair<SiteId, int64_t>> unfilled_grants_;
  /// In-flight hole probes: position -> peers that have not answered.
  std::map<SequenceNumber, std::unordered_set<SiteId>> healing_;
  /// Probe-based re-seed after a restart.
  bool probing_ = false;
  int64_t probe_id_ = 0;
  std::unordered_set<SiteId> awaiting_probe_;
  SequenceNumber probe_floor_ = 0;
  int64_t probe_epoch_ = 0;
  TimerId probe_timer_ = 0;

  TimerId retry_timer_ = 0;
  bool running_ = false;

  int64_t applied_count_ = 0;
  int64_t submitted_count_ = 0;

  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_applied_ = nullptr;
  obs::Counter* m_stable_ = nullptr;
  obs::Counter* m_retransmits_ = nullptr;
  obs::Counter* m_duplicates_ = nullptr;
  obs::Histogram* m_commit_stable_us_ = nullptr;
  obs::Histogram* m_submit_commit_us_ = nullptr;
  obs::Counter* m_seq_batches_ = nullptr;
  obs::Histogram* m_seq_batch_size_ = nullptr;
  obs::Histogram* m_seq_rtt_us_ = nullptr;
};

}  // namespace esr::runtime

#endif  // ESR_RUNTIME_ORDUP_NODE_H_
