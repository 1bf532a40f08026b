// Replicator: per-replica actor of one replica group.
//
// Each DataSourceNode owning a Replicator is a member of a replica group.
// The leader ships WAL entries (prepare / commit / abort, with write sets)
// to the followers and reports prepare/commit durability to the middleware
// only after a quorum of the group holds the entry. Followers apply
// committed write sets to their local store (giving stale-bounded follower
// reads), detect leader failure via heartbeat loss, and elect a new leader
// deterministically (longest log wins, election timeouts staggered by
// replica ordinal). A promoted leader installs quorum-staged prepared
// branches into its engine as in-doubt XA branches, re-votes them to their
// coordinating middleware, and announces the new epoch to the middlewares,
// which re-route and retry in-flight branches.
#ifndef GEOTP_REPLICATION_REPLICATOR_H_
#define GEOTP_REPLICATION_REPLICATOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "protocol/messages.h"
#include "replication/election.h"
#include "replication/log_shipper.h"
#include "runtime/runtime.h"
#include "replication/replication_config.h"
#include "sim/event_loop.h"

namespace geotp {
namespace datasource {
class DataSourceNode;
}  // namespace datasource

namespace replication {

struct ReplicatorStats {
  uint64_t appends_received = 0;
  uint64_t entries_applied = 0;
  uint64_t promotions = 0;
  uint64_t prepared_installs = 0;
  uint64_t revotes_sent = 0;
  uint64_t follower_reads_served = 0;
  uint64_t follower_reads_rejected = 0;
  uint64_t not_leader_rejections = 0;
  uint64_t log_entries_truncated = 0;  ///< compacted-away prefix entries
  uint64_t snapshot_installs = 0;  ///< bootstrap snapshots applied
  uint64_t migration_records_appended = 0;  ///< Begin/Cutover/End journaled
  uint64_t migration_handoffs = 0;  ///< unresolved migrations at promotion
  // Incremental follower re-seed (hash offer/decline instead of one
  // monolithic store snapshot) + its WAN accounting.
  uint64_t bootstrap_offers_sent = 0;
  uint64_t bootstrap_chunks_declined = 0;  ///< chunks the follower held
  uint64_t bootstrap_chunks_sent = 0;
  uint64_t wan_bytes_raw = 0;   ///< packed bootstrap-chunk bytes pre-codec
  uint64_t wan_bytes_wire = 0;  ///< bytes actually shipped
};

class Replicator {
 public:
  using QuorumCallback = std::function<void()>;

  Replicator(datasource::DataSourceNode* node, GroupConfig group);

  /// Arms timers for the initial role: the member whose id equals the
  /// group's logical id starts as epoch-0 leader, the rest as followers.
  void Start();

  NodeId group_id() const { return group_.logical; }
  Role role() const { return election_.role(); }
  bool IsLeader() const { return election_.role() == Role::kLeader; }
  uint64_t epoch() const { return election_.epoch(); }
  NodeId leader_hint() const { return election_.leader(); }

  /// Promotion barrier. A freshly promoted leader may have inherited
  /// commit/abort entries past its watermark (appended by the deposed
  /// leader, quorum unknown); they apply only once re-acked under the new
  /// term. Until then the store is behind the log, and serving a new
  /// branch would let it read — and its raw entry-apply later clobber —
  /// pre-failover values under a live lock (a lost-update the shard chaos
  /// harness caught). The data source parks client-facing work while this
  /// is false; it clears within one follower round trip.
  bool ReadyToServe() const {
    return !IsLeader() || promotion_applies_pending_ == 0;
  }

  const ReplicationLog& log() const { return log_; }
  uint64_t applied_index() const { return applied_index_; }
  uint64_t commit_watermark() const {
    return IsLeader() ? shipper_.commit_watermark() : follower_watermark_;
  }
  /// Follower data staleness: virtual time since this replica last knew it
  /// had applied everything the leader had committed. 0 on the leader.
  Micros Staleness() const;

  const ReplicatorStats& stats() const { return stats_; }
  const ElectionStats& election_stats() const { return election_.stats(); }
  const LogShipperStats& shipper_stats() const { return shipper_.stats(); }

  // ----- leader-side durability hooks (called by the data source) ---------

  /// Appends a prepare entry carrying the branch write set; `on_quorum`
  /// fires once it is durable on a quorum (the vote may then be reported).
  /// Deduplicates: a second call for the same transaction just waits.
  void ReplicatePrepare(const Xid& xid,
                        std::vector<protocol::ReplWrite> writes,
                        NodeId coordinator, QuorumCallback on_quorum);

  /// Appends a commit entry carrying the final write set; `on_quorum`
  /// fires once durable, after any internally registered apply callbacks.
  void ReplicateCommit(const Xid& xid,
                       std::vector<protocol::ReplWrite> writes,
                       QuorumCallback on_quorum);

  /// Destination-side migration ingest: a commit entry tagged with the
  /// stream position it covers (chunk or delta seq) and the chunk's
  /// content hash, so the chunk ack the migrator sends on quorum is
  /// journaled in the group log — and a promoted destination leader can
  /// later decline exactly those chunks when the source re-offers them.
  void ReplicateIngest(const Xid& xid,
                       std::vector<protocol::ReplWrite> writes,
                       uint64_t migration_id, uint64_t chunk_seq,
                       uint64_t delta_seq, uint64_t content_hash,
                       QuorumCallback on_quorum);

  /// Source-side migration control records (Begin / Cutover / End).
  /// Epoch-fenced like prepares: unresolved records (Begin without End)
  /// pin log compaction and are handed to the ShardMigrator on promotion,
  /// so a failover mid-migration resumes or aborts deterministically from
  /// the log. `on_quorum` fires once the record is quorum-durable.
  void ReplicateMigrationRecord(protocol::ReplEntryType type,
                                const protocol::MigrationRecord& record,
                                QuorumCallback on_quorum);

  /// One inherited, unresolved migration at promotion time.
  struct InheritedMigration {
    protocol::MigrationRecord record;
    bool cutover_logged = false;
  };

  /// True while a MigrationBegin for `migration_id` has no MigrationEnd.
  /// The migrator consults this when resolving a migration, so an End is
  /// journaled even when the cancel raced the Begin's quorum round trip
  /// (an unresolved record pins log compaction forever otherwise).
  bool HasUnresolvedMigration(uint64_t migration_id) const {
    return unresolved_migrations_.count(migration_id) > 0;
  }

  /// Appends an abort entry iff an unresolved prepare entry exists for the
  /// transaction (followers must unstage it). Fire-and-forget.
  void ReplicateAbortIfPrepared(TxnId txn);

  /// Index of the commit entry for `txn`, if one was ever appended — used
  /// to answer duplicate commit decisions idempotently after failover.
  std::optional<uint64_t> CommitEntryIndex(TxnId txn) const;
  void AwaitQuorum(uint64_t index, QuorumCallback on_quorum) {
    shipper_.AwaitQuorum(index, std::move(on_quorum));
  }

  // ----- lifecycle --------------------------------------------------------

  /// Consumes replication traffic. Returns false for unrelated messages.
  bool HandleMessage(sim::MessageBase* msg);

  /// Crash: timers stop, volatile shipping state drops; the log (a WAL)
  /// and applied store survive, mirroring the engine's crash semantics.
  void OnCrash();

  /// Restart: rejoins as a follower and re-verifies its log against the
  /// current leader before anything is applied again.
  void OnRestart();

  /// Simulates total loss of the replicated log (disk gone). The replica
  /// restarts empty; if the leader compacted past its death point, it is
  /// re-seeded through the snapshot-install path. Call while crashed,
  /// before OnRestart().
  void WipeForBootstrap();

 private:
  void OnAppend(const protocol::ReplAppendRequest& req);
  void OnAppendAck(const protocol::ReplAppendAck& ack);
  void OnVoteRequest(const protocol::ReplVoteRequest& req);
  void OnVoteResponse(const protocol::ReplVoteResponse& resp);
  void OnFollowerRead(const protocol::FollowerReadRequest& req);
  /// Leader side: re-seeds a follower whose next entry was compacted
  /// away. Instead of one monolithic store snapshot it sends a
  /// ShardSeedOffer — the chunked content hashes of the committed store —
  /// and ships only the chunks the follower does not decline. Throttled:
  /// the shipper re-fires this every heartbeat while the follower lags,
  /// but a fresh offer goes out at most every two heartbeats (each
  /// re-offer is idempotent and picks up partially applied chunks as new
  /// declines, so interrupted re-seeds resume incrementally for free).
  void SendBootstrapSnapshot(NodeId follower);
  /// Follower side: installs the chunks of the offered bootstrap stream
  /// (migration_id == 0, seq numbered from 1); anything else is stale.
  void OnBootstrapSnapshot(const protocol::ShardSnapshotChunk& chunk);
  /// Follower side: hashes its own store spans against the offer and
  /// declines every chunk it already holds byte-identically.
  void OnSeedOffer(const protocol::ShardSeedOffer& offer);
  /// Leader side: ships the chunks the follower did not decline.
  void OnSeedDecline(const protocol::ShardSeedDecline& decline);
  /// Follower side: every expected chunk arrived — position the log at
  /// the snapshot boundary and ack.
  void FinishBootstrapInstall();
  /// Codecs this replica decodes, as advertised on acks/declines (raw
  /// only when the node's wan_compression knob is off).
  uint32_t LocalCodecMask() const;

  /// Epoch of the last log entry (0 for an empty log) — the first half of
  /// the (epoch, index) log-position pair elections compare.
  uint64_t LastLogEpoch() const;
  /// Group members other than this replica.
  std::vector<NodeId> Followers() const;
  /// Folds the shipper's quorum progress into the follower-side state and
  /// deactivates it (deposition and crash share this).
  void RetireLeadership();

  void ArmElectionTimer(Micros delay);
  void OnElectionCheck();
  void StartElection();
  void ArmHeartbeatTimer();
  void BecomeLeader();
  /// Runs once every inherited past-watermark entry has applied (or
  /// immediately when there were none): installs staged prepares,
  /// announces leadership, and lets the data source drain parked work.
  void FinishPromotion();
  /// Recreates quorum-staged prepared branches as in-doubt XA branches in
  /// the engine and re-votes them to their coordinators.
  void InstallStagedPrepares();
  void AnnounceLeadership();

  /// Applies committed entries up to `target` (follower path).
  void ApplyCommitted(uint64_t target);
  void ApplyEntry(const protocol::ReplEntry& entry);
  /// Appends one entry and maintains the prepare/commit tracking maps.
  void AppendTracked(const protocol::ReplEntry& entry);
  /// Maintains unresolved_migrations_ for one migration record.
  void TrackMigrationRecord(protocol::ReplEntryType type,
                            uint64_t migration_id, uint64_t index);
  /// Removes log entries >= `from` plus their tracking state.
  void TruncateFrom(uint64_t from);
  /// Compacts the log prefix every group member has applied (bounded by
  /// unresolved prepares, which a promotion still needs to install).
  void MaybeTruncateLog();
  /// After any possible role change: retires leader-only machinery and
  /// keeps the election timer armed for non-leaders.
  void SyncRoleState();

  runtime::ITimer* loop() const;
  runtime::ITransport* network() const;
  NodeId self() const;

  datasource::DataSourceNode* node_;
  GroupConfig group_;
  int ordinal_ = 0;  ///< position in group_.replicas
  ElectionState election_;
  ReplicationLog log_;
  LogShipper shipper_;

  // Follower-side state.
  /// Prefix of the log verified to match the current leader's log.
  uint64_t consistent_prefix_ = 0;
  uint64_t follower_watermark_ = 0;
  uint64_t applied_index_ = 0;
  /// Leader-announced compaction bound (its min follower match index): a
  /// follower must retain everything above it so that, if promoted, it
  /// can still re-ship the tail to the laggiest peer (no snapshots yet).
  uint64_t compact_floor_ = 0;
  Micros last_leader_contact_ = 0;
  Micros fresh_as_of_ = -1;  ///< -1: never caught up

  /// Prepare entries without a later commit/abort entry (txn -> index).
  /// On promotion these become in-doubt engine branches.
  std::unordered_map<TxnId, uint64_t> unresolved_prepares_;
  /// Migration control records without a MigrationEnd (id -> state). On
  /// promotion these are handed to the ShardMigrator to resume (Cutover
  /// logged) or abort (Begin only).
  struct MigrationTrack {
    uint64_t begin_index = 0;
    uint64_t cutover_index = 0;  ///< 0 until a Cutover record lands
  };
  std::unordered_map<uint64_t, MigrationTrack> unresolved_migrations_;
  /// Commit entry per transaction (for idempotent decision retries).
  std::unordered_map<TxnId, uint64_t> commit_entries_;

  // ----- incremental bootstrap re-seed state -----
  /// Leader side, per lagging follower: the offer currently outstanding.
  /// Kept until overwritten (offers are cheap); cleared with leadership.
  struct BootstrapStream {
    uint64_t base_index = 0;
    uint64_t base_epoch = 0;
    Micros offered_at = 0;  ///< re-offer throttle (2x heartbeat)
    std::vector<protocol::SeedDigest> digests;
  };
  std::unordered_map<NodeId, BootstrapStream> bootstrap_streams_;
  /// Follower side: the install in progress (volatile — a crash mid-seed
  /// keeps the partially applied store, and the next offer turns that
  /// progress into declines).
  struct PendingBootstrap {
    uint64_t base_index = 0;
    uint64_t base_epoch = 0;
    std::set<uint64_t> missing;  ///< chunk seqs not declined, not yet here
  };
  std::optional<PendingBootstrap> pending_bootstrap_;

  sim::EventId election_timer_ = sim::kInvalidEvent;
  sim::EventId heartbeat_timer_ = sim::kInvalidEvent;
  /// Inherited entries not yet re-quorum'd + applied (promotion barrier).
  uint64_t promotion_applies_pending_ = 0;
  /// "repl.promotion" system span (BecomeLeader -> barrier cleared).
  obs::SpanHandle promotion_span_ = obs::kInvalidSpan;
  ReplicatorStats stats_;
};

}  // namespace replication
}  // namespace geotp

#endif  // GEOTP_REPLICATION_REPLICATOR_H_
