// Wire messages exchanged between clients, middlewares, geo-agents and
// data sources. Every message derives from runtime::Message<tag>, so either
// runtime can deliver it, and lists its wire fields once in a Fields()
// member (common/wire.h); the loopback codec and the WAN packing are both
// derived from that list.
//
// Naming follows the paper's Algorithm 1: data sources answer the implicit
// prepare with votes (PREPARED / FAILURE / IDLE / ROLLBACK_ONLY /
// ROLLBACKED); the DM dispatches a Decision (commit or abort).
#ifndef GEOTP_PROTOCOL_MESSAGES_H_
#define GEOTP_PROTOCOL_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "runtime/message.h"
#include "sharding/shard_map.h"
#include "sim/network.h"

namespace geotp {
namespace protocol {

using runtime::Message;
using runtime::MessageType;

/// One record operation as submitted by a client (already parsed /
/// partition-routed form; the SQL path in src/sql produces these).
struct ClientOp {
  RecordKey key;
  bool is_write = false;
  int64_t value = 0;     ///< write literal or delta
  bool is_delta = false; ///< UPDATE ... SET val = val + value
  template <typename V>
  void Fields(V&& v) {
    v(key, is_write, value, is_delta);
  }
};

// ---------------------------------------------------------------------------
// Client <-> middleware
// ---------------------------------------------------------------------------

/// One interactive round of a transaction. The first round opens the
/// transaction; `last_round` carries the last-statement annotation that
/// lets GeoTP trigger the decentralized prepare (paper §IV-A).
struct ClientRoundRequest : Message<MessageType::kClientRoundRequest> {
  uint64_t client_tag = 0;  ///< client-side correlation handle
  TxnId txn_id = kInvalidTxn;  ///< 0 on the first round; DM assigns
  /// Tenant the transaction belongs to. The DM's admission controller
  /// meters new admissions per tenant (weighted fair shares of the
  /// in-flight budget); continuation rounds are never metered.
  uint32_t tenant = 0;
  std::vector<ClientOp> ops;
  bool last_round = false;
  template <typename V>
  void Fields(V&& v) {
    v(client_tag, txn_id, tenant, ops, last_round);
  }
};

struct ClientRoundResponse : Message<MessageType::kClientRoundResponse> {
  uint64_t client_tag = 0;
  TxnId txn_id = kInvalidTxn;
  Status status;
  std::vector<int64_t> values;  ///< read results, in op order
  template <typename V>
  void Fields(V&& v) {
    v(client_tag, txn_id, status, values);
  }
};

/// COMMIT (or ROLLBACK) submitted by the client.
struct ClientFinishRequest : Message<MessageType::kClientFinishRequest> {
  uint64_t client_tag = 0;
  TxnId txn_id = kInvalidTxn;
  bool commit = true;
  template <typename V> void Fields(V&& v) { v(client_tag, txn_id, commit); }
};

/// Final transaction outcome to the client.
struct ClientTxnResult : Message<MessageType::kClientTxnResult> {
  uint64_t client_tag = 0;
  TxnId txn_id = kInvalidTxn;
  Status status;
  template <typename V> void Fields(V&& v) { v(client_tag, txn_id, status); }
};

/// Shed reply: the DM refused to admit a NEW transaction (in-flight
/// budget, tenant share, or downstream queue pressure). Nothing was
/// executed — the client may retry after backing off at least
/// `retry_after_hint`. Only ever sent before a TxnId is assigned;
/// admitted transactions always finish with ClientTxnResult.
struct OverloadedResponse : Message<MessageType::kOverloadedResponse> {
  uint64_t client_tag = 0;
  uint32_t tenant = 0;  ///< echo of the request's tenant
  /// Suggested minimum backoff before retrying; grows while the DM keeps
  /// shedding so persistent overload pushes clients further out.
  Micros retry_after_hint = 0;
  template <typename V>
  void Fields(V&& v) {
    v(client_tag, tenant, retry_after_hint);
  }
};

// ---------------------------------------------------------------------------
// Middleware <-> data source (geo-agent)
// ---------------------------------------------------------------------------

/// Executes a batch of operations of one subtransaction branch.
struct BranchExecuteRequest : Message<MessageType::kBranchExecuteRequest> {
  Xid xid;
  uint64_t round_seq = 0;
  bool begin_branch = false;      ///< first batch for this branch
  std::vector<ClientOp> ops;      ///< executed sequentially at the source
  /// Last statement of this branch (annotation): the geo-agent initiates
  /// the decentralized prepare when the batch completes.
  bool last_statement = false;
  /// Peer data sources of the transaction (for early abort and for the
  /// centralized/distributed distinction in Algorithm 1).
  std::vector<NodeId> peers;
  /// Middleware to send the implicit-prepare vote to.
  NodeId coordinator = kInvalidNode;
  template <typename V>
  void Fields(V&& v) {
    v(xid, round_seq, begin_branch, ops, last_statement, peers, coordinator);
  }
};

struct BranchExecuteResponse : Message<MessageType::kBranchExecuteResponse> {
  Xid xid;
  uint64_t round_seq = 0;
  Status status;
  std::vector<int64_t> values;
  /// Local execution latency measured at the source (request arrival to
  /// batch completion) — feeds the hotspot footprint (Eq. 4).
  Micros local_exec_latency = 0;
  /// True if the branch already rolled back locally (failure path).
  bool rolled_back = false;
  template <typename V>
  void Fields(V&& v) {
    v(xid, round_seq, status, values, local_exec_latency, rolled_back);
  }
};

/// Explicit prepare request (classic 2PC path, and the "notify sources not
/// processing the last statement" case of §III).
struct PrepareRequest : Message<MessageType::kPrepareRequest> {
  Xid xid;
  template <typename V> void Fields(V&& v) { v(xid); }
};

/// Vote values, per Algorithm 1.
enum class Vote : uint8_t {
  kPrepared,      ///< branch prepared, ready to commit
  kIdle,          ///< branch ended but not prepared (centralized fast path)
  kFailure,       ///< prepare failed; branch rolled back
  kRollbackOnly,  ///< end failed; branch rolled back
  kRollbacked,    ///< branch rolled back (early abort / abort ack)
};
constexpr Vote WireMax(Vote) { return Vote::kRollbacked; }

const char* VoteName(Vote vote);

struct VoteMessage : Message<MessageType::kVoteMessage> {
  Xid xid;
  Vote vote = Vote::kPrepared;
  template <typename V> void Fields(V&& v) { v(xid, vote); }
};

/// Several explicit prepares bound for one data source, coalesced by the
/// DM's dispatch queue when they go out in the same event-loop tick (group
/// commit at the DM releases many decisions/prepares at once).
struct PrepareBatch : Message<MessageType::kPrepareBatch> {
  std::vector<Xid> xids;
  template <typename V> void Fields(V&& v) { v(xids); }
};

/// Final decision from the DM. `one_phase` commits an un-prepared branch
/// directly (XA COMMIT ... ONE PHASE; centralized transactions).
struct DecisionRequest : Message<MessageType::kDecisionRequest> {
  Xid xid;
  bool commit = true;
  bool one_phase = false;
  template <typename V> void Fields(V&& v) { v(xid, commit, one_phase); }
};

struct DecisionAck : Message<MessageType::kDecisionAck> {
  Xid xid;
  bool committed = false;
  /// Echo of the request's one_phase flag: a failed one-phase commit is a
  /// clean abort (the branch was never prepared anywhere); a failed
  /// two-phase commit of a prepared branch would be an atomicity bug.
  bool one_phase = false;
  Status status;
  template <typename V>
  void Fields(V&& v) {
    v(xid, committed, one_phase, status);
  }
};

/// One decision of a DecisionBatch.
struct DecisionItem {
  Xid xid;
  bool commit = true;
  bool one_phase = false;
  template <typename V> void Fields(V&& v) { v(xid, commit, one_phase); }
};

/// Several decisions bound for one data source, coalesced like
/// PrepareBatch. The source processes items in order and acks each one
/// individually (acks carry per-transaction status).
struct DecisionBatch : Message<MessageType::kDecisionBatch> {
  std::vector<DecisionItem> items;
  template <typename V> void Fields(V&& v) { v(items); }
};

// ---------------------------------------------------------------------------
// Geo-agent <-> geo-agent (early abort, §IV-A)
// ---------------------------------------------------------------------------

/// Proactive peer-abort notification, sent data-source to data-source
/// without DM coordination.
struct PeerAbortRequest : Message<MessageType::kPeerAbortRequest> {
  TxnId txn_id = kInvalidTxn;
  NodeId origin = kInvalidNode;  ///< the data source where the failure hit
  template <typename V> void Fields(V&& v) { v(txn_id, origin); }
};

// ---------------------------------------------------------------------------
// Replication (leader-follower WAL shipping, src/replication)
// ---------------------------------------------------------------------------

/// What a replicated log entry records. Prepare entries stage a branch's
/// write set for failover; commit entries carry the write set that followers
/// apply; abort entries discard a staged prepare. Migration entries journal
/// shard-migration control state (no store effect): Begin opens an outbound
/// migration at the source group, Cutover seals it (the range is fenced and
/// fully transferred), End resolves it (published, cancelled, or aborted).
/// A promoted leader inherits every Begin without an End and deterministically
/// resumes (Cutover present) or aborts (Begin only) the migration — the
/// control state is epoch-fenced exactly like staged prepares.
enum class ReplEntryType : uint8_t {
  kPrepare,
  kCommit,
  kAbort,
  kMigrationBegin,
  kMigrationCutover,
  kMigrationEnd,
};
constexpr ReplEntryType WireMax(ReplEntryType) {
  return ReplEntryType::kMigrationEnd;
}

const char* ReplEntryTypeName(ReplEntryType type);

/// Control payload of the kMigration* entry types: everything a promoted
/// source leader needs to re-fence / re-report / abort the migration
/// without any volatile state from the deposed leader.
struct MigrationRecord {
  uint64_t migration_id = 0;
  sharding::ShardRange range;          ///< owner = source (pre-cutover)
  NodeId dest = kInvalidNode;          ///< destination logical group
  NodeId dest_leader = kInvalidNode;   ///< dest leader at planning time
  uint64_t new_version = 0;            ///< map version the cutover publishes
  NodeId balancer = kInvalidNode;      ///< where cutover/abort reports go
  Micros timeout = 0;                  ///< balancer cancellation window
  /// Cutover records: the delta sequence to resume from. Every delta was
  /// acked when the cutover was journaled, so a promoted leader continues
  /// numbering here for drain commits of installed prepared branches.
  uint64_t delta_next_seq = 1;
  template <typename V>
  void Fields(V&& v) {
    v(migration_id, range, dest, dest_leader, new_version, balancer, timeout,
      delta_next_seq);
  }
};

/// One write of a replicated branch, as an absolute value (deltas are
/// resolved at the leader, so application on followers is idempotent).
struct ReplWrite {
  RecordKey key;
  int64_t value = 0;
  template <typename V> void Fields(V&& v) { v(key, value); }
};

/// One entry of a replica group's shipped WAL.
struct ReplEntry {
  uint64_t index = 0;  ///< 1-based position in the group log
  uint64_t epoch = 0;  ///< leadership epoch that appended the entry
  ReplEntryType type = ReplEntryType::kCommit;
  Xid xid;  ///< xid.data_source is the group's logical node id
  /// Middleware coordinating the transaction — a promoted leader re-votes
  /// staged prepares to it after failover.
  NodeId coordinator = kInvalidNode;
  std::vector<ReplWrite> writes;
  Micros at = 0;  ///< leader virtual time at append
  /// Migration control payload — set on kMigration* entries only, shared
  /// (immutable) so the rare control records don't inflate every commit
  /// entry in the replicated log.
  std::shared_ptr<const MigrationRecord> migration;
  /// Destination-side chunk-ack journaling: a commit entry that installs a
  /// migration ingest (snapshot chunk or delta batch) is tagged with the
  /// migration id and the stream position it covers, so the group log
  /// records exactly which ack each quorum backed. Followers fold the tags
  /// into a per-migration ingest journal (ShardMigrator::NoteIngestApplied)
  /// — that journal is what a promoted destination leader declines from
  /// when the source re-offers the stream (ShardSeedOffer), replacing the
  /// balancer's timeout-cancel with resume-by-hash. 0 = not a migration
  /// ingest.
  uint64_t ingest_migration_id = 0;
  uint64_t ingest_chunk_seq = 0;  ///< snapshot chunk seq (0 for deltas)
  uint64_t ingest_delta_seq = 0;  ///< delta batch seq (0 for chunks)
  /// Content hash of the chunk's packed records (common::ContentHash64 of
  /// the uncompressed wire payload) — the identity the decline handshake
  /// compares against the source's re-offer. 0 for deltas.
  uint64_t ingest_content_hash = 0;
  // Wire order is the packed WAN layout (protocol::PackEntries), which puts
  // `at` before `writes`; WanCodec.GoldenPackedLayout pins it.
  template <typename V>
  void Fields(V&& v) {
    v(index, epoch, type, xid, coordinator, at, writes, migration,
      ingest_migration_id, ingest_chunk_seq, ingest_delta_seq,
      ingest_content_hash);
  }
};

/// Leader -> follower log shipping. Empty `entries` is a heartbeat; both
/// carry the quorum commit watermark so followers can apply.
struct ReplAppendRequest : Message<MessageType::kReplAppendRequest> {
  NodeId group = kInvalidNode;  ///< logical data source id
  uint64_t epoch = 0;
  /// Index of the entry immediately before `entries` (0 = log start).
  uint64_t prev_index = 0;
  /// Epoch of the entry at prev_index (0 at log start): the follower
  /// accepts only if its own log matches, so divergent tails from deposed
  /// leaders are detected and truncated.
  uint64_t prev_epoch = 0;
  std::vector<ReplEntry> entries;
  uint64_t commit_watermark = 0;
  /// Highest index every group member is known to hold (leader's min match
  /// bounded by the watermark): followers may compact their log prefix up
  /// to here and no further, so any future leader can still re-ship the
  /// retained tail to a lagging peer.
  uint64_t compact_floor = 0;
  // ---- WAN envelope (src/common/compress.h) ----
  // When `payload` is non-empty it replaces `entries` on the wire: the
  // batch is packed (protocol::PackEntries), optionally compressed under
  // `payload_codec`, and verified end-to-end against `payload_hash` (the
  // FNV hash of the UNCOMPRESSED packed bytes) before the receiver unpacks
  // it back into `entries`. A frame failing the check is dropped whole —
  // the follower's nack/retransmit path recovers, nothing half-applies.
  // The leader only builds an envelope once the follower's ack advertised
  // a codec (mixed-version actors keep receiving plain `entries`).
  uint8_t payload_codec = 0;  ///< common::WireCodec
  uint32_t payload_uncompressed_len = 0;
  uint64_t payload_hash = 0;
  std::string payload;
  template <typename V>
  void Fields(V&& v) {
    v(group, epoch, prev_index, prev_epoch, entries, commit_watermark,
      compact_floor, payload_codec, payload_uncompressed_len, payload_hash,
      payload);
  }
};

struct ReplAppendAck : Message<MessageType::kReplAppendAck> {
  NodeId group = kInvalidNode;
  uint64_t epoch = 0;  ///< follower's current epoch (leader steps down if newer)
  /// Highest log index the follower holds after processing the append.
  uint64_t ack_index = 0;
  bool ok = true;  ///< false: log gap — leader rewinds to ack_index + 1
  /// Codecs this follower can decode (common::SupportedCodecMask, gated by
  /// its wan_compression knob). 0 — the default a pre-negotiation actor
  /// sends — keeps the leader shipping plain entries.
  uint32_t codec_mask = 0;
  template <typename V>
  void Fields(V&& v) {
    v(group, epoch, ack_index, ok, codec_mask);
  }
};

/// Candidate -> replica during leader election.
struct ReplVoteRequest : Message<MessageType::kReplVoteRequest> {
  NodeId group = kInvalidNode;
  uint64_t epoch = 0;  ///< candidate's proposed (incremented) epoch
  /// (epoch of last log entry, log length): voters compare these
  /// lexicographically, Raft-style, so a stale tail cannot outrank
  /// quorum-committed entries from a newer epoch.
  uint64_t last_log_epoch = 0;
  uint64_t last_log_index = 0;
  template <typename V>
  void Fields(V&& v) {
    v(group, epoch, last_log_epoch, last_log_index);
  }
};

struct ReplVoteResponse : Message<MessageType::kReplVoteResponse> {
  NodeId group = kInvalidNode;
  uint64_t epoch = 0;
  bool granted = false;
  uint64_t voter_last_index = 0;
  template <typename V>
  void Fields(V&& v) {
    v(group, epoch, granted, voter_last_index);
  }
};

/// Broadcast by a freshly elected leader to the middlewares so they update
/// routing and retry in-flight branches.
struct LeaderAnnounce : Message<MessageType::kLeaderAnnounce> {
  NodeId group = kInvalidNode;
  uint64_t epoch = 0;
  NodeId leader = kInvalidNode;
  template <typename V> void Fields(V&& v) { v(group, epoch, leader); }
};

/// Sent by a replica that received coordinator traffic while not being the
/// group's leader (stale middleware routing).
struct NotLeaderResponse : Message<MessageType::kNotLeaderResponse> {
  NodeId group = kInvalidNode;
  uint64_t epoch = 0;
  NodeId leader_hint = kInvalidNode;  ///< kInvalidNode while electing
  template <typename V> void Fields(V&& v) { v(group, epoch, leader_hint); }
};

/// Stale-bounded read of committed data served by a follower, used for
/// read-only branches when the middleware enables follower reads.
struct FollowerReadRequest : Message<MessageType::kFollowerReadRequest> {
  NodeId group = kInvalidNode;
  TxnId txn_id = kInvalidTxn;
  uint64_t round_seq = 0;
  std::vector<RecordKey> keys;
  Micros max_staleness = 0;
  template <typename V>
  void Fields(V&& v) {
    v(group, txn_id, round_seq, keys, max_staleness);
  }
};

struct FollowerReadResponse : Message<MessageType::kFollowerReadResponse> {
  NodeId group = kInvalidNode;
  TxnId txn_id = kInvalidTxn;
  uint64_t round_seq = 0;
  bool ok = false;  ///< false: staleness bound exceeded — retry at the leader
  Micros staleness = 0;
  std::vector<int64_t> values;
  template <typename V>
  void Fields(V&& v) {
    v(group, txn_id, round_seq, ok, staleness, values);
  }
};

// ---------------------------------------------------------------------------
// Elastic sharding (src/sharding): live shard migration + map publication
// ---------------------------------------------------------------------------

/// Balancer -> source replica-group leader: start migrating `range` to the
/// replica group `dest`. The cutover will publish the range at
/// `new_version`; until then the map is unchanged and the source serves
/// (and, once fenced, drains) the range.
struct ShardMigrateRequest : Message<MessageType::kShardMigrateRequest> {
  uint64_t migration_id = 0;
  sharding::ShardRange range;   ///< owner field = current owner (source)
  NodeId dest = kInvalidNode;   ///< destination logical group
  NodeId dest_leader = kInvalidNode;  ///< balancer's view of dest's leader
  uint64_t new_version = 0;
  /// Balancer-side cancellation timeout; the source self-cancels (and
  /// unfences) after twice this, so a balancer that died mid-migration
  /// cannot wedge the range in the fenced state forever.
  Micros timeout = 0;
  template <typename V>
  void Fields(V&& v) {
    v(migration_id, range, dest, dest_leader, new_version, timeout);
  }
};

/// Balancer -> source leader: abandon a timed-out migration (e.g. the
/// source crashed mid-copy and a promoted leader has no migration state,
/// or the destination never acked). Unfences the range.
struct ShardMigrateCancel : Message<MessageType::kShardMigrateCancel> {
  uint64_t migration_id = 0;
  template <typename V> void Fields(V&& v) { v(migration_id); }
};

/// Bulk record transfer. Two users share this install path:
///  * shard migration (migration_id != 0): source leader -> dest leader,
///    carrying one bounded, sequenced chunk of the moving range's committed
///    records. The stream is windowed by receiver-driven credit (see
///    ShardSnapshotAck): the source may have at most `acked + credit`
///    chunks outstanding, so a slow destination backpressures the source
///    instead of flooding the event loop. `last` marks the final chunk.
///  * replication snapshot bootstrap (migration_id == 0): group leader ->
///    follower whose log was fully compacted away, carrying the leader's
///    full applied store; base_index/base_epoch position the follower's
///    (empty) log at the compaction boundary so shipping resumes from the
///    retained tail.
struct ShardSnapshotChunk : Message<MessageType::kShardSnapshotChunk> {
  uint64_t migration_id = 0;
  NodeId group = kInvalidNode;   ///< dest logical group / repl group id
  sharding::ShardRange range;    ///< moving range (migration only)
  uint64_t seq = 0;              ///< 1-based chunk sequence (migration only)
  bool last = false;             ///< final chunk of the stream
  uint64_t epoch = 0;            ///< leadership epoch (bootstrap only)
  uint64_t base_index = 0;       ///< log index covered through (bootstrap)
  uint64_t base_epoch = 0;       ///< epoch of the entry at base_index
  std::vector<ReplWrite> records;
  // ---- WAN envelope (src/common/compress.h) ----
  // Non-empty `payload` replaces `records` on the wire (packed via
  // protocol::PackWrites, optionally compressed). `content_hash` is always
  // set — even on raw chunks — because beyond integrity it is the chunk's
  // identity in the re-seed handshake: the destination journals it with
  // the ingest (ReplEntry::ingest_content_hash) and declines the chunk
  // when the source re-offers the same hash after a failover.
  uint8_t payload_codec = 0;  ///< common::WireCodec
  uint32_t payload_uncompressed_len = 0;
  uint64_t content_hash = 0;  ///< hash of the packed (uncompressed) records
  std::string payload;
  template <typename V>
  void Fields(V&& v) {
    v(migration_id, group, range, seq, last, epoch, base_index, base_epoch,
      records, payload_codec, payload_uncompressed_len, content_hash, payload);
  }
};

/// Dest leader -> source leader: chunk `seq` (and everything before it) is
/// durably applied (with a replicated destination, quorum-durable). Carries
/// the receiver's flow-control grant: the source may send chunks up to
/// seq + credit. Duplicate chunks re-ack with the current position so a
/// lost ack cannot wedge the stream.
struct ShardSnapshotAck : Message<MessageType::kShardSnapshotAck> {
  uint64_t migration_id = 0;
  uint64_t seq = 0;     ///< highest contiguously applied chunk
  uint64_t credit = 1;  ///< additional chunks the receiver will buffer
  /// Codecs the destination can decode (0 = pre-negotiation actor: the
  /// source keeps shipping plain records).
  uint32_t codec_mask = 0;
  template <typename V>
  void Fields(V&& v) {
    v(migration_id, seq, credit, codec_mask);
  }
};

/// Source leader -> dest leader: writes committed on the moving range
/// after the snapshot cut. Sequenced per migration; the destination
/// applies batches in order (absolute values, so application is
/// idempotent).
struct ShardDeltaBatch : Message<MessageType::kShardDeltaBatch> {
  uint64_t migration_id = 0;
  uint64_t seq = 0;  ///< 1-based batch sequence
  std::vector<ReplWrite> writes;
  template <typename V> void Fields(V&& v) { v(migration_id, seq, writes); }
};

struct ShardDeltaAck : Message<MessageType::kShardDeltaAck> {
  uint64_t migration_id = 0;
  uint64_t seq = 0;  ///< highest contiguously applied batch
  template <typename V> void Fields(V&& v) { v(migration_id, seq); }
};

/// Source leader -> balancer: the range is fenced, every in-flight branch
/// on it drained (or aborted) and every delta acked by the destination —
/// the balancer may publish the new placement.
struct ShardCutoverReady : Message<MessageType::kShardCutoverReady> {
  uint64_t migration_id = 0;
  sharding::ShardRange range;  ///< owner = destination, version = new
  /// True when the source group journaled a MigrationCutover record through
  /// its replicated log (quorum-durable) before this report went out. The
  /// fence then survives a source failover — a promoted leader re-fences
  /// from the log and re-reports — so the balancer may publish even if the
  /// source group's leadership changed since planning. False only for
  /// unreplicated sources, where the stale-epoch compare still gates the
  /// publish.
  bool logged = false;
  template <typename V> void Fields(V&& v) { v(migration_id, range, logged); }
};

/// Source leader -> balancer: a promoted source leader inherited a
/// MigrationBegin record with no Cutover — the stream state died with the
/// deposed leader, so it aborted the migration from the log (journaling a
/// MigrationEnd). The balancer cancels instead of waiting for the timeout.
struct ShardMigrateAborted : Message<MessageType::kShardMigrateAborted> {
  uint64_t migration_id = 0;
  template <typename V> void Fields(V&& v) { v(migration_id); }
};

/// One chunk's identity in an incremental re-seed offer: its stream
/// sequence, the content hash of its packed records, and the key span it
/// covered. Migration re-offers replay the ORIGINAL per-chunk hashes the
/// source retained, so a destination that journaled the ingest declines
/// exactly. Bootstrap offers are built fresh from the leader's store; the
/// key span lets the follower hash its own records over [lo, hi] and
/// decline spans it already holds byte-for-byte.
struct SeedDigest {
  uint64_t seq = 0;   ///< 1-based chunk sequence
  uint64_t hash = 0;  ///< ContentHash64 of the packed records
  RecordKey lo;       ///< first key the chunk covers
  RecordKey hi;       ///< last key the chunk covers
  bool last = false;  ///< final chunk of the stream
  template <typename V> void Fields(V&& v) { v(seq, hash, lo, hi, last); }
};

/// Source -> destination: "this is the chunk stream; decline what you
/// hold". Two users, like ShardSnapshotChunk:
///  * migration resume (migration_id != 0): sent by the source leader when
///    the balancer re-points a mid-stream migration at a freshly promoted
///    destination leader. The digests are the chunks already sent (their
///    original hashes); the new leader declines the prefix its replicated
///    ingest journal confirms and the stream resumes after it — no
///    timeout-cancel, no full re-copy.
///  * follower bootstrap (migration_id == 0): sent by the group leader
///    instead of one monolithic store snapshot. base_index/base_epoch
///    position the follower's log exactly as the old single-chunk path
///    did, once every non-declined chunk has been applied.
struct ShardSeedOffer : Message<MessageType::kShardSeedOffer> {
  uint64_t migration_id = 0;
  NodeId group = kInvalidNode;  ///< dest logical group / repl group id
  sharding::ShardRange range;   ///< moving range (migration only)
  uint64_t epoch = 0;           ///< sender's leadership epoch
  uint64_t base_index = 0;      ///< bootstrap only (see ShardSnapshotChunk)
  uint64_t base_epoch = 0;
  std::vector<SeedDigest> digests;
  template <typename V>
  void Fields(V&& v) {
    v(migration_id, group, range, epoch, base_index, base_epoch, digests);
  }
};

/// Destination -> source: the chunks (by seq) the receiver already holds
/// and therefore declines, plus its resume state. Everything NOT declined
/// is (re)sent. Also the natural carrier of the receiver's codec mask and
/// credit for the resumed stream.
struct ShardSeedDecline : Message<MessageType::kShardSeedDecline> {
  uint64_t migration_id = 0;
  NodeId group = kInvalidNode;
  uint64_t epoch = 0;  ///< receiver's epoch (stale offers die here)
  std::vector<uint64_t> declined;  ///< chunk seqs held, ascending
  /// Migration resume: highest contiguously applied delta batch — the
  /// source resends its unacked deltas past this.
  uint64_t delta_seq = 0;
  uint64_t credit = 1;      ///< flow-control grant for the resumed stream
  uint32_t codec_mask = 0;  ///< codecs the receiver decodes
  template <typename V>
  void Fields(V&& v) {
    v(migration_id, group, epoch, declined, delta_seq, credit, codec_mask);
  }
};

/// Balancer -> every DM and data-source replica: authoritative shard map.
/// Receivers adopt entries per-range by version (last-writer-wins under
/// the single balancer writer), so the epoch switch is atomic per actor.
struct ShardMapUpdate : Message<MessageType::kShardMapUpdate> {
  std::vector<sharding::ShardRange> entries;
  template <typename V> void Fields(V&& v) { v(entries); }
};

/// Data source -> DM: "WrongShardEpoch" bounce of a batch routed under a
/// stale map. Carries the patched range so the DM adopts it and re-routes
/// the batch (or aborts the transaction when the branch already executed
/// earlier rounds here).
struct ShardRedirect : Message<MessageType::kShardRedirect> {
  TxnId txn_id = kInvalidTxn;
  uint64_t round_seq = 0;
  sharding::ShardRange entry;  ///< owner = the range's current owner
  template <typename V> void Fields(V&& v) { v(txn_id, round_seq, entry); }
};

// ---------------------------------------------------------------------------
// Latency monitoring (paper §VI: ping thread at 10 ms intervals)
// ---------------------------------------------------------------------------

struct PingRequest : Message<MessageType::kPingRequest> {
  uint64_t seq = 0;
  Micros sent_at = 0;
  /// Shard-map anti-entropy: the sender's (DM's) shard-map epoch. A data
  /// source holding a newer map piggybacks it on the pong, so a DM that
  /// missed a publish converges within one ping interval instead of
  /// waiting to bounce off a redirect.
  uint64_t shard_epoch = 0;
  template <typename V> void Fields(V&& v) { v(seq, sent_at, shard_epoch); }
};

struct PingResponse : Message<MessageType::kPingResponse> {
  uint64_t seq = 0;
  Micros sent_at = 0;
  /// Capacity signal: branches in flight at the responding engine (live
  /// transactions + parked lock waiters). The balancer's placement scorer
  /// subtracts a load penalty derived from this from the RTT gain, so hot
  /// chunks cannot all pile onto the one nearest node.
  uint64_t inflight = 0;
  /// Saturation signal for overload control: current depth of the engine
  /// run queue and its configured bound (0 = unbounded). The DM's
  /// admission controller sheds new transactions when the occupancy
  /// estimate (run_queue / run_queue_limit) crosses its threshold, so
  /// backpressure from a saturated source reaches clients as Overloaded
  /// replies instead of timeouts.
  uint64_t run_queue = 0;
  uint64_t run_queue_limit = 0;
  /// Responder's shard-map epoch (anti-entropy: a DM seeing a lower value
  /// than its own pushes the current map to the responder).
  uint64_t shard_epoch = 0;
  /// Piggybacked map when the ping's shard_epoch was behind this node's
  /// map (empty otherwise). The DM adopts the entries.
  std::vector<sharding::ShardRange> map_entries;
  template <typename V>
  void Fields(V&& v) {
    v(seq, sent_at, inflight, run_queue, run_queue_limit, shard_epoch,
      map_entries);
  }
};

}  // namespace protocol
}  // namespace geotp

#endif  // GEOTP_PROTOCOL_MESSAGES_H_
