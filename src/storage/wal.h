// Write-ahead-log accounting of one engine.
//
// Real data sources pay an fsync on XA PREPARE and on COMMIT. In the
// simulation the *time* cost is charged by the data-source node (its
// GroupCommitter flushes the records to the WAL device); this class only
// counts. Which branches are prepared and unresolved is the engine's
// branch state (TransactionEngine::StateOf / PreparedXids), so nothing
// here grows with the number of transactions.
#ifndef GEOTP_STORAGE_WAL_H_
#define GEOTP_STORAGE_WAL_H_

#include <cstdint>

namespace geotp {
namespace storage {

class Wal {
 public:
  /// Counts one appended (buffered) record: prepare, commit or abort.
  /// Appending alone is NOT durability: the record reaches the disk at the
  /// next fsync, which the owner reports via NoteFsync(). Under group
  /// commit many records share one fsync, so the two counters diverge —
  /// Fig. 6 resource accounting needs both.
  void NoteAppend() { ++appended_; }

  /// Records one physical log-device flush (possibly covering many
  /// appended records).
  void NoteFsync() { ++fsyncs_; }

  uint64_t appended() const { return appended_; }
  uint64_t fsyncs() const { return fsyncs_; }

 private:
  uint64_t appended_ = 0;
  uint64_t fsyncs_ = 0;
};

}  // namespace storage
}  // namespace geotp

#endif  // GEOTP_STORAGE_WAL_H_
