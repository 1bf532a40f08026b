#include "storage/group_commit.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <utility>

namespace geotp {
namespace storage {
namespace {

/// Appends `value` in decimal, as std::to_string writes it.
template <typename Int>
void AppendDecimal(std::string* out, Int value) {
  char digits[24];
  const char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out->append(digits, static_cast<size_t>(end - digits));
}

/// Appends `xid` as Xid::ToString writes it.
void AppendXid(std::string* out, const Xid& xid) {
  out->append("xid(");
  AppendDecimal(out, xid.txn_id);
  out->push_back(',');
  AppendDecimal(out, xid.data_source);
  out->push_back(')');
}

}  // namespace

void LogRecord::EncodeTo(std::string* out) const {
  switch (kind) {
    case Kind::kBarrier:
      return;
    case Kind::kPrepare:
      out->append("PREPARE xid=");
      AppendXid(out, xid);
      break;
    case Kind::kCommit:
      out->append("COMMIT xid=");
      AppendXid(out, xid);
      break;
    case Kind::kDecision:
      out->append("DECISION txn=");
      AppendDecimal(out, xid.txn_id);
      out->append(commit ? " C" : " A");
      break;
  }
  out->push_back('\n');
}

void GroupCommitter::Append(Micros fsync_cost, const LogRecord& record,
                            DurableCallback on_durable) {
  if (!config_.enabled) {
    // Unbatched baseline: an independent fsync per entry, charged in
    // parallel (the pre-group-commit model).
    std::string bytes;
    record.EncodeTo(&bytes);
    const uint64_t generation = generation_;
    device_->Flush(std::move(bytes), fsync_cost,
                   [this, generation, cb = std::move(on_durable)]() {
                     if (generation != generation_) return;  // crashed
                     stats_.fsyncs++;
                     stats_.entries++;
                     stats_.max_batch_entries =
                         std::max<uint64_t>(stats_.max_batch_entries, 1);
                     if (on_fsync_) on_fsync_();
                     cb();
                   });
    return;
  }

  record.EncodeTo(&open_bytes_);
  open_.push_back(Entry{fsync_cost, open_bytes_.size(), std::move(on_durable)});
  if (flushing_) return;  // joins the next batch when the device frees
  if (open_.size() >= config_.max_batch_size) {
    if (open_timer_ != runtime::kInvalidTimer) {
      timer_->Cancel(open_timer_);
      open_timer_ = runtime::kInvalidTimer;
    }
    StartFlush();
    return;
  }
  if (open_timer_ != runtime::kInvalidTimer) return;  // batch already open
  const uint64_t generation = generation_;
  open_timer_ = timer_->Schedule(config_.max_batch_delay,
                                 [this, generation]() {
                                   if (generation != generation_) return;
                                   open_timer_ = runtime::kInvalidTimer;
                                   if (!flushing_) StartFlush();
                                 });
}

void GroupCommitter::StartFlush() {
  if (open_.empty()) return;
  flushing_ = true;
  std::string batch;
  if (open_.size() <= config_.max_batch_size) {
    // `in_flight_` is empty here: the open batch takes its buffer.
    in_flight_.swap(open_);
    batch.swap(open_bytes_);
    open_bytes_.reserve(batch.size());
  } else {
    // A backlog wider than one batch (accumulated while the device was
    // busy) drains max_batch_size entries per flush.
    const auto split =
        open_.begin() + static_cast<ptrdiff_t>(config_.max_batch_size);
    in_flight_.assign(std::make_move_iterator(open_.begin()),
                      std::make_move_iterator(split));
    open_.erase(open_.begin(), split);
    const size_t bytes = in_flight_.back().bytes_end;
    batch.assign(open_bytes_, 0, bytes);
    open_bytes_.erase(0, bytes);
    for (Entry& entry : open_) entry.bytes_end -= bytes;
  }
  Micros cost = 0;
  for (const Entry& entry : in_flight_) cost = std::max(cost, entry.cost);
  const uint64_t generation = generation_;
  device_->Flush(std::move(batch), cost,
                 [this, generation]() { FinishFlush(generation); });
}

void GroupCommitter::FinishFlush(uint64_t generation) {
  if (generation != generation_) return;  // crashed while on the device
  stats_.fsyncs++;
  stats_.entries += in_flight_.size();
  stats_.max_batch_entries =
      std::max<uint64_t>(stats_.max_batch_entries, in_flight_.size());
  if (on_fsync_) on_fsync_();
  // Waiters may append again (even start the next flush) from their
  // callbacks; detach the batch first and hand its buffer back after.
  std::vector<Entry> done;
  done.swap(in_flight_);
  flushing_ = false;
  for (Entry& entry : done) {
    if (generation != generation_) break;  // a waiter crashed the owner
    entry.on_durable();
  }
  done.clear();
  if (in_flight_.empty()) in_flight_.swap(done);
  // Entries that arrived while the device was busy have waited long
  // enough: flush them immediately, ignoring max_batch_delay.
  if (!flushing_ && !open_.empty()) {
    if (open_timer_ != runtime::kInvalidTimer) {
      timer_->Cancel(open_timer_);
      open_timer_ = runtime::kInvalidTimer;
    }
    StartFlush();
  }
}

void GroupCommitter::Reset() {
  generation_++;
  if (open_timer_ != runtime::kInvalidTimer) {
    timer_->Cancel(open_timer_);
    open_timer_ = runtime::kInvalidTimer;
  }
  open_.clear();
  in_flight_.clear();
  open_bytes_.clear();
  flushing_ = false;
}

}  // namespace storage
}  // namespace geotp
