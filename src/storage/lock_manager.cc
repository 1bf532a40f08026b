#include "storage/lock_manager.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace geotp {
namespace storage {

namespace {

/// The (owner, mode) entry of `owner` in a lock state's holder vector, or
/// nullptr; const-ness follows the vector's.
template <typename Holders>
auto FindHolder(Holders& holders, const Xid& owner) -> decltype(&holders[0]) {
  for (auto& holder : holders) {
    if (holder.first == owner) return &holder;
  }
  return nullptr;
}

}  // namespace

LockManager::LockState& LockManager::StateOf(const RecordKey& key) {
  auto it = locks_.find(key);
  if (it != locks_.end()) return it->second;
  if (free_states_.empty()) return locks_[key];
  LockTable::node_type node = std::move(free_states_.back());
  free_states_.pop_back();
  node.key() = key;
  node.mapped().mode = LockMode::kShared;
  return locks_.insert(std::move(node)).position->second;
}

void LockManager::Retire(LockTable::iterator it) {
  free_states_.push_back(locks_.extract(it));
}

LockRequestId LockManager::RequestLock(const Xid& owner, const RecordKey& key,
                                       LockMode mode, LockCallback callback) {
  LockState& state = StateOf(key);

  if (auto* holder = FindHolder(state.holders, owner)) {
    // Re-entrant: already holds >= mode?
    if (holder->second == LockMode::kExclusive || mode == LockMode::kShared) {
      stats_.grants_immediate++;
      callback(Status::OK());
      return kInvalidLockRequest;
    }
    // Upgrade S -> X.
    if (state.holders.size() == 1) {
      holder->second = LockMode::kExclusive;
      state.mode = LockMode::kExclusive;
      stats_.upgrades++;
      stats_.grants_immediate++;
      callback(Status::OK());
      return kInvalidLockRequest;
    }
    // Park the upgrade ahead of regular waiters (deadlock-checked: two
    // shared holders upgrading concurrently is the classic cycle).
    visited_.clear();
    if (WouldDeadlock(owner, key, /*depth=*/0)) {
      stats_.deadlocks++;
      callback(Status::Aborted("deadlock victim"));
      return kInvalidLockRequest;
    }
    const LockRequestId id = next_request_id_++;
    state.queue.insert(
        state.queue.begin(),
        Waiter{id, owner, LockMode::kExclusive, true, std::move(callback)});
    parked_.emplace(id, key);
    waiting_on_[owner] = key;
    return id;
  }

  // New request: grant iff compatible with holders and nobody queues ahead.
  const bool compatible =
      state.holders.empty() || Compatible(state.mode, mode);
  if (compatible && state.queue.empty()) {
    state.holders.emplace_back(owner, mode);
    if (state.holders.size() == 1 || mode == LockMode::kExclusive) {
      state.mode = state.holders.size() == 1 ? mode : LockMode::kShared;
    }
    held_by_owner_[owner].insert(key);
    stats_.grants_immediate++;
    callback(Status::OK());
    return kInvalidLockRequest;
  }

  visited_.clear();
  if (WouldDeadlock(owner, key, /*depth=*/0)) {
    stats_.deadlocks++;
    callback(Status::Aborted("deadlock victim"));
    return kInvalidLockRequest;
  }
  const LockRequestId id = next_request_id_++;
  state.queue.push_back(Waiter{id, owner, mode, false, std::move(callback)});
  parked_.emplace(id, key);
  waiting_on_[owner] = key;
  return id;
}

bool LockManager::WouldDeadlock(const Xid& requester, const RecordKey& key,
                                int depth) {
  if (depth > 64) return false;  // cap the search; miss rather than stall
  auto lock_it = locks_.find(key);
  if (lock_it == locks_.end()) return false;
  const LockState& state = lock_it->second;

  // Membership test (runs on every reach): a wait chain arriving at a key
  // the requester HOLDS closes a cycle — the blocker cannot proceed until
  // the requester releases, and the requester is about to wait on the
  // chain's origin. At depth 0 the requester is naturally a holder (lock
  // upgrade), which is not a cycle by itself.
  const bool requester_holds = FindHolder(state.holders, requester) != nullptr;
  if (depth > 0 && requester_holds) return true;

  // Expansion (runs once per key): follow every blocker's wait edge. A
  // regular request queues behind holders and earlier waiters; an upgrade
  // jumps to the queue front, so at the root key only the holders block it.
  // A wait chain reaches few distinct keys (each needs a waiting txn), so
  // the visited set is a short vector.
  if (std::find(visited_.begin(), visited_.end(), key) != visited_.end()) {
    return false;
  }
  visited_.push_back(key);
  const bool requester_is_upgrading = depth == 0 && requester_holds;
  auto follow = [&](const Xid& blocker) {
    if (blocker == requester) return false;
    auto wait_it = waiting_on_.find(blocker);
    if (wait_it == waiting_on_.end()) return false;
    return WouldDeadlock(requester, wait_it->second, depth + 1);
  };
  for (const auto& holder : state.holders) {
    if (follow(holder.first)) return true;
  }
  if (!requester_is_upgrading) {
    for (const Waiter& waiter : state.queue) {
      if (follow(waiter.owner)) return true;
    }
  }
  return false;
}

void LockManager::CancelRequest(LockRequestId id, Status status) {
  auto it = parked_.find(id);
  if (it == parked_.end()) return;  // already granted or cancelled
  const RecordKey key = it->second;
  parked_.erase(it);

  auto lock_it = locks_.find(key);
  GEOTP_CHECK(lock_it != locks_.end(), "parked request on unknown key");
  LockState& state = lock_it->second;
  for (auto qit = state.queue.begin(); qit != state.queue.end(); ++qit) {
    if (qit->id == id) {
      LockCallback cb = std::move(qit->callback);
      waiting_on_.erase(qit->owner);
      state.queue.erase(qit);
      stats_.cancellations++;
      // Removing a waiter may unblock the queue head (e.g. an X waiter
      // blocking compatible S requests behind it).
      std::vector<LockCallback> to_fire;
      ProcessQueue(key, state, to_fire);
      cb(status);
      for (auto& fire : to_fire) fire(Status::OK());
      return;
    }
  }
  GEOTP_CHECK(false, "parked request not found in queue");
}

void LockManager::ReleaseAll(const Xid& owner) {
  auto owner_it = held_by_owner_.find(owner);
  if (owner_it == held_by_owner_.end()) return;
  std::vector<LockCallback> to_fire;
  for (const RecordKey& key : owner_it->second) {
    auto lock_it = locks_.find(key);
    if (lock_it == locks_.end()) continue;
    LockState& state = lock_it->second;
    if (auto* holder = FindHolder(state.holders, owner)) {
      state.holders.erase(state.holders.begin() +
                          (holder - state.holders.data()));
    }
    ProcessQueue(key, state, to_fire);
    if (state.holders.empty() && state.queue.empty()) Retire(lock_it);
  }
  held_by_owner_.erase(owner_it);
  for (auto& fire : to_fire) fire(Status::OK());
}

void LockManager::ProcessQueue(const RecordKey& key, LockState& state,
                               std::vector<LockCallback>& to_fire) {
  // Grants the longest grantable prefix, then drops it in one erase.
  size_t granted = 0;
  while (granted < state.queue.size()) {
    Waiter& head = state.queue[granted];
    if (head.is_upgrade) {
      // Upgrade fires only when its owner is the sole holder.
      if (state.holders.size() != 1 ||
          !(state.holders.front().first == head.owner)) {
        break;
      }
      state.holders.front().second = LockMode::kExclusive;
      state.mode = LockMode::kExclusive;
      stats_.upgrades++;
    } else {
      const bool can_grant =
          state.holders.empty() ||
          (state.mode == LockMode::kShared && head.mode == LockMode::kShared);
      if (!can_grant) break;
      if (FindHolder(state.holders, head.owner) == nullptr) {
        state.holders.emplace_back(head.owner, head.mode);
      }
      state.mode = head.mode == LockMode::kExclusive ? LockMode::kExclusive
                                                     : LockMode::kShared;
      held_by_owner_[head.owner].insert(key);
    }
    stats_.grants_after_wait++;
    parked_.erase(head.id);
    waiting_on_.erase(head.owner);
    to_fire.push_back(std::move(head.callback));
    ++granted;
    // An exclusive grant saturates the lock: nothing else can follow.
    if (!head.is_upgrade && state.mode == LockMode::kExclusive) break;
  }
  state.queue.erase(state.queue.begin(), state.queue.begin() + granted);
}

bool LockManager::Holds(const Xid& owner, const RecordKey& key,
                        LockMode mode) const {
  auto lock_it = locks_.find(key);
  if (lock_it == locks_.end()) return false;
  const auto* holder = FindHolder(lock_it->second.holders, owner);
  if (holder == nullptr) return false;
  return holder->second == LockMode::kExclusive || mode == LockMode::kShared;
}

size_t LockManager::WaitersOn(const RecordKey& key) const {
  auto lock_it = locks_.find(key);
  return lock_it == locks_.end() ? 0 : lock_it->second.queue.size();
}

size_t LockManager::HoldersOn(const RecordKey& key) const {
  auto lock_it = locks_.find(key);
  return lock_it == locks_.end() ? 0 : lock_it->second.holders.size();
}

}  // namespace storage
}  // namespace geotp
