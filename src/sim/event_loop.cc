#include "sim/event_loop.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace geotp {
namespace sim {

EventId EventLoop::Schedule(Micros delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId EventLoop::ScheduleAt(Micros when, std::function<void()> fn) {
  if (when < now_) when = now_;
  return Push(when, std::move(fn), nullptr, nullptr);
}

EventId EventLoop::ScheduleDelivery(Micros delay, Sink* sink,
                                    std::unique_ptr<runtime::MessageBase> msg) {
  if (delay < 0) delay = 0;
  return Push(now_ + delay, nullptr, sink, std::move(msg));
}

bool EventLoop::Cancel(EventId id) {
  const auto slot = static_cast<uint32_t>(id);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != static_cast<uint32_t>(id >> 32) || !s.live) return false;
  // Lazy cancellation: the heap entry stays put and is skipped on pop.
  s.live = false;
  --live_;
  return true;
}

bool EventLoop::Step() {
  while (DropCancelledTop()) {
  }
  if (heap_.empty()) return false;
  const Entry top = PopEarliest();
  GEOTP_CHECK(top.when >= now_, "time went backwards");
  now_ = top.when;
  ++events_processed_;
  // Free the slot before running: the callback may Schedule or Clear.
  Slot& s = slots_[top.slot];
  if (s.sink != nullptr) {
    Sink* sink = s.sink;
    std::unique_ptr<runtime::MessageBase> msg = std::move(s.msg);
    ReleaseSlot(top.slot);
    sink->Deliver(std::move(msg));
  } else {
    std::function<void()> fn = std::move(s.fn);
    ReleaseSlot(top.slot);
    fn();
  }
  return true;
}

uint64_t EventLoop::Run() {
  uint64_t n = 0;
  while (Step()) ++n;
  return n;
}

uint64_t EventLoop::RunUntil(Micros until) {
  uint64_t n = 0;
  while (!heap_.empty()) {
    if (DropCancelledTop()) continue;
    if (heap_.front().when > until) break;
    Step();
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

void EventLoop::Clear() {
  std::vector<Entry> dropped;
  dropped.swap(heap_);
  // Releasing bumps each generation, so no id handed out before the Clear
  // can cancel an event scheduled after it.
  for (const Entry& entry : dropped) Discard(entry.slot);
}

EventId EventLoop::Push(Micros when, std::function<void()> fn, Sink* sink,
                       std::unique_ptr<runtime::MessageBase> msg) {
  if (free_.empty()) {
    GEOTP_CHECK(slots_.size() < std::numeric_limits<uint32_t>::max(),
                "event slab full");
    free_.push_back(static_cast<uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const uint32_t slot = free_.back();
  free_.pop_back();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.sink = sink;
  s.msg = std::move(msg);
  s.live = true;
  ++live_;
  heap_.push_back(Entry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

EventLoop::Entry EventLoop::PopEarliest() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry top = heap_.back();
  heap_.pop_back();
  return top;
}

void EventLoop::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.live) {
    s.live = false;
    --live_;
  }
  s.sink = nullptr;
  if (++s.gen == 0) s.gen = 1;  // 0 would let slot 0 mint kInvalidEvent
  free_.push_back(slot);
}

void EventLoop::Discard(uint32_t slot) {
  std::function<void()> fn = std::move(slots_[slot].fn);
  std::unique_ptr<runtime::MessageBase> msg = std::move(slots_[slot].msg);
  ReleaseSlot(slot);
}  // the payload is destroyed here, with the slab consistent again

bool EventLoop::DropCancelledTop() {
  if (heap_.empty() || slots_[heap_.front().slot].live) return false;
  Discard(PopEarliest().slot);
  return true;
}

}  // namespace sim
}  // namespace geotp
