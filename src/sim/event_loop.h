// Single-threaded discrete-event loop with virtual time.
//
// Every component in the simulation (middlewares, geo-agents, data sources,
// client terminals) runs as callbacks on this loop. Virtual time advances
// only when the loop dequeues the next event, so a 251 ms WAN round trip
// costs nothing in wall-clock terms and runs are fully deterministic.
#ifndef GEOTP_SIM_EVENT_LOOP_H_
#define GEOTP_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "runtime/message.h"
#include "runtime/runtime.h"

namespace geotp {
namespace sim {

/// Identifies a scheduled event so it can be cancelled (e.g. a lock-wait
/// timeout that is no longer needed once the lock is granted).
using EventId = runtime::TimerId;
constexpr EventId kInvalidEvent = runtime::kInvalidTimer;

/// Min-heap driven virtual-time event loop.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// which keeps runs reproducible. Implements the runtime timer seam: in a
/// simulated deployment every actor's ITimer is this one shared loop.
///
/// Each pending event lives in a slot of a slab; freed slots are reused.
/// An EventId is `(generation << 32) | slot`, and a slot's generation is
/// bumped whenever it is freed, so an id outlives neither its event nor a
/// Clear(): it can never cancel a later event that reuses the slot.
class EventLoop : public runtime::ITimer {
 public:
  /// Receives the messages scheduled with ScheduleDelivery().
  class Sink {
   public:
    virtual void Deliver(std::unique_ptr<runtime::MessageBase> msg) = 0;

   protected:
    ~Sink() = default;
  };

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.
  Micros Now() const override { return now_; }

  /// Schedules `fn` to run `delay` microseconds from now (>= 0).
  EventId Schedule(Micros delay, std::function<void()> fn) override;

  /// Schedules `fn` at an absolute virtual time (clamped to >= Now()).
  EventId ScheduleAt(Micros when, std::function<void()> fn) override;

  /// Schedules `sink->Deliver(msg)` `delay` microseconds from now (>= 0).
  /// The message is held in the event's slot, with no callback wrapper.
  EventId ScheduleDelivery(Micros delay, Sink* sink,
                           std::unique_ptr<runtime::MessageBase> msg);

  /// Cancels a pending event. Returns true if the event existed and had not
  /// fired yet. Cancelling an already-fired or unknown id is a no-op.
  bool Cancel(EventId id) override;

  /// Runs until the queue drains. Returns the number of events processed.
  uint64_t Run();

  /// Runs events with time <= `until`; afterwards Now() == max(until, Now()).
  uint64_t RunUntil(Micros until);

  /// Runs at most one event. Returns false if the queue is empty.
  bool Step();

  bool Empty() const { return live_ == 0; }

  /// Total events processed since construction (CPU-work proxy, Fig. 6a).
  uint64_t events_processed() const { return events_processed_; }

  /// Hard stop: drops every pending event (used by experiment drivers when
  /// the measurement window closes).
  void Clear();

 private:
  /// A scheduled event: a callback, or a message for `sink`. A cancelled
  /// slot keeps its payload until its heap entry surfaces.
  struct Slot {
    std::function<void()> fn;
    Sink* sink = nullptr;
    std::unique_ptr<runtime::MessageBase> msg;
    uint32_t gen = 1;
    bool live = false;
  };
  /// Heap entry; `seq` is unique, so (when, seq) totally orders events.
  struct Entry {
    Micros when;
    uint64_t seq;
    uint32_t slot;
  };
  /// Min-heap order for std::push_heap / std::pop_heap.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Fills a free slot with the payload and queues it at `when`.
  EventId Push(Micros when, std::function<void()> fn, Sink* sink,
               std::unique_ptr<runtime::MessageBase> msg);
  /// Removes the earliest entry from the heap and returns it.
  Entry PopEarliest();
  /// Returns `slot` to the free list and bumps its generation. The caller
  /// has moved the payload out first: destroying it in place could re-enter
  /// Schedule and reallocate the slab under the slot reference.
  void ReleaseSlot(uint32_t slot);
  /// Releases `slot` and destroys its payload without running it.
  void Discard(uint32_t slot);
  /// Pops the earliest entry if it was cancelled. Returns true if it did.
  bool DropCancelledTop();

  Micros now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  size_t live_ = 0;  // scheduled, not yet fired, cancelled or cleared
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  std::vector<Entry> heap_;
};

}  // namespace sim
}  // namespace geotp

#endif  // GEOTP_SIM_EVENT_LOOP_H_
