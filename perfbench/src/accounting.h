// Host-cost accounting for the traced benchmark run.
//
// The benchmark attributes host time and heap allocations to the layers of
// the system (named after the src/ modules) purely from outside the
// program: the decorating runtime (tracing_runtime.h) opens a Frame around
// every callback it hands back to the event loop and around every Send, and
// the counting operator new (accounting.cc) charges each allocation to the
// layer whose frame is innermost. A frame's self time is its duration minus
// the durations of the frames nested in it, so Send and codec time are
// charged to their own layers rather than to the caller.
//
// The simulator is single-threaded; so is this bookkeeping.
#ifndef GEOTP_PERFBENCH_ACCOUNTING_H_
#define GEOTP_PERFBENCH_ACCOUNTING_H_

#include <array>
#include <cstdint>
#include <string>

namespace geotp {
namespace perfbench {

enum class Layer : int {
  kSim = 0,      ///< event loop + sim::Network::Send
  kWorkload,     ///< client driver + transaction generator
  kMiddleware,   ///< DM coordination (src/middleware)
  kCore,         ///< latency monitor pings (src/core)
  kDatasource,   ///< branch execution, geo-agent, XA (src/datasource)
  kStorage,      ///< WAL / decision-log flush completions (src/storage)
  kReplication,  ///< log shipping, quorum, election (src/replication)
  kSharding,     ///< migration streams, map updates (src/sharding)
  kRuntime,      ///< wire codec (src/runtime/codec)
  kUnattributed, ///< callbacks no rule claimed
  kCount,
};

constexpr int kNumLayers = static_cast<int>(Layer::kCount);

const char* LayerName(Layer layer);

/// Cumulative per-layer counters. Snapshots are subtracted to get the
/// counts of one measurement window.
struct LayerTotals {
  std::array<int64_t, kNumLayers> self_ns{};
  std::array<uint64_t, kNumLayers> allocs{};
  std::array<uint64_t, kNumLayers> callbacks{};
  /// Wall time spent inside top-level frames (callbacks the loop ran).
  int64_t top_level_ns = 0;

  LayerTotals operator-(const LayerTotals& base) const;
};

/// Scoped attribution frame. Frames nest; the innermost one owns the
/// current layer. `reclassifiable` frames (timer callbacks whose chain was
/// scheduled during deployment assembly, outside any callback) adopt the
/// layer of the first message they send — see Reclassify().
class Frame {
 public:
  explicit Frame(Layer layer, bool reclassifiable = false);
  ~Frame();
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

 private:
  friend Layer CurrentLayer(Layer fallback);
  friend bool CurrentReclassifiable();
  friend void Reclassify(Layer layer);
  Frame* parent_;
  Layer layer_;
  bool reclassifiable_;
  int64_t start_ns_;
  int64_t child_ns_ = 0;
};

/// Layer of the innermost frame; `fallback` outside any frame.
Layer CurrentLayer(Layer fallback);
/// True while a frame is open.
bool InFrame();
/// Whether the innermost frame is a reclassifiable timer frame.
bool CurrentReclassifiable();
/// Re-labels the innermost frame (only if it is reclassifiable) so its
/// self time and the timers it schedules belong to `layer`.
void Reclassify(Layer layer);

/// Global accounting switch: when off, frames still nest (cheaply) but the
/// allocator hook does not count.
void SetCountingAllocations(bool on);
/// Suspends allocation counting in a scope (the decorator's own wrappers).
class AllocPause {
 public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;

 private:
  bool was_;
};

/// Current cumulative totals.
LayerTotals SnapshotTotals();

/// Busy-wait injected into every frame of one layer (attribution
/// self-test). `ns` 0 disables injection.
void SetInjection(Layer layer, int64_t ns);

/// Monotonic host nanoseconds.
int64_t NowNs();
/// Process CPU time (user + sys) in nanoseconds.
int64_t ProcessCpuNs();
/// Peak resident set of the process in MiB.
double PeakRssMb();

}  // namespace perfbench
}  // namespace geotp

#endif  // GEOTP_PERFBENCH_ACCOUNTING_H_
