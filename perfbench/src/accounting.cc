#include "accounting.h"

#include <sys/resource.h>
#include <time.h>

#include <cstdlib>
#include <new>

namespace geotp {
namespace perfbench {

namespace {

LayerTotals g_totals;
Frame* g_top = nullptr;
bool g_count_allocs = false;
Layer g_inject_layer = Layer::kCount;
int64_t g_inject_ns = 0;

void CountAllocation() {
  if (!g_count_allocs) return;
  g_totals.allocs[static_cast<size_t>(CurrentLayer(Layer::kSim))]++;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSim:
      return "sim";
    case Layer::kWorkload:
      return "workload";
    case Layer::kMiddleware:
      return "middleware";
    case Layer::kCore:
      return "core";
    case Layer::kDatasource:
      return "datasource";
    case Layer::kStorage:
      return "storage";
    case Layer::kReplication:
      return "replication";
    case Layer::kSharding:
      return "sharding";
    case Layer::kRuntime:
      return "runtime";
    case Layer::kUnattributed:
      return "unattributed";
    case Layer::kCount:
      break;
  }
  return "?";
}

LayerTotals LayerTotals::operator-(const LayerTotals& base) const {
  LayerTotals out;
  for (int i = 0; i < kNumLayers; ++i) {
    out.self_ns[i] = self_ns[i] - base.self_ns[i];
    out.allocs[i] = allocs[i] - base.allocs[i];
    out.callbacks[i] = callbacks[i] - base.callbacks[i];
  }
  out.top_level_ns = top_level_ns - base.top_level_ns;
  return out;
}

Frame::Frame(Layer layer, bool reclassifiable)
    : parent_(g_top),
      layer_(layer),
      reclassifiable_(reclassifiable),
      start_ns_(NowNs()) {
  g_top = this;
}

Frame::~Frame() {
  if (layer_ == g_inject_layer && g_inject_ns > 0) {
    const int64_t until = NowNs() + g_inject_ns;
    while (NowNs() < until) {
    }
  }
  const int64_t duration = NowNs() - start_ns_;
  const size_t slot = static_cast<size_t>(layer_);
  g_totals.self_ns[slot] += duration - child_ns_;
  g_totals.callbacks[slot]++;
  g_top = parent_;
  if (parent_ != nullptr) {
    parent_->child_ns_ += duration;
  } else {
    g_totals.top_level_ns += duration;
  }
}

Layer CurrentLayer(Layer fallback) {
  return g_top != nullptr ? g_top->layer_ : fallback;
}

bool InFrame() { return g_top != nullptr; }

bool CurrentReclassifiable() {
  return g_top != nullptr && g_top->reclassifiable_;
}

void Reclassify(Layer layer) {
  if (g_top == nullptr || !g_top->reclassifiable_) return;
  g_top->layer_ = layer;
  g_top->reclassifiable_ = false;
}

void SetCountingAllocations(bool on) { g_count_allocs = on; }

AllocPause::AllocPause() : was_(g_count_allocs) { g_count_allocs = false; }
AllocPause::~AllocPause() { g_count_allocs = was_; }

LayerTotals SnapshotTotals() { return g_totals; }

void SetInjection(Layer layer, int64_t ns) {
  g_inject_layer = layer;
  g_inject_ns = ns;
}

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
}  // namespace geotp

// Counting allocator: every heap allocation of the benchmark process goes
// through here, so per-layer allocation counts need no program changes.
void* operator new(std::size_t size) {
  geotp::perfbench::CountAllocation();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  geotp::perfbench::CountAllocation();
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
