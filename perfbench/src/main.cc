// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 (end-to-end run): repeats the seeded workload on the plain
// simulator until --seconds of host time have passed (at least three
// repetitions), checks each repetition for correctness and for identical
// virtual outcomes, and reports the end-to-end metrics: virtual-time
// protocol outcomes of the seed, and the medians of the host-measured ones.
//
// --trace 1 (per-layer run): one plain repetition, three repetitions on
// the decorating runtime (host time, allocations and codec cost per layer,
// with the program's tracer off), one repetition with the program's tracer
// on (virtual-time spans), and an attribution self-test that injects a
// busy-wait into one layer. Virtual outcomes and work counts must be
// identical across all of them.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Human-readable tables go to stderr. Exit code 0 only when correct.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "accounting.h"
#include "deployment.h"
#include "tracing_runtime.h"

namespace geotp {
namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-42s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
}

/// Collects correctness errors across repetitions.
struct Gate {
  std::vector<std::string> errors;

  void Check(const RepResult& rep, const char* label) {
    for (const std::string& e : rep.errors) {
      errors.push_back(std::string(label) + ": " + e);
    }
  }
  void Same(const std::map<std::string, double>& a,
            const std::map<std::string, double>& b, const char* what) {
    for (const auto& [name, value] : a) {
      const auto it = b.find(name);
      if (it == b.end() || it->second != value) {
        errors.push_back(std::string(what) + " differs between repetitions: " +
                         name + " " + JsonNumber(value) + " vs " +
                         (it == b.end() ? "missing" : JsonNumber(it->second)));
      }
    }
  }
};

void ReportRep(const RepResult& rep, const char* label) {
  std::fprintf(stderr,
               "%-10s setup %.3f s, window %.2f s wall, %.2f host us/txn, "
               "attempted %llu, committed %llu, abandoned at quiesce %llu, "
               "failed %llu, oracle keys %llu (%llu mismatches), replica "
               "groups %llu (%llu mismatches), resident %llu records / "
               "%.1f MiB; %.2f events/txn, %.0f migration chunks\n",
               label, rep.setup_s, rep.window_wall_s, rep.host_us_per_txn,
               static_cast<unsigned long long>(rep.attempted),
               static_cast<unsigned long long>(rep.committed_all),
               static_cast<unsigned long long>(rep.abandoned),
               static_cast<unsigned long long>(rep.failed),
               static_cast<unsigned long long>(rep.oracle_keys),
               static_cast<unsigned long long>(rep.oracle_mismatches),
               static_cast<unsigned long long>(rep.replica_groups_checked),
               static_cast<unsigned long long>(rep.replica_mismatches),
               static_cast<unsigned long long>(rep.store_records),
               static_cast<double>(rep.store_bytes) / (1024.0 * 1024.0),
               rep.counts.at("sim.events_per_txn"),
               rep.counts.at("sharding.chunks_sent"));
}

// ---------------------------------------------------------------------------
// --trace 0
// ---------------------------------------------------------------------------

int RunEndToEnd(const WorkloadSpec& spec, const Args& args) {
  Gate gate;
  std::vector<RepResult> reps;
  std::vector<double> host, setup;
  uint64_t attempted = 0, failed = 0;
  const int64_t start = NowNs();
  do {
    reps.push_back(RunRep(spec, args.seed, Instrument::kNone));
    const RepResult& rep = reps.back();
    const std::string label = "rep " + std::to_string(reps.size());
    ReportRep(rep, label.c_str());
    gate.Check(rep, label.c_str());
    gate.Same(reps.front().virtual_metrics, rep.virtual_metrics,
              "virtual outcome");
    gate.Same(reps.front().counts, rep.counts, "work count");
    host.push_back(rep.host_us_per_txn);
    setup.push_back(rep.setup_s);
    attempted += rep.attempted;
    failed += rep.failed;
    // Sub-millisecond assemblies are sampled many more times, after every
    // repetition: one sample is at the mercy of a single page fault, and
    // one burst of samples of the host's speed at that moment.
    for (int i = 0; i < 66 && rep.setup_s < 0.001; ++i) {
      setup.push_back(MeasureSetup(spec, args.seed));
    }
  } while (gate.errors.empty() &&
           (reps.size() < 3 ||
            static_cast<double>(NowNs() - start) / 1e9 < args.seconds));
  const RepResult& first = reps.front();
  const std::map<std::string, double>& v = first.virtual_metrics;
  std::vector<Metric> metrics = {
      {"tps", v.at("tps"), "1/s"},
      {"p50_ms", v.at("p50_ms"), "ms"},
      {"p99_ms", v.at("p99_ms"), "ms"},
      {"attempts_per_commit", v.at("attempts_per_commit"), "ratio"},
      {"host_us_per_txn", Median(host), "us"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
  PrintTable("end-to-end (virtual-time outcomes of the seed; host-measured "
             "values are medians over repetitions)",
             metrics);
  std::fprintf(stderr,
               "  %-42s %14.0f (%.0f beyond p99)\n  %-42s %14.6f\n"
               "  %-42s %14.6f\n  %-42s %14.2f B\n  repetitions: %zu\n",
               "latency samples", v.at("latency_samples"),
               v.at("latency_samples") / 100.0, "abort_rate",
               v.at("abort_rate"), "failed_frac",
               attempted == 0 ? 0.0
                              : static_cast<double>(failed) /
                                    static_cast<double>(attempted),
               "wan_bytes_per_txn", first.counts.at("wan_bytes_per_txn"),
               reps.size());
  const bool correct = gate.errors.empty();
  for (const std::string& e : gate.errors) {
    std::fprintf(stderr, "CORRECTNESS FAILURE: %s\n", e.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1
// ---------------------------------------------------------------------------

/// Per-layer busy time (self time) per committed txn, in us.
double BusyUs(const RepResult& rep, Layer layer) {
  const double txns = rep.virtual_metrics.at("committed");
  return txns == 0 ? 0.0
                   : static_cast<double>(
                         rep.layers.self_ns[static_cast<size_t>(layer)]) /
                         1e3 / txns;
}

double AllocsPerTxn(const RepResult& rep, Layer layer) {
  const double txns = rep.virtual_metrics.at("committed");
  return txns == 0 ? 0.0
                   : static_cast<double>(
                         rep.layers.allocs[static_cast<size_t>(layer)]) /
                         txns;
}

/// The deterministic count table gathered at the decorated seams.
std::map<std::string, double> SeamCountTable(const RepResult& rep) {
  std::map<std::string, double> t;
  for (int i = 0; i < kNumLayers; ++i) {
    const std::string layer = LayerName(static_cast<Layer>(i));
    t[layer + ".callbacks"] = static_cast<double>(rep.layers.callbacks[i]);
    t[layer + ".allocs"] = static_cast<double>(rep.layers.allocs[i]);
  }
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    if (rep.seams.delivered[i] == 0) continue;
    t["msg." + std::to_string(i)] =
        static_cast<double>(rep.seams.delivered[i]);
  }
  t["codec.bytes"] = static_cast<double>(rep.seams.codec_bytes);
  t["flushes"] = static_cast<double>(rep.seams.flushes);
  t["flush_bytes"] = static_cast<double>(rep.seams.flush_bytes);
  t["timers"] = static_cast<double>(rep.seams.timers);
  return t;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  Gate gate;
  uint64_t attempted = 0, failed = 0;
  auto run = [&](Instrument instrument, const char* label) {
    RepResult rep = RunRep(spec, args.seed, instrument);
    ReportRep(rep, label);
    gate.Check(rep, label);
    attempted += rep.attempted;
    failed += rep.failed;
    return rep;
  };

  const RepResult plain = run(Instrument::kNone, "untraced");
  std::vector<RepResult> traced;
  for (int i = 0; i < 3; ++i) {
    traced.push_back(run(Instrument::kDecorated, "traced"));
  }
  const RepResult spans = run(Instrument::kSpans, "spans");
  for (const RepResult* rep :
       std::vector<const RepResult*>{&traced[0], &traced[1], &traced[2], &spans}) {
    gate.Same(plain.virtual_metrics, rep->virtual_metrics,
              "virtual outcome (traced vs untraced)");
    gate.Same(plain.counts, rep->counts, "work count (traced vs untraced)");
  }
  const std::map<std::string, double> seam_counts = SeamCountTable(traced[0]);
  gate.Same(seam_counts, SeamCountTable(traced[1]), "seam count table");
  gate.Same(seam_counts, SeamCountTable(traced[2]), "seam count table");
  if (traced[0].seams.codec_failures > 0) {
    gate.errors.push_back("wire codec failed to round-trip a message");
  }

  // Median over the three traced repetitions for every host-time figure.
  auto median_of = [&](auto fn) {
    std::vector<double> values;
    for (const RepResult& rep : traced) values.push_back(fn(rep));
    return Median(values);
  };
  auto busy = [&](Layer layer) {
    return median_of([layer](const RepResult& r) { return BusyUs(r, layer); });
  };
  const RepResult& t0 = traced[0];
  const double txns = t0.virtual_metrics.at("committed");
  auto per_txn = [txns](double v) { return txns == 0 ? 0.0 : v / txns; };
  const SeamCounters& seams = t0.seams;
  auto delivered = [&](runtime::MessageType type) {
    return static_cast<double>(seams.delivered[static_cast<size_t>(type)]);
  };
  const double ack_us = median_of([](const RepResult& r) {
    const size_t i = static_cast<size_t>(runtime::MessageType::kShardSnapshotAck);
    return r.seams.delivered[i] == 0
               ? 0.0
               : static_cast<double>(r.seams.handler_ns[i]) / 1e3 /
                     static_cast<double>(r.seams.delivered[i]);
  });
  const double unattributed = median_of([](const RepResult& r) {
    int64_t total = 0;
    for (int64_t ns : r.layers.self_ns) total += ns;
    return total == 0
               ? 0.0
               : static_cast<double>(r.layers.self_ns[static_cast<size_t>(
                     Layer::kUnattributed)]) /
                     static_cast<double>(total);
  });
  const double traced_host =
      median_of([](const RepResult& r) { return r.host_us_per_txn; });

  // Attribution self-test: a busy-wait equal to the layer's measured
  // per-callback self time, injected into every frame of the non-sim layer
  // that costs most, must about double that layer's busy time and leave
  // the others where they were.
  Layer target = Layer::kMiddleware;
  for (int i = 1; i < kNumLayers; ++i) {
    const Layer layer = static_cast<Layer>(i);
    if (layer == Layer::kUnattributed) continue;
    if (busy(layer) > busy(target)) target = layer;
  }
  const size_t slot = static_cast<size_t>(target);
  const int64_t per_callback =
      t0.layers.callbacks[slot] == 0
          ? 0
          : t0.layers.self_ns[slot] /
                static_cast<int64_t>(t0.layers.callbacks[slot]);
  SetInjection(target, per_callback);
  const RepResult injected = run(Instrument::kDecorated, "selftest");
  SetInjection(Layer::kCount, 0);
  const double target_ratio = busy(target) == 0.0
                                  ? 0.0
                                  : BusyUs(injected, target) / busy(target);
  Layer flagged = target;
  double flagged_ratio = 0.0;
  for (int i = 1; i < kNumLayers; ++i) {
    const Layer layer = static_cast<Layer>(i);
    if (busy(layer) < 0.02 * busy(target)) continue;  // too small to compare
    const double ratio = BusyUs(injected, layer) / busy(layer);
    if (ratio > flagged_ratio) {
      flagged_ratio = ratio;
      flagged = layer;
    }
  }
  const bool selftest_ok =
      flagged == target && target_ratio > 1.4 && target_ratio < 3.0;
  std::fprintf(stderr,
               "attribution self-test: injected %lld ns per %s callback; %s "
               "busy x%.2f; largest increase: %s x%.2f -> %s\n",
               static_cast<long long>(per_callback), LayerName(target),
               LayerName(target), target_ratio, LayerName(flagged),
               flagged_ratio, selftest_ok ? "PASS" : "FAIL");
  for (int i = 1; i < kNumLayers; ++i) {
    const Layer layer = static_cast<Layer>(i);
    if (busy(layer) == 0.0) continue;
    std::fprintf(stderr, "  %-12s busy %8.3f -> %8.3f us/txn (x%.2f)\n",
                 LayerName(layer), busy(layer), BusyUs(injected, layer),
                 BusyUs(injected, layer) / busy(layer));
  }

  const std::map<std::string, double>& c = plain.counts;
  const std::map<std::string, double>& s = spans.spans;
  std::vector<Metric> metrics = {
      {"sim.events_per_txn", c.at("sim.events_per_txn"), "count/txn"},
      {"sim.msgs_per_txn", c.at("sim.msgs_per_txn"), "count/txn"},
      {"sim.self_us_per_txn", busy(Layer::kSim), "us/txn"},
      {"sim.allocs_per_txn", AllocsPerTxn(t0, Layer::kSim), "count/txn"},
      {"workload.busy_us_per_txn", busy(Layer::kWorkload), "us/txn"},
      {"workload.retries_per_txn", c.at("workload.retries_per_txn"),
       "count/txn"},
      {"middleware.busy_us_per_txn", busy(Layer::kMiddleware), "us/txn"},
      {"middleware.allocs_per_txn", AllocsPerTxn(t0, Layer::kMiddleware),
       "count/txn"},
      {"middleware.analysis_ms_per_txn", s.at("middleware.analysis_ms_per_txn"),
       "ms/txn"},
      {"middleware.prepare_wait_ms_p50",
       s.at("middleware.prepare_wait_ms_p50"), "ms"},
      {"middleware.prepare_wait_ms_p99",
       s.at("middleware.prepare_wait_ms_p99"), "ms"},
      {"middleware.commit_ms_p50", s.at("middleware.commit_ms_p50"), "ms"},
      {"middleware.log_fsyncs_per_txn", c.at("middleware.log_fsyncs_per_txn"),
       "count/txn"},
      {"middleware.admission_blocks_per_txn",
       c.at("middleware.admission_blocks_per_txn"), "count/txn"},
      {"middleware.dist_ratio", c.at("middleware.dist_ratio"), "ratio"},
      {"core.busy_us_per_txn", busy(Layer::kCore), "us/txn"},
      {"core.branch_skew_ms_p50", s.at("core.branch_skew_ms_p50"), "ms"},
      {"core.branch_skew_ms_p99", s.at("core.branch_skew_ms_p99"), "ms"},
      {"core.ping_msgs_per_txn",
       per_txn(delivered(runtime::MessageType::kPingRequest) +
               delivered(runtime::MessageType::kPingResponse)),
       "count/txn"},
      {"core.footprint_bytes", c.at("core.footprint_bytes"), "B"},
      {"datasource.busy_us_per_txn", busy(Layer::kDatasource), "us/txn"},
      {"datasource.allocs_per_txn", AllocsPerTxn(t0, Layer::kDatasource),
       "count/txn"},
      {"datasource.branch_exec_ms_mean", s.at("datasource.branch_exec_ms_mean"),
       "ms"},
      {"datasource.decentralized_prepare_frac",
       c.at("datasource.decentralized_prepare_frac"), "ratio"},
      {"datasource.early_aborts_per_txn",
       c.at("datasource.early_aborts_per_txn"), "count/txn"},
      {"storage.busy_us_per_txn", busy(Layer::kStorage), "us/txn"},
      {"storage.lock_wait_frac", c.at("storage.lock_wait_frac"), "ratio"},
      {"storage.deadlocks_per_ktxn", c.at("storage.deadlocks_per_ktxn"),
       "count/ktxn"},
      {"storage.lock_timeouts_per_ktxn", c.at("storage.lock_timeouts_per_ktxn"),
       "count/ktxn"},
      {"storage.branch_hold_ms_p50", s.at("storage.branch_hold_ms_p50"), "ms"},
      {"storage.branch_hold_ms_p99", s.at("storage.branch_hold_ms_p99"), "ms"},
      {"storage.fsyncs_per_txn", c.at("storage.fsyncs_per_txn"), "count/txn"},
      {"storage.entries_per_fsync", c.at("storage.entries_per_fsync"),
       "count"},
      {"storage.prepare_fsync_ms_p50", s.at("storage.prepare_fsync_ms_p50"),
       "ms"},
      {"storage.flush_bytes_per_txn",
       per_txn(static_cast<double>(seams.flush_bytes)), "B/txn"},
      {"storage.store_records", c.at("storage.store_records"), "count"},
      {"replication.busy_us_per_txn", busy(Layer::kReplication), "us/txn"},
      {"replication.allocs_per_txn", AllocsPerTxn(t0, Layer::kReplication),
       "count/txn"},
      {"replication.entries_per_batch", c.at("replication.entries_per_batch"),
       "count"},
      {"replication.retransmits_per_ktxn",
       c.at("replication.retransmits_per_ktxn"), "count/ktxn"},
      {"replication.quorum_ms_mean", s.at("replication.quorum_ms_mean"), "ms"},
      {"replication.wan_wire_bytes_per_txn",
       c.at("replication.wan_wire_bytes_per_txn"), "B/txn"},
      {"replication.compress_ratio", c.at("replication.compress_ratio"),
       "ratio"},
      {"sharding.busy_us_per_txn", busy(Layer::kSharding), "us/txn"},
      {"sharding.allocs_per_txn", AllocsPerTxn(t0, Layer::kSharding),
       "count/txn"},
      {"sharding.snapshot_ack_us_mean", ack_us, "us"},
      {"sharding.migrations_completed_frac",
       c.at("sharding.migrations_completed_frac"), "ratio"},
      {"sharding.chunks_sent", c.at("sharding.chunks_sent"), "count"},
      {"sharding.chunk_retransmits", c.at("sharding.chunk_retransmits"),
       "count"},
      {"sharding.redirects_per_ktxn", c.at("sharding.redirects_per_ktxn"),
       "count/ktxn"},
      {"sharding.wan_wire_bytes_per_txn",
       c.at("sharding.wan_wire_bytes_per_txn"), "B/txn"},
      {"sharding.compress_ratio", c.at("sharding.compress_ratio"), "ratio"},
      {"runtime.codec_ns_per_msg",
       seams.codec_messages == 0
           ? 0.0
           : median_of([](const RepResult& r) {
               return static_cast<double>(r.seams.codec_ns) /
                      static_cast<double>(r.seams.codec_messages);
             }),
       "ns"},
      {"runtime.wire_bytes_per_txn",
       per_txn(static_cast<double>(seams.codec_bytes)), "B/txn"},
      {"trace.unattributed_frac", unattributed, "ratio"},
      {"trace.overhead_x",
       plain.host_us_per_txn == 0.0 ? 0.0 : traced_host / plain.host_us_per_txn,
       "ratio"},
      {"trace.selftest_ratio", target_ratio, "ratio"},
      {"wan_bytes_per_txn", c.at("wan_bytes_per_txn"), "B/txn"},
      {"failed_frac",
       attempted == 0 ? 0.0
                      : static_cast<double>(failed) /
                            static_cast<double>(attempted),
       "ratio"},
  };
  PrintTable("per-layer (traced run; host times are medians of 3 decorated "
             "repetitions, virtual times from the program's spans)",
             metrics);
  std::fprintf(stderr, "  tracing overhead: traced %.2f / untraced %.2f host "
               "us/txn\n",
               traced_host, plain.host_us_per_txn);
  if (!selftest_ok) {
    gate.errors.push_back(
        "attribution self-test did not flag the injected layer");
  }
  const bool correct = gate.errors.empty();
  for (const std::string& e : gate.errors) {
    std::fprintf(stderr, "CORRECTNESS FAILURE: %s\n", e.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace geotp

int main(int argc, char** argv) {
  using namespace geotp::perfbench;  // NOLINT: entry point
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::fprintf(stderr, "%s\nseed %llu\n", DescribeWorkload(spec).c_str(),
               static_cast<unsigned long long>(args.seed));
  return args.trace == 1 ? RunTraced(spec, args) : RunEndToEnd(spec, args);
}
