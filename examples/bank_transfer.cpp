// The paper's running example (§III, Fig. 3): Alice transfers $100 to
// Bob. Bob's account lives in a PostgreSQL instance co-located with the
// middleware (DS1); Alice's account lives in a MySQL instance 100ms away
// (DS2). The client's transaction is
//
//   BEGIN;
//   UPDATE savings SET val = val + -100 WHERE key = 1005;
//   UPDATE savings SET val = val + 100 WHERE key = 7; /* last statement */
//   COMMIT;
//
// which reaches the middleware as one round of two delta writes, flagged
// as the last round (the paper's annotation). The DM does not parse SQL
// text: it charges a fixed analysis cost per round, and the two data
// sources differ only in their engine cost presets.
//
// A two-node simulated deployment runs the transfer under GeoTP and under
// classic 2PC (SSP), printing the commit latency difference — the
// eliminated WAN round trip of §IV-A.
#include <cstdio>
#include <memory>
#include <vector>

#include "datasource/data_source.h"
#include "middleware/middleware.h"
#include "protocol/messages.h"
#include "runtime/sim_runtime.h"
#include "sim/event_loop.h"
#include "sim/network.h"

using namespace geotp;

namespace {

constexpr uint32_t kSavings = 1;
constexpr uint64_t kBob = 7;       // key on DS1 (node-local offset 7)
constexpr uint64_t kAlice = 1005;  // key on DS2 (1000 keys per node)

// Assembles client(0) + DM(1) + PostgreSQL DS(2, 10ms) + MySQL DS(3,
// 100ms), runs the transfer, returns the client-observed latency in ms.
double RunTransfer(const middleware::MiddlewareConfig& dm_config,
                   const std::vector<protocol::ClientOp>& transfer) {
  sim::LatencyMatrix matrix(4);
  matrix.SetSymmetric(0, 1, sim::LinkSpec::FromRttMs(0.5));
  matrix.SetSymmetric(1, 2, sim::LinkSpec::FromRttMs(10.0));
  matrix.SetSymmetric(1, 3, sim::LinkSpec::FromRttMs(100.0));
  matrix.SetSymmetric(0, 2, sim::LinkSpec::FromRttMs(10.0));
  matrix.SetSymmetric(0, 3, sim::LinkSpec::FromRttMs(100.0));
  matrix.SetSymmetric(2, 3, sim::LinkSpec::FromRttMs(100.0));
  sim::EventLoop loop;
  sim::Network network(&loop, matrix);
  runtime::SimRuntime rt(&loop, &network);

  datasource::DataSourceConfig pg = datasource::DataSourceConfig::Postgres();
  datasource::DataSourceConfig my = datasource::DataSourceConfig::MySql();
  pg.early_abort = my.early_abort = dm_config.early_abort;
  datasource::DataSourceNode ds1(rt.EnvFor(2), pg);
  datasource::DataSourceNode ds2(rt.EnvFor(3), my);
  ds1.Attach();
  ds2.Attach();
  // Seed the balances.
  ds1.engine().store().Apply(RecordKey{kSavings, kBob}, 500);
  ds2.engine().store().Apply(RecordKey{kSavings, kAlice}, 300);

  middleware::Catalog catalog;
  catalog.AddRangePartitionedTable(kSavings, 1000, {2, 3});
  middleware::MiddlewareNode dm(rt.EnvFor(1), 0, std::move(catalog),
                                dm_config);
  dm.Attach();

  // The DML batch is one client round; BEGIN/COMMIT frame it.
  auto round = std::make_unique<protocol::ClientRoundRequest>();
  round->from = 0;
  round->to = 1;
  round->client_tag = 1;
  round->ops = transfer;
  round->last_round = true;  // "/* last statement */"

  Micros done_at = 0;
  TxnId txn_id = kInvalidTxn;
  bool committed = false;
  network.RegisterNode(0, [&](std::unique_ptr<runtime::MessageBase> msg) {
    if (auto* resp =
            dynamic_cast<protocol::ClientRoundResponse*>(msg.get())) {
      txn_id = resp->txn_id;
      auto finish = std::make_unique<protocol::ClientFinishRequest>();
      finish->from = 0;
      finish->to = 1;
      finish->client_tag = 1;
      finish->txn_id = txn_id;
      finish->commit = true;
      network.Send(std::move(finish));
    } else if (auto* result =
                   dynamic_cast<protocol::ClientTxnResult*>(msg.get())) {
      committed = result->status.ok();
      done_at = loop.Now();
    }
  });
  network.Send(std::move(round));
  loop.RunUntil(SecToMicros(5));

  std::printf("    Bob (DS1/PostgreSQL):   $%lld\n",
              static_cast<long long>(
                  ds1.engine().store().Get(RecordKey{kSavings, kBob})->value));
  std::printf("    Alice (DS2/MySQL):      $%lld\n",
              static_cast<long long>(ds2.engine()
                                         .store()
                                         .Get(RecordKey{kSavings, kAlice})
                                         ->value));
  std::printf("    committed: %s\n", committed ? "yes" : "NO");
  return MicrosToMs(done_at);
}

// UPDATE savings SET val = val + `delta` WHERE key = `key`.
protocol::ClientOp AddToBalance(uint64_t key, int64_t delta) {
  protocol::ClientOp op;
  op.key = RecordKey{kSavings, key};
  op.is_write = true;
  op.value = delta;
  op.is_delta = true;
  return op;
}

}  // namespace

int main() {
  const std::vector<protocol::ClientOp> transfer = {
      AddToBalance(kAlice, -100), AddToBalance(kBob, 100)};
  std::printf("transfer: Alice (key %llu, MySQL) -> Bob (key %llu, "
              "PostgreSQL), $100\n",
              static_cast<unsigned long long>(kAlice),
              static_cast<unsigned long long>(kBob));

  std::printf("\nrunning under SSP (classic XA 2PC, 3 WAN round trips):\n");
  const double ssp_ms =
      RunTransfer(middleware::MiddlewareConfig::SSP(), transfer);
  std::printf("    commit latency: %.1f ms\n", ssp_ms);

  std::printf("\nrunning under GeoTP (decentralized prepare, 2 round trips):\n");
  const double geotp_ms =
      RunTransfer(middleware::MiddlewareConfig::GeoTP(), transfer);
  std::printf("    commit latency: %.1f ms\n", geotp_ms);

  std::printf("\nGeoTP saved %.1f ms — the prepare phase's WAN round trip.\n",
              ssp_ms - geotp_ms);
  return 0;
}
