#include "baselines/baseline_runners.h"

#include <memory>

#include "baselines/scalardb.h"
#include "baselines/store_node.h"
#include "baselines/yugabyte.h"
#include "common/logging.h"
#include "runtime/sim_runtime.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace geotp {
namespace baselines {

using workload::ClientDriver;
using workload::DriverConfig;
using workload::ExperimentConfig;
using workload::ExperimentResult;
using workload::TpccConfig;
using workload::TpccGenerator;
using workload::WorkloadGenerator;
using workload::WorkloadKind;
using workload::YcsbConfig;
using workload::YcsbGenerator;

namespace {

std::unique_ptr<WorkloadGenerator> MakeGenerator(
    const ExperimentConfig& config, const std::vector<NodeId>& sources) {
  if (config.workload == WorkloadKind::kYcsb) {
    YcsbConfig ycsb = config.ycsb;
    ycsb.data_sources = sources;
    return std::make_unique<YcsbGenerator>(ycsb);
  }
  TpccConfig tpcc = config.tpcc;
  tpcc.data_sources = sources;
  return std::make_unique<TpccGenerator>(tpcc);
}

}  // namespace

ExperimentResult RunScalarDbExperiment(const ExperimentConfig& config) {
  sim::DefaultTopology topo =
      sim::DefaultTopology::Make(config.ds_rtts_ms, config.jitter_frac);
  sim::EventLoop loop;
  sim::Network network(&loop, topo.matrix, config.seed);
  runtime::SimRuntime rt(&loop, &network);

  std::vector<std::unique_ptr<StoreNode>> stores;
  for (NodeId node : topo.data_sources) {
    stores.push_back(std::make_unique<StoreNode>(rt.EnvFor(node)));
    stores.back()->Attach();
  }

  auto generator = MakeGenerator(config, topo.data_sources);
  middleware::Catalog catalog;
  generator->RegisterTables(&catalog);

  ScalarDbConfig db_config;
  db_config.plus = config.system == workload::SystemKind::kScalarDbPlus;
  ScalarDbNode dm(rt.EnvFor(topo.middleware), std::move(catalog), db_config);
  dm.Attach();

  DriverConfig driver_config = config.driver;
  driver_config.seed = config.seed * 7919 + 17;
  ClientDriver driver(rt.EnvFor(topo.client), topo.middleware,
                      generator.get(), driver_config);
  driver.Attach();

  if (config.pre_run) config.pre_run(&loop, &network.matrix());
  driver.Start();
  loop.RunUntil(driver_config.warmup + driver_config.measure);

  ExperimentResult result;
  result.run = driver.stats();
  result.per_type = driver.type_stats();
  result.throughput_series = driver.series().Points();
  result.events_processed = loop.events_processed();
  result.network_messages = network.total_messages();
  return result;
}

ExperimentResult RunYugabyteExperiment(const ExperimentConfig& config) {
  sim::DefaultTopology topo =
      sim::DefaultTopology::Make(config.ds_rtts_ms, config.jitter_frac);
  sim::EventLoop loop;
  sim::Network network(&loop, topo.matrix, config.seed);
  runtime::SimRuntime rt(&loop, &network);

  auto generator = MakeGenerator(config, topo.data_sources);
  auto catalog = std::make_unique<middleware::Catalog>();
  generator->RegisterTables(catalog.get());

  std::vector<std::unique_ptr<YbTabletNode>> tablets;
  for (NodeId node : topo.data_sources) {
    tablets.push_back(std::make_unique<YbTabletNode>(
        rt.EnvFor(node), catalog.get(), YbConfig()));
    tablets.back()->Attach();
  }

  DriverConfig driver_config = config.driver;
  driver_config.seed = config.seed * 7919 + 17;
  // No middleware hop: the first key's owner coordinates the transaction.
  ClientDriver driver(rt.EnvFor(topo.client), topo.data_sources.front(),
                      generator.get(), driver_config);
  const middleware::Catalog* catalog_ptr = catalog.get();
  driver.SetRouter([catalog_ptr](const workload::TxnSpec& spec) {
    for (const auto& round : spec.rounds) {
      if (!round.empty()) return catalog_ptr->Route(round.front().key);
    }
    GEOTP_CHECK(false, "empty transaction");
    return kInvalidNode;
  });
  driver.Attach();

  if (config.pre_run) config.pre_run(&loop, &network.matrix());
  driver.Start();
  loop.RunUntil(driver_config.warmup + driver_config.measure);

  ExperimentResult result;
  result.run = driver.stats();
  result.per_type = driver.type_stats();
  result.throughput_series = driver.series().Points();
  result.events_processed = loop.events_processed();
  result.network_messages = network.total_messages();
  return result;
}

}  // namespace baselines
}  // namespace geotp
