// Umbrella header: the full public API of the hybridcdn library.
//
// Quick start:
//
//   #include "src/core/hybridcdn.h"
//
//   cdn::core::ScenarioConfig cfg;          // paper defaults (N=50, M=200)
//   cfg.storage_fraction = 0.05;            // 5% capacity
//   cdn::core::Scenario scenario(cfg);
//
//   auto runs = cdn::core::run_mechanisms(
//       scenario,
//       {cdn::core::replication_mechanism(), cdn::core::caching_mechanism(),
//        cdn::core::hybrid_mechanism()},
//       cdn::sim::SimulationConfig{});
//   std::cout << cdn::core::summary_table(runs).str();

#pragma once

#include "src/cache/cache_factory.h"
#include "src/cache/clock_cache.h"
#include "src/cache/delayed_lru_cache.h"
#include "src/cache/fifo_cache.h"
#include "src/cache/lfu_cache.h"
#include "src/cache/lru_cache.h"
#include "src/cdn/cost.h"
#include "src/cdn/distance_oracle.h"
#include "src/cdn/nearest_replica.h"
#include "src/cdn/replication.h"
#include "src/cdn/system.h"
#include "src/cluster/cluster_replication.h"
#include "src/cluster/cluster_scheme.h"
#include "src/cluster/cluster_sim.h"
#include "src/core/experiment.h"
#include "src/core/scenario.h"
#include "src/fault/fault_schedule.h"
#include "src/model/characteristic_time.h"
#include "src/model/hit_ratio_curve.h"
#include "src/model/server_cache_state.h"
#include "src/placement/adaptive.h"
#include "src/placement/baselines.h"
#include "src/placement/fixed_split.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/redirect/client_population.h"
#include "src/redirect/server_selection.h"
#include "src/sim/consistency.h"
#include "src/sim/consistency_sim.h"
#include "src/sim/simulator.h"
#include "src/topology/transit_stub.h"
#include "src/util/cdf.h"
#include "src/util/cli.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/workload/demand.h"
#include "src/workload/request_stream.h"
#include "src/workload/site_catalog.h"
