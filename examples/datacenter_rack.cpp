// Scenario: a facility hosts N CMP nodes; facilities give the cluster one
// power budget. The ClusterPowerManager plays the paper's GPM one level up --
// it re-provisions the budget across nodes every epoch in proportion to each
// chip's measured throughput-per-watt, while every node's own GPM + PICs
// enforce the per-chip budget they are handed. The same decoupled
// provision-then-cap hierarchy, recursively; see docs/CLUSTER.md.
//
// Default: the classic four-node rack (two Mix-1 nodes, one Mix-2, one
// memory-bound analytics node) with full in-memory traces. With --chips N
// it scales to an N-node fleet built by make_cluster_chips (per-shard RNG
// streams, shards calibrated in lockstep and in parallel) with bounded
// per-chip sinks -- results are bit-identical at any --threads value.
//
// Exercises: ClusterPowerManager, resumable SimulationRun, heterogeneous
// nodes, sharded parallel epochs.
//
//   datacenter_rack [--chips N] [--threads T] [--budget-fraction F]
//                   [--epoch-s E] [--duration S]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/cluster.h"
#include "core/experiment.h"
#include "util/table.h"
#include "workload/mixes.h"

namespace {

/// The curated four-node rack: two Mix-1 nodes, one Mix-2, one running only
/// memory-bound work (a storage/analytics node that cannot convert much
/// power into BIPS).
std::vector<std::unique_ptr<cpm::core::Simulation>> curated_rack() {
  using namespace cpm;
  std::vector<std::unique_ptr<core::Simulation>> chips;
  for (int c = 0; c < 4; ++c) {
    core::SimulationConfig cfg = core::default_config(1.0, 100 + c);
    if (c == 2) cfg.mix = workload::mix2();
    if (c == 3) {
      cfg.mix.name = "all-memory";
      cfg.mix.islands = {
          {&workload::find_profile("sclust"), &workload::find_profile("fsim")},
          {&workload::find_profile("canneal"), &workload::find_profile("vips")},
          {&workload::find_profile("sclust"), &workload::find_profile("canneal")},
          {&workload::find_profile("fsim"), &workload::find_profile("vips")},
      };
    }
    chips.push_back(std::make_unique<core::Simulation>(cfg));
  }
  return chips;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpm;

  std::size_t num_chips = 4;
  std::size_t threads = 0;  // hardware concurrency
  double budget_fraction = 0.75;
  double epoch_s = 0.025;
  double duration_s = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--chips" && has_value) {
      num_chips = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--threads" && has_value) {
      threads = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--budget-fraction" && has_value) {
      budget_fraction = std::atof(argv[++i]);
    } else if (arg == "--epoch-s" && has_value) {
      epoch_s = std::atof(argv[++i]);
    } else if (arg == "--duration" && has_value) {
      duration_s = std::atof(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "datacenter_rack [--chips N] [--threads T] [--budget-fraction F] "
          "[--epoch-s E] [--duration S]\n");
      return 0;
    } else {
      std::fprintf(stderr, "datacenter_rack: bad argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  const bool curated = num_chips == 4;

  std::unique_ptr<core::ClusterPowerManager> cluster;
  try {
    std::vector<std::unique_ptr<core::Simulation>> chips;
    if (curated) {
      chips = curated_rack();
    } else {
      // A generated fleet of small heterogeneous nodes: per-chip seeds and
      // mixes come from per-shard RNG streams, calibration runs in parallel.
      core::SimulationConfig base = core::default_config(1.0, 100);
      chips = core::make_cluster_chips(base, num_chips, /*seed=*/100);
    }

    core::ClusterConfig cfg;
    cfg.budget_fraction = budget_fraction;
    cfg.epoch_s = epoch_s;
    cfg.threads = threads;
    if (curated) {
      // Small fleet: keep every epoch and the full per-chip traces.
      cfg.min_share = 0.05;
      cfg.keep_chip_results = true;
      cfg.sink_factory = [](std::size_t) {
        return std::make_unique<core::InMemorySink>();
      };
    } else {
      // At scale, bound the memory: bounded per-chip sinks (the default)
      // and a decimated epoch series.
      cfg.epoch_capacity = 128;
    }
    cluster =
        std::make_unique<core::ClusterPowerManager>(cfg, std::move(chips));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "datacenter_rack: %s\n", e.what());
    return 2;
  }
  std::printf("cluster budget: %.1f W (%.0f%% of %zu nodes' combined max)\n\n",
              cluster->cluster_budget_w(), budget_fraction * 100.0,
              cluster->num_chips());

  const core::ClusterResult res = cluster->run(duration_s);

  util::AsciiTable table({"node", "workload", "final budget (W)",
                          "mean power (W)", "instructions (G)"});
  const char* curated_names[] = {"node-0 (Mix-1)", "node-1 (Mix-1)",
                                 "node-2 (Mix-2)", "node-3 (all-memory)"};
  const std::size_t shown = std::min<std::size_t>(res.chips.size(), 8);
  for (std::size_t c = 0; c < shown; ++c) {
    table.add_row({std::to_string(c),
                   curated ? curated_names[c] : "generated",
                   util::AsciiTable::num(res.chips[c].budget_w, 1),
                   util::AsciiTable::num(res.chips[c].mean_power_w, 1),
                   util::AsciiTable::num(res.chips[c].instructions / 1e9, 2)});
  }
  table.print(std::cout);
  if (shown < res.chips.size()) {
    std::printf("  ... and %zu more nodes\n", res.chips.size() - shown);
  }

  std::printf("\ncluster power: %.1f W against a %.1f W budget (%.1f%%), "
              "%zu epochs\n",
              res.total_power_w, res.cluster_budget_w,
              res.total_power_w / res.cluster_budget_w * 100.0, res.epochs);
  if (res.invariant_violations != 0) {
    std::fprintf(stderr, "invariant violations: %zu (%s)\n",
                 res.invariant_violations, res.first_violation.c_str());
    return 1;
  }

  if (!curated) {
    // Shape check for CI: the run stayed within budget and memory bounds.
    const bool bounded = res.epoch_power_w.size() <= 128;
    const bool tracked =
        res.epoch_power_w.empty() ||
        res.epoch_power_w.back() <= res.cluster_budget_w * 1.15;
    return bounded && tracked ? 0 : 1;
  }

  std::cout << "\nThe memory-heavy node cannot convert power into throughput,\n"
               "so the cluster tier drains its share toward the compute nodes\n"
               "-- the same reallocation the GPM performs across islands, one\n"
               "level up the hierarchy.\n";

  // Shape check for CI: the all-memory node ends with the smallest budget.
  double min_other = 1e18;
  for (std::size_t c = 0; c < 3; ++c) {
    min_other = std::min(min_other, res.chips[c].budget_w);
  }
  return res.chips[3].budget_w < min_other ? 0 : 1;
}
