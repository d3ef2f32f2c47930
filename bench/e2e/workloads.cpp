#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/cluster.h"
#include "core/experiment.h"
#include "core/invariant_checker.h"
#include "core/record_sink.h"
#include "probe.h"
#include "util/parallel.h"
#include "workload/mixes.h"

namespace cpm::e2e {
namespace {

std::size_t ticks_per_window(const sim::CmpConfig& cmp) {
  return cmp.ticks_per_pic_interval * cmp.pic_invocations_per_gpm();
}

/// One rep's length (windows, simulated seconds or points) per RepSize.
template <typename T>
struct BySize {
  T timed;
  T full;
  T slice;

  T operator()(RepSize size) const {
    switch (size) {
      case RepSize::kFull:
        return full;
      case RepSize::kSlice:
        return slice;
      case RepSize::kTimed:
        break;
    }
    return timed;
  }
};

/// The sink chain of one chip: probe -> [CheckingSink -> [probe] ->]
/// terminal. The inner probe exists only to time the terminal sink when the
/// checker is in the chain, so checker time = outer - inner.
struct ChipSinks {
  ChipSinks(const core::Simulation& sim, core::RecordSink& terminal,
            bool checked, bool time_sinks, SegmentClock* segments)
      : checker(core::checker_config_for(sim)) {
    core::RecordSink* next = &terminal;
    if (checked) {
      if (time_sinks) {
        inner.emplace(terminal, ProbeOptions{.time_forward = true});
        next = &*inner;
      }
      checking.emplace(checker, *next);
      next = &*checking;
    }
    outer.emplace(*next, ProbeOptions{.segments = segments,
                                      .time_forward = time_sinks});
  }

  void fill(RepResult& r) const {
    r.records += outer->records();
    r.violations += checker.violations().size();
    if (inner) {
      r.sink_ns += inner->forward_ns();
      r.checker_ns += outer->forward_ns() - inner->forward_ns();
    } else {
      r.sink_ns += outer->forward_ns();
    }
  }

  core::InvariantChecker checker;
  std::optional<ProbeSink> inner;
  std::optional<core::CheckingSink> checking;
  std::optional<ProbeSink> outer;
};

// ---------------------------------------------------------------------------
// Single chip, driven one GPM window per advance() call.
// ---------------------------------------------------------------------------
class ChipWorkload final : public Workload {
 public:
  ChipWorkload(core::SimulationConfig config, BySize<std::size_t> windows,
               bool always_checked)
      : config_(std::move(config)),
        windows_(windows),
        always_checked_(always_checked) {}

  void setup(std::size_t) override {
    ScopedSpan span("bench.construct");
    sim_ = std::make_unique<core::Simulation>(config_);
  }
  void release() override { sim_.reset(); }

  RepResult rep(const RepOptions& opt) override {
    const std::size_t windows = windows_(opt.size);
    core::BoundedSink terminal;
    SegmentClock segments;
    ChipSinks sinks(*sim_, terminal, always_checked_ || opt.checked,
                    opt.time_sinks, &segments);
    auto run = sim_->start(*sinks.outer);
    const double window_s = config_.cmp.gpm_interval_s;

    RepResult r;
    segments.start();
    const double t0 = host_now_s();
    {
      ScopedSpan rep_span("bench.rep");
      for (std::size_t w = 0; w < windows; ++w) {
        ScopedSpan span("bench.advance");
        run->advance(window_s);
      }
    }
    r.host_s = host_now_s() - t0;
    r.segment_us = segments.finish();
    const core::SimulationResult result = run->finish();

    r.windows = windows;
    r.core_ticks = static_cast<double>(windows) *
                   static_cast<double>(ticks_per_window(config_.cmp)) *
                   static_cast<double>(config_.cmp.total_cores());
    r.digest = sinks.outer->digest();
    r.sim_bips = result.avg_chip_bips;
    r.budget_err_pct = sinks.outer->budget_err_pct();
    sinks.fill(r);
    return r;
  }

  bool parallel() const override { return false; }
  const core::SimulationConfig& chip_config() const override { return config_; }

 private:
  core::SimulationConfig config_;
  BySize<std::size_t> windows_;
  bool always_checked_;
  std::unique_ptr<core::Simulation> sim_;
};

// ---------------------------------------------------------------------------
// Sharded fleet under the cluster tier.
// ---------------------------------------------------------------------------
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(core::SimulationConfig base, std::size_t chips,
                bool vary_mixes, core::ClusterConfig cluster,
                BySize<double> duration_s, std::uint64_t seed)
      : base_(std::move(base)),
        chips_(chips),
        vary_mixes_(vary_mixes),
        cluster_(std::move(cluster)),
        duration_s_(duration_s),
        seed_(seed) {}

  void setup(std::size_t threads) override {
    manager_ = build(threads);
    manager_threads_ = threads;
  }
  void release() override {
    manager_.reset();
    manager_threads_ = 0;
  }

  RepResult rep(const RepOptions& opt) override {
    // ClusterConfig::threads is fixed at construction, so another thread
    // count rebuilds the fleet (the fleet itself is thread-count independent).
    if (!manager_ || opt.threads != manager_threads_) {
      release();
      setup(opt.threads);
    }
    core::ClusterPowerManager& manager = *manager_;

    // The manager's sink factory (see build()) reads this state; it runs
    // serially inside run(), and each probe reports into its chip's slot
    // when the run finishes that chip.
    probes_.options = opt;
    probes_.outs.assign(chips_, ChipOut{});
    probes_.checkers.clear();
    probes_.checkers.resize(chips_);
    probes_.checker_config = core::checker_config_for(reference());
    SegmentClock segments;
    probes_.segments = opt.threads == 1 ? &segments : nullptr;

    const double duration = duration_s_(opt.size);
    RepResult r;
    segments.start();
    const double t0 = host_now_s();
    core::ClusterResult res;
    {
      ScopedSpan span("bench.rep");
      ScopedSpan run_span("bench.cluster_run");
      res = manager.run(duration);
    }
    r.host_s = host_now_s() - t0;
    if (probes_.segments) r.segment_us = segments.finish();
    probes_.segments = nullptr;

    Digest d;
    for (const ChipOut& out : probes_.outs) {
      d.add(out.digest);
      r.records += out.records;
      r.sink_ns += out.sink_ns;
    }
    d.add(res.total_power_w);
    d.add(res.total_instructions);
    d.add(res.provisioned_budget_w);
    d.add(res.epoch_power_w);
    d.add(res.epoch_budget_w);
    r.digest = d.value();
    r.windows = res.epochs;
    const double ticks_per_epoch =
        std::round(cluster_.epoch_s / base_.cmp.tick_seconds());
    r.core_ticks = static_cast<double>(res.epochs) * ticks_per_epoch *
                   static_cast<double>(chips_) *
                   static_cast<double>(base_.cmp.total_cores());
    for (const core::ClusterChipStats& chip : res.chips) {
      r.sim_bips += chip.mean_bips;
    }
    double err = 0.0;
    std::size_t n = 0;
    for (std::size_t e = ProbeSink::kWarmupWindows;
         e < res.epoch_power_w.size(); ++e) {
      err += std::abs(res.epoch_power_w[e] - res.cluster_budget_w) /
             res.cluster_budget_w;
      ++n;
    }
    r.budget_err_pct = n ? 100.0 * err / static_cast<double>(n) : 0.0;
    r.violations = res.invariant_violations;
    for (const auto& checker : probes_.checkers) {
      if (checker) r.violations += checker->violations().size();
    }
    return r;
  }

  bool parallel() const override { return true; }
  const core::SimulationConfig& chip_config() const override { return base_; }

 private:
  struct ChipOut {
    std::uint64_t digest = 0;
    std::uint64_t records = 0;
    double sink_ns = 0.0;
  };
  struct ProbeState {
    RepOptions options;
    SegmentClock* segments = nullptr;
    core::InvariantCheckerConfig checker_config;
    std::vector<ChipOut> outs;
    std::vector<std::unique_ptr<core::InvariantChecker>> checkers;
  };

  std::unique_ptr<core::ClusterPowerManager> build(std::size_t threads) {
    ScopedSpan span("bench.construct");
    core::ClusterConfig cfg = cluster_;
    cfg.threads = threads;
    cfg.sink_factory =
        [state = &probes_](std::size_t c) -> std::unique_ptr<core::RecordSink> {
      std::unique_ptr<core::RecordSink> inner =
          std::make_unique<core::BoundedSink>();
      if (state->options.checked) {
        state->checkers[c] =
            std::make_unique<core::InvariantChecker>(state->checker_config);
        inner = std::make_unique<core::CheckingSink>(*state->checkers[c],
                                                     std::move(inner));
      }
      return std::make_unique<ProbeSink>(
          std::move(inner),
          ProbeOptions{.segments = state->segments,
                       .time_forward = state->options.time_sinks},
          [state, c](const ProbeSink& probe) {
            state->outs[c] = ChipOut{probe.digest(), probe.records(),
                                     probe.forward_ns()};
          });
    };
    auto chips =
        core::make_cluster_chips(base_, chips_, seed_, vary_mixes_, threads);
    return std::make_unique<core::ClusterPowerManager>(cfg, std::move(chips));
  }

  /// A calibrated chip of the fleet's topology and policy, for the checker
  /// config (the config depends only on those, never on the mix).
  const core::Simulation& reference() {
    if (!reference_) {
      core::SimulationConfig cfg = base_;
      cfg.calibration_seconds = 0.0;
      reference_ = std::make_unique<core::Simulation>(cfg);
    }
    return *reference_;
  }

  core::SimulationConfig base_;
  std::size_t chips_;
  bool vary_mixes_;
  core::ClusterConfig cluster_;
  BySize<double> duration_s_;
  std::uint64_t seed_;
  ProbeState probes_;
  std::unique_ptr<core::ClusterPowerManager> manager_;
  std::size_t manager_threads_ = 0;
  std::unique_ptr<core::Simulation> reference_;
};

// ---------------------------------------------------------------------------
// Task-parallel figure sweep.
// ---------------------------------------------------------------------------
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::vector<core::SimulationConfig> points, double duration_s,
                std::size_t slice_points)
      : points_(std::move(points)),
        duration_s_(duration_s),
        slice_points_(std::min(points_.size(), slice_points)) {}

  void setup(std::size_t threads) override {
    ScopedSpan span("bench.construct");
    sims_ = util::parallel_map<std::unique_ptr<core::Simulation>>(
        points_.size(),
        [this](std::size_t i) {
          ScopedSpan task("bench.construct_point");
          return std::make_unique<core::Simulation>(points_[i]);
        },
        threads);
  }
  void release() override { sims_.clear(); }

  RepResult rep(const RepOptions& opt) override {
    struct PointOut {
      std::uint64_t digest = 0;
      double bips = 0.0;
      double err = 0.0;
      std::uint64_t windows = 0;
      RepResult sinks;  // records / violations / sink and checker time
    };
    // A timed rep is already the full sweep: its simulated outputs are
    // stable across seeds.
    const std::size_t count =
        opt.size == RepSize::kSlice ? slice_points_ : points_.size();
    RepResult r;
    std::vector<PointOut> outs;
    SegmentClock clock;
    SegmentClock* segments = opt.threads == 1 ? &clock : nullptr;
    clock.start();
    const double t0 = host_now_s();
    {
      ScopedSpan span("bench.rep");
      ScopedSpan map_span("bench.parallel_map");
      outs = util::parallel_map<PointOut>(
          count,
          [this, &opt, segments](std::size_t i) {
            ScopedSpan task("bench.point");
            core::InMemorySink terminal;
            ChipSinks sinks(*sims_[i], terminal, opt.checked, opt.time_sinks,
                            segments);
            const core::SimulationResult res =
                sims_[i]->run(duration_s_, *sinks.outer);
            PointOut out;
            out.digest = sinks.outer->digest();
            out.bips = res.avg_chip_bips;
            out.err = sinks.outer->budget_err_pct();
            out.windows = sinks.outer->gpm_windows();
            sinks.fill(out.sinks);
            return out;
          },
          opt.threads);
    }
    r.host_s = host_now_s() - t0;
    if (segments) r.segment_us = clock.finish();

    Digest d;
    for (const PointOut& out : outs) {
      d.add(out.digest);
      r.sim_bips += out.bips;
      r.budget_err_pct += out.err;
      r.windows += out.windows;
      r.records += out.sinks.records;
      r.violations += out.sinks.violations;
      r.sink_ns += out.sinks.sink_ns;
      r.checker_ns += out.sinks.checker_ns;
    }
    r.digest = d.value();
    r.sim_bips /= static_cast<double>(count);
    r.budget_err_pct /= static_cast<double>(count);
    const sim::CmpConfig& cmp = points_.front().cmp;
    r.core_ticks = static_cast<double>(r.windows) *
                   static_cast<double>(ticks_per_window(cmp)) *
                   static_cast<double>(cmp.total_cores());
    return r;
  }

  bool parallel() const override { return true; }
  const core::SimulationConfig& chip_config() const override {
    return points_.front();
  }

 private:
  std::vector<core::SimulationConfig> points_;
  double duration_s_;
  std::size_t slice_points_;
  std::vector<std::unique_ptr<core::Simulation>> sims_;
};

/// The ext_cluster node: 2 islands x 2 cores of Mix-1 applications (for
/// `fleet`, make_cluster_chips draws each chip's mix from the profile pool).
core::SimulationConfig fleet_node(std::uint64_t seed) {
  core::SimulationConfig base = core::default_config(1.0, seed);
  base.cmp.num_islands = 2;
  base.cmp.cores_per_island = 2;
  base.mix = workload::mix1_regrouped(2);
  base.mix.islands.resize(2);
  return base;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "chip_long", "chip_control", "fleet", "fleet_short", "sweep"};
  return names;
}

// Rep sizes: the timed phase keeps each GPM window's fastest time over its
// reps, so timed reps are short (tens of ms to under a second) and a run
// gives every window many chances to meet a quiet host. The simulated
// outputs come from longer full reps: over a timed rep, budget_err_pct
// spread up to 10% across seeds.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale) {
  const bool smoke = scale == Scale::kSmoke;
  if (name == "chip_long") {
    // One 64-core chip: the per-core tick kernel (workload, micro-model,
    // power, thermal) dominates; the control layers run rarely per
    // core-tick and the pool is idle.
    core::SimulationConfig cfg = core::scaled_config(64, 0.8, seed);
    cfg.calibration_seconds = smoke ? 0.05 : 1.0;
    const BySize<std::size_t> windows =
        smoke ? BySize<std::size_t>{40, 40, 40}
              : BySize<std::size_t>{250, 1000, 1000};
    return std::make_unique<ChipWorkload>(cfg, windows, false);
  }
  if (name == "chip_control") {
    // Eight one-core islands under the thermal policy with online
    // transducers, sensor noise and the invariant checker in the sink
    // chain: the PIC, GPM, record and checker paths dominate each window.
    core::SimulationConfig cfg =
        core::thermal_config(core::PolicyKind::kThermal, 0.8, seed);
    cfg.adaptive_transducer = true;
    cfg.sensor_noise_sigma = 0.02;
    const BySize<std::size_t> windows =
        smoke ? BySize<std::size_t>{200, 200, 200}
              : BySize<std::size_t>{1000, 5000, 2000};
    return std::make_unique<ChipWorkload>(cfg, windows, true);
  }
  if (name == "fleet" || name == "fleet_short") {
    const bool short_epochs = name == "fleet_short";
    core::SimulationConfig base = fleet_node(seed);
    core::ClusterConfig cluster;
    cluster.budget_fraction = 0.75;
    cluster.objective = core::ClusterObjective::kEfficiency;
    cluster.integral_gain = 0.1;
    cluster.epoch_capacity = 0;  // keep every epoch: budget_err_pct needs it
    if (short_epochs) {
      // Millisecond epochs over a small fleet, one chip per shard: per-epoch
      // overhead (cluster bookkeeping, and on the pool dispatch, wake-up and
      // park) dominates the little sim work per epoch.
      // Every chip runs the node's own mix (seeds still differ per chip):
      // with only 16 chips, drawn mixes would make the simulated outcome
      // swing from seed to seed.
      base.cmp.gpm_interval_s = 1e-3;
      base.cmp.pic_interval_s = 1e-4;
      cluster.shard_size = 1;
    } else {
      // Many small chips: per-chip overheads and memory, and on the pool
      // shard imbalance and shared counters, decide throughput.
      cluster.shard_size = 16;
    }
    cluster.epoch_s = base.cmp.gpm_interval_s;
    const std::size_t chips = short_epochs ? (smoke ? 4 : 16)
                                           : (smoke ? 16 : 512);
    const double smoke_s = short_epochs ? 0.1 : 0.05;
    const BySize<double> duration =
        smoke ? BySize<double>{smoke_s, smoke_s, smoke_s}
        : short_epochs ? BySize<double>{0.25, 1.0, 0.25}
                       : BySize<double>{0.25, 0.5, 0.05};
    return std::make_unique<FleetWorkload>(base, chips, !short_epochs,
                                           cluster, duration, seed);
  }
  if (name == "sweep") {
    // How figures are regenerated: many short, independently calibrated
    // points fanned out with parallel_map, every record kept in memory.
    const std::size_t n = smoke ? 24 : 512;
    const core::ManagerKind managers[] = {core::ManagerKind::kCpm,
                                          core::ManagerKind::kMaxBips,
                                          core::ManagerKind::kNoDvfs};
    std::vector<core::SimulationConfig> points;
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double budget = 0.50 + 0.05 * static_cast<double>(i % 10);
      core::SimulationConfig cfg = core::default_config(budget, seed + i);
      cfg.manager = managers[(i / 10) % 3];
      points.push_back(std::move(cfg));
    }
    return std::make_unique<SweepWorkload>(std::move(points),
                                           smoke ? 0.05 : 0.25, 64);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace cpm::e2e
