#include "core/maxbips.h"
#include "util/rng.h"
#include "util/units.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace cpm::core {
namespace {

MaxBipsConfig config() { return MaxBipsConfig{}; }

IslandObservation obs(double bips, double power, std::size_t level) {
  IslandObservation o;
  o.bips = bips;
  o.power_w = power;
  o.dvfs_level = level;
  return o;
}

TEST(MaxBips, RejectsBadConstruction) {
  EXPECT_THROW(MaxBipsManager(config(), units::Watts{0.0}), std::invalid_argument);
  MaxBipsConfig few = config();
  few.power_bins = 2;
  EXPECT_THROW(MaxBipsManager(few, units::Watts{10.0}), std::invalid_argument);
}

TEST(MaxBips, PredictionScalesLinearlyInFrequency) {
  const sim::DvfsTable& t = sim::DvfsTable::pentium_m();
  const IslandObservation o = obs(2.0, 10.0, 7);  // at 2.0 GHz
  // At level 0 (0.6 GHz): BIPS prediction = 2.0 * 0.6/2.0.
  EXPECT_NEAR(MaxBipsManager::predict_bips(o, t, 0), 0.6, 1e-12);
  EXPECT_NEAR(MaxBipsManager::predict_bips(o, t, 7), 2.0, 1e-12);
}

TEST(MaxBips, PredictionScalesPowerWithFV2) {
  const sim::DvfsTable& t = sim::DvfsTable::pentium_m();
  const IslandObservation o = obs(2.0, 10.0, 7);
  const double top_fv2 = 2.0 * 1.26 * 1.26;
  const double low_fv2 = 0.6 * 0.956 * 0.956;
  EXPECT_NEAR(MaxBipsManager::predict_power(o, t, 0).value(),
              10.0 * low_fv2 / top_fv2, 1e-12);
  EXPECT_NEAR(MaxBipsManager::predict_power(o, t, 7).value(), 10.0, 1e-12);
}

TEST(MaxBips, GenerousBudgetPicksTopLevelEverywhere) {
  MaxBipsManager mgr(config(), units::Watts{1000.0});
  std::vector<IslandObservation> islands(4, obs(1.0, 10.0, 7));
  const auto levels = mgr.choose_levels(islands);
  for (const std::size_t l : levels) EXPECT_EQ(l, 7u);
}

TEST(MaxBips, TinyBudgetPicksBottomLevels) {
  MaxBipsManager mgr(config(), units::Watts{1.0});
  std::vector<IslandObservation> islands(4, obs(1.0, 10.0, 7));
  const auto levels = mgr.choose_levels(islands);
  for (const std::size_t l : levels) EXPECT_EQ(l, 0u);
}

double total_predicted_power(const std::vector<IslandObservation>& islands,
                             const std::vector<std::size_t>& levels) {
  const sim::DvfsTable& t = sim::DvfsTable::pentium_m();
  double total = 0.0;
  for (std::size_t i = 0; i < islands.size(); ++i) {
    total += MaxBipsManager::predict_power(islands[i], t, levels[i]).value();
  }
  return total;
}

double total_predicted_bips(const std::vector<IslandObservation>& islands,
                            const std::vector<std::size_t>& levels) {
  const sim::DvfsTable& t = sim::DvfsTable::pentium_m();
  double total = 0.0;
  for (std::size_t i = 0; i < islands.size(); ++i) {
    total += MaxBipsManager::predict_bips(islands[i], t, levels[i]);
  }
  return total;
}

TEST(MaxBips, NeverExceedsBudget) {
  for (const double budget : {15.0, 25.0, 32.0, 38.0}) {
    MaxBipsManager mgr(config(), units::Watts{budget});
    std::vector<IslandObservation> islands{
        obs(2.0, 12.0, 7), obs(0.8, 9.0, 7), obs(1.5, 11.0, 7),
        obs(0.5, 8.0, 7)};
    const auto levels = mgr.choose_levels(islands);
    EXPECT_LE(total_predicted_power(islands, levels), budget + 1e-9)
        << "budget " << budget;
  }
}

TEST(MaxBips, MatchesBruteForceOnSmallInstance) {
  // 2 islands x 8 levels = 64 combinations: the DP must find the best one.
  const double budget = 14.0;
  MaxBipsManager mgr(config(), units::Watts{budget});
  std::vector<IslandObservation> islands{obs(2.0, 12.0, 7), obs(0.8, 9.0, 7)};
  const auto dp_levels = mgr.choose_levels(islands);

  double best_bips = -1.0;
  for (std::size_t a = 0; a < 8; ++a) {
    for (std::size_t b = 0; b < 8; ++b) {
      const std::vector<std::size_t> combo{a, b};
      if (total_predicted_power(islands, combo) > budget) continue;
      best_bips = std::max(best_bips, total_predicted_bips(islands, combo));
    }
  }
  // DP result (power rounded up to bins) cannot beat brute force, and must
  // come within one quantization bin of it.
  const double dp_bips = total_predicted_bips(islands, dp_levels);
  EXPECT_LE(dp_bips, best_bips + 1e-9);
  EXPECT_GT(dp_bips, best_bips * 0.97);
}

TEST(MaxBips, FavorsHighBipsPerWattIsland) {
  // Island 0 produces 4x the BIPS for the same power: under a tight budget
  // it should end at a higher level than island 1.
  MaxBipsManager mgr(config(), units::Watts{14.0});
  std::vector<IslandObservation> islands{obs(4.0, 10.0, 7), obs(1.0, 10.0, 7)};
  const auto levels = mgr.choose_levels(islands);
  EXPECT_GT(levels[0], levels[1]);
}

TEST(MaxBips, SetBudgetMatchesFreshManager) {
  // Re-targeting a live manager must behave exactly like constructing one at
  // the new budget -- the prediction table (seeded at construction) carries
  // over instead of being rebuilt.
  const std::vector<IslandObservation> islands{
      obs(2.0, 12.0, 7), obs(0.8, 9.0, 7), obs(1.5, 11.0, 7), obs(0.5, 8.0, 7)};
  MaxBipsManager reused(config(), units::Watts{38.0});
  (void)reused.choose_levels(islands);  // exercise it at the old budget first
  reused.set_budget(units::Watts{20.0});
  EXPECT_DOUBLE_EQ(reused.budget().value(), 20.0);

  MaxBipsManager fresh(config(), units::Watts{20.0});
  EXPECT_EQ(reused.choose_levels(islands), fresh.choose_levels(islands));
}

TEST(MaxBips, SetBudgetRejectsNonPositive) {
  MaxBipsManager mgr(config(), units::Watts{10.0});
  EXPECT_THROW(mgr.set_budget(units::Watts{0.0}), std::invalid_argument);
  EXPECT_THROW(mgr.set_budget(units::Watts{-5.0}), std::invalid_argument);
}

TEST(MaxBips, EmptyInput) {
  MaxBipsManager mgr(config(), units::Watts{10.0});
  EXPECT_TRUE(mgr.choose_levels({}).empty());
}

TEST(MaxBips, ScalesToEightIslands) {
  MaxBipsManager mgr(config(), units::Watts{50.0});
  std::vector<IslandObservation> islands(8, obs(1.0, 10.0, 7));
  const auto levels = mgr.choose_levels(islands);
  ASSERT_EQ(levels.size(), 8u);
  EXPECT_LE(total_predicted_power(islands, levels), 50.0 + 1e-9);
  // Symmetric islands should receive near-identical levels (within one).
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_NEAR(static_cast<double>(levels[i]),
                static_cast<double>(levels[0]), 1.0);
  }
}

TEST(MaxBips, UnpredictablePowerFallsBackToLowestLevels) {
  // A level whose predicted power is NaN, infinite or negative is never
  // affordable; an island with no affordable level sends the whole chip to
  // the lowest level (the no-fit fallback). A negative observation must not
  // turn into a cost credit that buys the other islands' top levels.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::size_t> lowest(4, 0);
  for (const double bad : {kNaN, kInf, -kInf, -5.0}) {
    std::vector<IslandObservation> islands(4, obs(1.0, 10.0, 7));
    islands[2].power_w = bad;
    MaxBipsManager mgr(config(), units::Watts{30.0});
    EXPECT_EQ(mgr.choose_levels(islands), lowest) << "power_w " << bad;
  }
  std::vector<IslandObservation> islands(4, obs(1.0, 10.0, 7));
  islands[2].leakage_w = kNaN;
  MaxBipsManager mgr(config(), units::Watts{30.0});
  EXPECT_EQ(mgr.choose_levels(islands), lowest) << "leakage_w NaN";
}

TEST(MaxBips, SolvesOncePerDistinctInput) {
  const std::vector<IslandObservation> islands{
      obs(2.0, 12.0, 7), obs(0.8, 9.0, 7), obs(1.5, 11.0, 7)};
  MaxBipsManager mgr(config(), units::Watts{25.0});
  const std::vector<std::size_t>& first = mgr.choose_levels(islands);
  const std::vector<std::size_t> expected = first;
  for (int k = 0; k < 5; ++k) {
    const std::vector<std::size_t>& again = mgr.choose_levels(islands);
    EXPECT_EQ(&again, &first);
    EXPECT_EQ(again, expected);
  }
  EXPECT_EQ(mgr.solves(), 1u);

  mgr.set_budget(units::Watts{25.0});  // same bits: still the same input
  (void)mgr.choose_levels(islands);
  EXPECT_EQ(mgr.solves(), 1u);
  mgr.set_budget(units::Watts{18.0});
  (void)mgr.choose_levels(islands);
  EXPECT_EQ(mgr.solves(), 2u);

  // Inputs compare by bit pattern: -0.0 differs from +0.0, and a repeated
  // NaN is the same input.
  std::vector<IslandObservation> signed_zero = islands;
  signed_zero[1].leakage_w = -0.0;
  (void)mgr.choose_levels(signed_zero);
  EXPECT_EQ(mgr.solves(), 3u);
  std::vector<IslandObservation> nan = islands;
  nan[0].bips = std::numeric_limits<double>::quiet_NaN();
  (void)mgr.choose_levels(nan);
  (void)mgr.choose_levels(nan);
  EXPECT_EQ(mgr.solves(), 4u);
  // Fields the DP does not read are not part of the input.
  std::vector<IslandObservation> unread = islands;
  unread[0].utilization = 0.5;
  unread[0].instructions = 1e6;
  unread[0].energy_j = 0.1;
  (void)mgr.choose_levels(islands);
  EXPECT_EQ(mgr.solves(), 5u);
  (void)mgr.choose_levels(unread);
  EXPECT_EQ(mgr.solves(), 5u);
}

IslandObservation random_island(util::Xoshiro256pp& rng) {
  IslandObservation o;
  o.bips = rng.uniform(0.3, 3.0);
  o.power_w = rng.uniform(4.0, 15.0);
  o.leakage_w = rng.uniform(0.0, o.power_w);
  o.dvfs_level = rng.uniform_int(8);
  return o;
}

TEST(MaxBips, RepeatedCallsAnswerLikeAFreshManager) {
  // Seeded sequences of exact repeats, single-field changes to each input
  // the DP reads, island-count changes and budget changes: every answer of
  // one long-lived manager must equal a fresh manager's answer.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Xoshiro256pp rng(seed);
    std::vector<IslandObservation> islands;
    for (int i = 0; i < 4; ++i) islands.push_back(random_island(rng));
    double budget = 30.0;
    MaxBipsManager mgr(config(), units::Watts{budget});
    for (int step = 0; step < 400; ++step) {
      const std::size_t i = rng.uniform_int(islands.size());
      switch (rng.uniform_int(8)) {
        case 0:
        case 1:
          break;  // exact repeat
        case 2:
          islands[i].bips = rng.uniform(0.3, 3.0);
          break;
        case 3:
          islands[i].power_w = rng.uniform(4.0, 15.0);
          break;
        case 4:
          islands[i].leakage_w = rng.uniform(0.0, islands[i].power_w);
          break;
        case 5:
          islands[i].dvfs_level = rng.uniform_int(8);
          break;
        case 6:
          if (islands.size() > 1 && rng.bernoulli(0.5)) {
            islands.pop_back();
          } else if (islands.size() < 6) {
            islands.push_back(random_island(rng));
          }
          break;
        default: {
          double total = 0.0;
          for (const IslandObservation& o : islands) total += o.power_w;
          budget = total * rng.uniform(0.3, 0.95);
          mgr.set_budget(units::Watts{budget});
          break;
        }
      }
      MaxBipsManager fresh(config(), units::Watts{budget});
      const std::vector<std::size_t>& expected = fresh.choose_levels(islands);
      const std::vector<std::size_t>& actual = mgr.choose_levels(islands);
      ASSERT_EQ(actual, expected) << "seed " << seed << " step " << step;
    }
    EXPECT_LT(mgr.solves(), 400u);
  }
}

}  // namespace
}  // namespace cpm::core
