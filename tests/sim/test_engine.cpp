#include "malsched/sim/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>

#include "malsched/core/generators.hpp"
#include "malsched/core/wdeq.hpp"
#include "malsched/sim/policy.hpp"

namespace mc = malsched::core;
namespace msim = malsched::sim;
namespace ms = malsched::support;

TEST(Engine, WdeqPolicyMatchesCoreWdeq) {
  // The generic engine running the WDEQ policy must reproduce core's
  // dedicated WDEQ simulation exactly.
  ms::Rng rng(211);
  for (int rep = 0; rep < 20; ++rep) {
    mc::GeneratorConfig config;
    config.family = mc::Family::Uniform;
    config.num_tasks = 6;
    config.processors = 3.0;
    const auto inst = mc::generate(config, rng);
    const auto engine = msim::run_policy(inst, *msim::make_wdeq_policy());
    const auto direct = mc::run_wdeq(inst);
    const auto direct_completions = direct.schedule.completions();
    for (std::size_t i = 0; i < inst.size(); ++i) {
      EXPECT_NEAR(engine.completions[i], direct_completions[i], 1e-9)
          << "rep " << rep << " task " << i;
    }
  }
}

TEST(Engine, SchedulesAreValidForAllPolicies) {
  ms::Rng rng(223);
  for (const auto& policy : msim::all_policies()) {
    for (int rep = 0; rep < 10; ++rep) {
      mc::GeneratorConfig config;
      config.family = mc::Family::Uniform;
      config.num_tasks = 6;
      config.processors = 2.0;
      const auto inst = mc::generate(config, rng);
      const auto result = msim::run_policy(inst, *policy);
      const auto check = result.schedule.validate(inst);
      EXPECT_TRUE(check.valid)
          << policy->name() << " rep " << rep << ": " << check.message;
      EXPECT_LE(result.events, inst.size() + 1) << policy->name();
    }
  }
}

TEST(Engine, WeightedCompletionConsistent) {
  ms::Rng rng(227);
  mc::GeneratorConfig config;
  config.family = mc::Family::Uniform;
  config.num_tasks = 5;
  config.processors = 2.0;
  const auto inst = mc::generate(config, rng);
  for (const auto& policy : msim::all_policies()) {
    const auto result = msim::run_policy(inst, *policy);
    EXPECT_NEAR(result.weighted_completion,
                result.schedule.weighted_completion(inst), 1e-7)
        << policy->name();
  }
}

TEST(Engine, SmithGreedyBeatsFifoOnSkewedWeights) {
  // A clairvoyant priority policy should dominate rigid FCFS on instances
  // with a heavy short task stuck behind a long one.
  const mc::Instance inst(2.0, {{4.0, 2.0, 0.1},    // long, unimportant
                                {0.2, 2.0, 10.0}});  // short, critical
  const auto smith = msim::run_policy(inst, *msim::make_smith_greedy_policy());
  const auto fifo = msim::run_policy(inst, *msim::make_fifo_rigid_policy());
  EXPECT_LT(smith.weighted_completion, fifo.weighted_completion);
}

TEST(Engine, FifoRigidIsSequentialForFullWidthTasks) {
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}, {2.0, 2.0, 1.0}});
  const auto result = msim::run_policy(inst, *msim::make_fifo_rigid_policy());
  EXPECT_NEAR(result.completions[0], 1.0, 1e-9);
  EXPECT_NEAR(result.completions[1], 2.0, 1e-9);
}

TEST(Engine, WrrWastesSurplusUnlikeWdeq) {
  // One narrow task and one wide: WDEQ redistributes the narrow task's
  // surplus, WRR does not, so WDEQ finishes the wide task earlier.
  const mc::Instance inst(4.0, {{1.0, 1.0, 1.0}, {4.0, 4.0, 1.0}});
  const auto wdeq = msim::run_policy(inst, *msim::make_wdeq_policy());
  const auto wrr = msim::run_policy(inst, *msim::make_wrr_policy());
  EXPECT_LT(wdeq.completions[1], wrr.completions[1] - 1e-9);
}

TEST(Engine, RigidDeadlockGuard) {
  // First task wider than P can never fit "rigidly": the guard lets it run
  // malleably instead of hanging.
  const mc::Instance inst(2.0, {{4.0, 3.0, 1.0}});
  const auto result = msim::run_policy(inst, *msim::make_fifo_rigid_policy());
  EXPECT_NEAR(result.completions[0], 2.0, 1e-9);
}

TEST(Engine, EmptyInstanceProducesEmptyResult) {
  // The service layer forwards arbitrary client instances; zero tasks must
  // be a no-op for every policy, not a crash.
  const mc::Instance empty(2.0, {});
  for (const auto& policy : msim::all_policies()) {
    const auto result = msim::run_policy(empty, *policy);
    EXPECT_EQ(result.events, 0u) << policy->name();
    EXPECT_EQ(result.weighted_completion, 0.0) << policy->name();
    EXPECT_TRUE(result.completions.empty()) << policy->name();
    EXPECT_TRUE(result.schedule.steps().empty()) << policy->name();
  }
}

TEST(Engine, EventCountStaysWithinDefaultMaxEvents) {
  // EngineOptions documents the default budget max_events = 4n + 16; verify
  // every built-in policy fits it with margin across families.
  ms::Rng rng(229);
  for (const auto& policy : msim::all_policies()) {
    for (const auto family :
         {mc::Family::Uniform, mc::Family::BandwidthLike,
          mc::Family::HeavyTailVolumes}) {
      for (int rep = 0; rep < 5; ++rep) {
        mc::GeneratorConfig config;
        config.family = family;
        config.num_tasks = 8;
        config.processors = 4.0;
        const auto inst = mc::generate(config, rng);

        const auto result = msim::run_policy(inst, *policy);
        EXPECT_LE(result.events, 4 * inst.size() + 16) << policy->name();
      }
    }
  }
}

TEST(EngineDeathTest, StarvingPolicyTripsTheSafetyValve) {
  // A policy that never allocates anything makes no progress; the engine
  // must abort with a diagnostic instead of spinning forever.
  class StarvingPolicy final : public msim::AllocationPolicy {
   public:
    [[nodiscard]] std::string name() const override { return "starve"; }
    [[nodiscard]] std::vector<double> allocate(
        const msim::PolicyContext& context) const override {
      return std::vector<double>(context.weights.size(), 0.0);
    }
  };
  const mc::Instance inst(2.0, {{1.0, 1.0, 1.0}});
  EXPECT_DEATH((void)msim::run_policy(inst, StarvingPolicy()), "starves");
}

TEST(EngineDeathTest, ExplicitMaxEventsIsAHardCap) {
  // max_events is documented as the exact abort threshold: a 2-task run
  // needs 2 events, so a budget of 1 must trip the valve.
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 1.0}});
  msim::EngineOptions options;
  options.max_events = 1;
  EXPECT_DEATH(
      (void)msim::run_policy(inst, *msim::make_wdeq_policy(), options),
      "stopped making progress");
}

TEST(Engine, ExplicitMaxEventsOverrideIsAccepted) {
  // A generous explicit budget must not change results.
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 1.0}});
  msim::EngineOptions options;
  options.max_events = 1000;
  const auto result =
      msim::run_policy(inst, *msim::make_wdeq_policy(), options);
  const auto default_result = msim::run_policy(inst, *msim::make_wdeq_policy());
  EXPECT_EQ(result.weighted_completion, default_result.weighted_completion);
  EXPECT_EQ(result.events, default_result.events);
}

TEST(Engine, PreCancelledTokenAbortsBeforeTheFirstEvent) {
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 1.0}});
  mc::CancelSource source;
  source.request_cancel();
  msim::EngineOptions options;
  options.cancel = source.token();
  const auto result =
      msim::run_policy(inst, *msim::make_wdeq_policy(), options);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.events, 0u);
  for (const double completion : result.completions) {
    EXPECT_EQ(completion, 0.0);  // partial trace: nothing finished
  }
}

TEST(Engine, UnfiredTokenChangesNothing) {
  const mc::Instance inst(2.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 1.0}});
  mc::CancelSource source;
  msim::EngineOptions options;
  options.cancel = source.token();
  const auto with_token =
      msim::run_policy(inst, *msim::make_wdeq_policy(), options);
  const auto without = msim::run_policy(inst, *msim::make_wdeq_policy());
  EXPECT_FALSE(with_token.cancelled);
  EXPECT_EQ(with_token.weighted_completion, without.weighted_completion);
  EXPECT_EQ(with_token.events, without.events);
}

TEST(Engine, ExpiredDeadlineTokenAbortsTheRun) {
  const mc::Instance inst(4.0, {{2.0, 2.0, 1.0}, {1.0, 1.0, 1.0}});
  msim::EngineOptions options;
  options.cancel = mc::CancelToken::with_deadline(
      std::chrono::steady_clock::now() - std::chrono::seconds(1));
  const auto result =
      msim::run_policy(inst, *msim::make_wdeq_policy(), options);
  EXPECT_TRUE(result.cancelled);
}

TEST(Engine, PolicyNamesAreDistinct) {
  std::set<std::string> names;
  for (const auto& policy : msim::all_policies()) {
    names.insert(policy->name());
  }
  EXPECT_EQ(names.size(), 5u);
}
