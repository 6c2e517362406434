// Tests for the extension strategies: delay-preemption (related work) and
// pull-based running-task migration (paper §6 future work).
#include <gtest/gtest.h>

#include "src/exp/runner.h"
#include "tests/helpers.h"

namespace irs {
namespace {

using test::ScriptedBehavior;
using test::TestWorkload;

TEST(DelayPreempt, GrantsWindowsForLockHolders) {
  // A task that holds a lock half the time on a contended vCPU: preemption
  // decisions regularly land inside critical sections.
  core::WorldConfig wc;
  wc.n_pcpus = 1;
  wc.strategy = core::Strategy::kDelayPreempt;
  wc.seed = 3;
  core::World w(wc);
  hv::VmConfig fg_cfg{.name = "fg", .n_vcpus = 1, .weight = 256,
                      .pin_map = {0}};
  const auto fg = w.add_vm(fg_cfg, true);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     auto& m = tw.sync_ctx().make_mutex();
                     tw.add_task(
                         k, "holder",
                         std::make_unique<ScriptedBehavior>(
                             std::vector<guest::Action>{
                                 guest::Action::lock(m),
                                 guest::Action::compute(
                                     sim::microseconds(1500)),
                                 guest::Action::unlock(m),
                                 guest::Action::compute(
                                     sim::microseconds(800)),
                             },
                             /*loop=*/true),
                         0);
                   }));
  hv::VmConfig bg_cfg = fg_cfg;
  bg_cfg.name = "bg";
  const auto bg = w.add_vm(bg_cfg, false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(3));
  const auto& st = w.host().strategy_stats();
  EXPECT_GT(st.delay_grants, 0u);
  // 1.5 ms critical sections exceed the 500 us cap: some windows expire.
  EXPECT_GT(st.delay_expired, 0u);
  // Fairness preserved despite the delays (cap is tiny vs 30 ms slices).
  const auto now = w.engine().now();
  EXPECT_NEAR(sim::to_sec(w.host().vm(fg).vcpu(0).time_running(now)), 1.5,
              0.2);
  EXPECT_NEAR(sim::to_sec(w.host().vm(bg).vcpu(0).time_running(now)), 1.5,
              0.2);
}

TEST(DelayPreempt, ShortCriticalSectionsReleaseInsideWindow) {
  core::WorldConfig wc;
  wc.n_pcpus = 1;
  wc.strategy = core::Strategy::kDelayPreempt;
  wc.seed = 3;
  core::World w(wc);
  hv::VmConfig fg_cfg{.name = "fg", .n_vcpus = 1, .weight = 256,
                      .pin_map = {0}};
  const auto fg = w.add_vm(fg_cfg, true);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     auto& m = tw.sync_ctx().make_mutex();
                     tw.add_task(
                         k, "holder",
                         std::make_unique<ScriptedBehavior>(
                             std::vector<guest::Action>{
                                 guest::Action::lock(m),
                                 guest::Action::compute(
                                     sim::microseconds(130)),
                                 guest::Action::unlock(m),
                                 guest::Action::compute(
                                     sim::microseconds(570)),
                             },
                             /*loop=*/true),
                         0);
                   }));
  hv::VmConfig bg_cfg = fg_cfg;
  bg_cfg.name = "bg";
  const auto bg = w.add_vm(bg_cfg, false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(3));
  const auto& st = w.host().strategy_stats();
  ASSERT_GT(st.delay_grants, 0u);
  // 130 us critical sections always finish inside the 500 us window: every
  // window is released, except one the end of the run cuts open.
  EXPECT_EQ(st.delay_expired, 0u);
  const bool open_at_end = w.host().vm(fg).vcpus().front()->sa_pending();
  EXPECT_EQ(st.delay_released + (open_at_end ? 1u : 0u), st.delay_grants);
}

TEST(DelayPreempt, NoGrantsWithoutLocks) {
  exp::ScenarioConfig cfg;
  cfg.fg = "blackscholes";  // barrier-only, never holds a lock
  cfg.strategy = core::Strategy::kDelayPreempt;
  cfg.work_scale = 0.25;
  cfg.seed = 7;
  const exp::RunResult r = exp::run_scenario(cfg);
  ASSERT_TRUE(r.finished);
  // (grants aren't surfaced in RunResult; equivalence with baseline is the
  // observable: same makespan modulo nothing-at-all.)
  exp::ScenarioConfig base = cfg;
  base.strategy = core::Strategy::kBaseline;
  EXPECT_EQ(exp::run_scenario(base).fg_makespan, r.fg_makespan);
}

TEST(IrsPull, RescuesRunningTaskFromPreemptedVcpu) {
  // Solo compute task on a contended vCPU, pull-only mode: when siblings
  // idle-poll, they yank the frozen current task and run it.
  core::WorldConfig wc;
  wc.strategy = core::Strategy::kIrsPull;
  wc.seed = 5;
  core::World w(wc);
  hv::VmConfig fg_cfg{.name = "fg", .n_vcpus = 4, .weight = 256,
                      .pin_map = {0, 1, 2, 3}};
  const auto fg = w.add_vm(fg_cfg, true);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "solo", test::hog_behavior(), 0);
                   }));
  hv::VmConfig bg_cfg{.name = "bg", .n_vcpus = 1, .weight = 256,
                      .pin_map = {0}};
  const auto bg = w.add_vm(bg_cfg, false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(2));
  EXPECT_GT(w.kernel(fg).stats().irs_pull_migrations, 0u);
  // Without SAs, pull-only still recovers most of the lost throughput.
  const auto done = w.workload(fg).tasks()[0]->stats.compute_done;
  EXPECT_GT(sim::to_sec(done), 1.5);
  // And no SA machinery ran.
  EXPECT_EQ(w.host().strategy_stats().sa_sent, 0u);
  EXPECT_EQ(w.kernel(fg).stats().sa_received, 0u);
}

TEST(IrsPull, DoesNothingForSpinningWorkloads) {
  // Spinning guests never idle, so the pull never triggers — the paper's
  // §6 point that pull-based migration needs an idle moment.
  exp::ScenarioConfig cfg;
  cfg.fg = "UA";
  cfg.strategy = core::Strategy::kIrsPull;
  cfg.work_scale = 0.25;
  cfg.seed = 11;
  const exp::RunResult pull = exp::run_scenario(cfg);
  cfg.strategy = core::Strategy::kBaseline;
  const exp::RunResult base = exp::run_scenario(cfg);
  ASSERT_TRUE(pull.finished);
  EXPECT_NEAR(exp::improvement_pct(base, pull), 0.0, 3.0);
}

TEST(IrsPull, MatchesIrsForBlockingWorkloads) {
  exp::ScenarioConfig cfg;
  cfg.fg = "streamcluster";
  cfg.work_scale = 0.5;
  cfg.seed = 13;
  cfg.strategy = core::Strategy::kBaseline;
  const exp::RunResult base = exp::run_scenario(cfg);
  cfg.strategy = core::Strategy::kIrs;
  const exp::RunResult irs = exp::run_scenario(cfg);
  cfg.strategy = core::Strategy::kIrsPull;
  const exp::RunResult pull = exp::run_scenario(cfg);
  const double irs_gain = exp::improvement_pct(base, irs);
  const double pull_gain = exp::improvement_pct(base, pull);
  EXPECT_GT(pull_gain, irs_gain * 0.6);  // same ballpark
}

TEST(Extensions, StrategyListAndNames) {
  EXPECT_EQ(core::extension_strategies().size(), 2u);
  EXPECT_STREQ(core::strategy_name(core::Strategy::kDelayPreempt),
               "Delay-Preempt");
  EXPECT_STREQ(core::strategy_name(core::Strategy::kIrsPull), "IRS-Pull");
}

}  // namespace
}  // namespace irs
