// Tests for the IRS mechanism end to end: SA delivery, context switcher,
// migrator target selection, wake-up fix, and the hypervisor-side SA
// sender (pending flag, ack delay, hard cap).
#include <gtest/gtest.h>

#include "tests/helpers.h"

namespace irs {
namespace {

using test::ScriptedBehavior;
using test::TestWorkload;

/// Standard IRS topology: fg VM (4 vCPUs, pinned 0-3, IRS-capable) plus a
/// single-vCPU hog VM pinned to pCPU 0.
struct IrsWorld {
  explicit IrsWorld(core::Strategy strategy, TestWorkload::Setup fg_setup,
                    std::uint64_t seed = 5) {
    core::WorldConfig wc;
    wc.n_pcpus = 4;
    wc.strategy = strategy;
    wc.seed = seed;
    wc.trace_capacity = 100000;
    world = std::make_unique<core::World>(wc);
    hv::VmConfig fg_cfg;
    fg_cfg.name = "fg";
    fg_cfg.n_vcpus = 4;
    fg_cfg.pin_map = {0, 1, 2, 3};
    fg = world->add_vm(fg_cfg, /*irs_capable=*/true);
    world->attach(fg, std::make_unique<TestWorkload>("fg", std::move(fg_setup)));
    hv::VmConfig bg_cfg;
    bg_cfg.name = "bg";
    bg_cfg.n_vcpus = 1;
    bg_cfg.pin_map = {0};
    bg = world->add_vm(bg_cfg, false);
    world->attach(bg, std::make_unique<TestWorkload>(
                          "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                            tw.add_task(k, "hog", test::hog_behavior(), 0);
                          }));
    world->start();
  }

  std::unique_ptr<core::World> world;
  hv::VmId fg = 0;
  hv::VmId bg = 0;
};

TestWorkload::Setup one_hog_per_cpu(int n = 4) {
  return [n](guest::GuestKernel& k, TestWorkload& tw) {
    for (int i = 0; i < n; ++i) {
      tw.add_task(k, test::numbered("w", i), test::hog_behavior(),
                  i % k.n_cpus());
    }
  };
}

TEST(IrsMechanism, SaSentOnInvoluntaryPreemptionOnly) {
  IrsWorld iw(core::Strategy::kIrs, one_hog_per_cpu());
  iw.world->run_for(sim::seconds(1));
  const auto& st = iw.world->host().strategy_stats();
  // vCPU0 contends with the hog: rotations every ~30-60 ms -> tens of SAs.
  EXPECT_GE(st.sa_sent, 10u);
  EXPECT_LE(st.sa_sent, 100u);
  // Every SA acknowledged (well-behaved guest), none force-capped.
  EXPECT_EQ(st.sa_acked, st.sa_sent);
  EXPECT_EQ(st.sa_forced, 0u);
}

TEST(IrsMechanism, NoSaUnderBaseline) {
  IrsWorld iw(core::Strategy::kBaseline, one_hog_per_cpu());
  iw.world->run_for(sim::seconds(1));
  EXPECT_EQ(iw.world->host().strategy_stats().sa_sent, 0u);
  EXPECT_EQ(iw.world->kernel(iw.fg).stats().sa_received, 0u);
}

TEST(IrsMechanism, BackgroundVmNeverReceivesSa) {
  IrsWorld iw(core::Strategy::kIrs, one_hog_per_cpu());
  iw.world->run_for(sim::seconds(1));
  EXPECT_GT(iw.world->kernel(iw.fg).stats().sa_received, 0u);
  // bg is not SA-registered (paper §5.4 footnote).
  EXPECT_EQ(iw.world->kernel(iw.bg).stats().sa_received, 0u);
  EXPECT_FALSE(iw.world->kernel(iw.bg).sa_registered());
}

TEST(IrsMechanism, SaAckDelayMatchesPaperRange) {
  IrsWorld iw(core::Strategy::kIrs, one_hog_per_cpu());
  iw.world->run_for(sim::seconds(2));
  const auto& st = iw.world->host().strategy_stats();
  ASSERT_GT(st.sa_acked, 0u);
  const double avg_us =
      sim::to_us(st.sa_delay_total / static_cast<sim::Duration>(st.sa_acked));
  // Paper §3.1: 20-26 us processing (handler cost jitter +- 15% plus the
  // guest context switch).
  EXPECT_GE(avg_us, 15.0);
  EXPECT_LE(avg_us, 30.0);
}

TEST(IrsMechanism, ContextSwitcherDeschedulesAndMigrates) {
  IrsWorld iw(core::Strategy::kIrs, one_hog_per_cpu());
  iw.world->run_for(sim::seconds(1));
  const auto& gs = iw.world->kernel(iw.fg).stats();
  EXPECT_GT(gs.irs_migrations, 0u);
  // Replies split between block (empty rq) and yield.
  EXPECT_EQ(gs.sa_replied_block + gs.sa_replied_yield, gs.sa_received);
  // Hogs never block, each vCPU has exactly one task, so the context
  // switcher always empties the runqueue -> SCHEDOP_block.
  EXPECT_GT(gs.sa_replied_block, 0u);
}

TEST(IrsMechanism, ContextSwitcherRepliesYieldWhenQueueNonEmpty) {
  // Eight hogs on four vCPUs: every queue keeps a spare task, so after the
  // context switcher deschedules the current one another remains -> yield.
  IrsWorld iw(core::Strategy::kIrs, one_hog_per_cpu(8));
  iw.world->run_for(sim::seconds(1));
  EXPECT_GT(iw.world->kernel(iw.fg).stats().sa_replied_yield, 0u);
}

TEST(IrsMechanism, MigratorPrefersIdleSibling) {
  // Only one fg task: vCPUs 1-3 are idle (blocked); Algorithm 2 must pick
  // an idle one.
  IrsWorld iw(core::Strategy::kIrs,
              [](guest::GuestKernel& k, TestWorkload& tw) {
                tw.add_task(k, "solo", test::hog_behavior(), 0);
              });
  iw.world->run_for(sim::seconds(1));
  const auto& ms = iw.world->kernel(iw.fg).migrator().stats();
  ASSERT_GT(ms.requests, 0u);
  // The target is an idle sibling — either hypervisor-blocked ("IDLE" in
  // Algorithm 2) or awake in its idle loop (counted as running); never the
  // source-fallback path, which would strand the task behind the hog.
  EXPECT_GT(ms.to_idle + ms.to_running, 0u);
  EXPECT_EQ(ms.fallback_src, 0u);
}

TEST(IrsMechanism, MigratorNeverPicksPreemptedSibling) {
  // All four vCPUs contended is impossible here (single hog), but we can
  // verify via unit call: target for a migration from vCPU0 is never 0 and
  // never a runnable (preempted) vCPU.
  IrsWorld iw(core::Strategy::kIrs, one_hog_per_cpu());
  iw.world->run_for(sim::milliseconds(200));
  auto& k = iw.world->kernel(iw.fg);
  const int target = k.migrator().pick_target(0);
  EXPECT_NE(target, 0);
  const auto rs = k.hypercalls().vcpu_runstate(target);
  EXPECT_NE(rs.state, hv::VcpuState::kRunnable);
}

TEST(IrsMechanism, SoloTaskKeepsNearFullThroughputUnderIrs) {
  // One task, one interfered vCPU, three idle vCPUs: IRS should migrate
  // the task so it runs at nearly full speed despite the hog.
  IrsWorld iw(core::Strategy::kIrs,
              [](guest::GuestKernel& k, TestWorkload& tw) {
                tw.add_task(k, "solo", test::hog_behavior(), 0);
              });
  iw.world->run_for(sim::seconds(2));
  const auto done =
      iw.world->workload(iw.fg).tasks()[0]->stats.compute_done;
  EXPECT_GT(sim::to_sec(done), 1.75);
}

TEST(IrsMechanism, BaselineSoloTaskStuckAtHalfSpeed) {
  IrsWorld iw(core::Strategy::kBaseline,
              [](guest::GuestKernel& k, TestWorkload& tw) {
                tw.add_task(k, "solo", test::hog_behavior(), 0);
              });
  iw.world->run_for(sim::seconds(2));
  const auto done =
      iw.world->workload(iw.fg).tasks()[0]->stats.compute_done;
  // The guest cannot migrate a "running" task: ~50% of pCPU 0 plus
  // occasional newidle rescues after wake-ups — well below the IRS level.
  EXPECT_LT(sim::to_sec(done), 1.6);
}

TEST(IrsMechanism, TaggedTaskClearedOnBlock) {
  IrsWorld iw(core::Strategy::kIrs,
              [](guest::GuestKernel& k, TestWorkload& tw) {
                tw.add_task(
                    k, "blocky",
                    std::make_unique<ScriptedBehavior>(
                        std::vector<guest::Action>{
                            guest::Action::compute(sim::milliseconds(40)),
                            guest::Action::sleep(sim::milliseconds(1)),
                        },
                        /*loop=*/true),
                    0);
              });
  iw.world->run_for(sim::seconds(1));
  // The task blocks regularly, so it must not stay tagged forever.
  EXPECT_FALSE(iw.world->workload(iw.fg).tasks()[0]->migrating_tag);
  EXPECT_GT(iw.world->kernel(iw.fg).stats().irs_migrations, 0u);
}

TEST(IrsMechanism, SaPendingPreventsDuplicateNotifications) {
  IrsWorld iw(core::Strategy::kIrs, one_hog_per_cpu());
  iw.world->run_for(sim::seconds(1));
  const auto& st = iw.world->host().strategy_stats();
  // acked + forced == sent means no SA was ever outstanding twice.
  EXPECT_EQ(st.sa_acked + st.sa_forced, st.sa_sent);
}

TEST(IrsMechanism, HardCapForcesPreemptionForSlowGuest) {
  // Configure an absurdly small cap so every SA is force-completed.
  core::WorldConfig wc;
  wc.n_pcpus = 1;
  wc.strategy = core::Strategy::kIrs;
  wc.hv.sa_ack_cap = sim::microseconds(1);  // below the ~20 us handler
  wc.seed = 7;
  core::World w(wc);
  hv::VmConfig fg_cfg;
  fg_cfg.name = "fg";
  fg_cfg.n_vcpus = 1;
  fg_cfg.pin_map = {0};
  const auto fg = w.add_vm(fg_cfg, true);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "fg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "w", test::hog_behavior(), 0);
                   }));
  hv::VmConfig bg_cfg = fg_cfg;
  bg_cfg.name = "bg";
  const auto bg = w.add_vm(bg_cfg, false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(1));
  const auto& st = w.host().strategy_stats();
  EXPECT_GT(st.sa_forced, 0u);
  // Forced preemptions still keep the system fair: both VMs ~50%.
  const auto fg_time = w.host().vm(fg).vcpu(0).time_running(w.engine().now());
  EXPECT_NEAR(sim::to_sec(fg_time), 0.5, 0.1);
}

TEST(IrsMechanism, SaDelayDoesNotBreakFairness) {
  IrsWorld iw(core::Strategy::kIrs, one_hog_per_cpu());
  iw.world->run_for(sim::seconds(4));
  // Paper §5.4: the fg VM must never EXCEED its fair share; the background
  // VM may gain a little (+5-6% speedup in the paper) because IRS
  // occasionally vacates the contended vCPU.
  const auto now = iw.world->engine().now();
  const auto fg0 = iw.world->host().vm(iw.fg).vcpu(0).time_running(now);
  const auto hog = iw.world->host().vm(iw.bg).vcpu(0).time_running(now);
  EXPECT_LE(sim::to_sec(fg0), 2.1);               // no more than fair share
  EXPECT_GE(sim::to_sec(fg0), 1.2);               // but not starved either
  EXPECT_GE(sim::to_sec(hog), 1.9);               // bg keeps >= fair share
  EXPECT_NEAR(sim::to_sec(fg0 + hog), 4.0, 0.05);  // pCPU0 work-conserving
}

TEST(IrsMechanism, WakeupFixPreemptsTaggedTask) {
  // fg: a mutex pair on vCPU1 plus a migrated-task generator on vCPU0.
  // We verify the counter that tracks Fig.4-style tagged preemptions.
  IrsWorld iw(core::Strategy::kIrs,
              [](guest::GuestKernel& k, TestWorkload& tw) {
                // w0: pure compute on the contended vCPU0; it never blocks,
                // so its IRS tag persists after each forced migration.
                tw.add_task(k, "w0", test::hog_behavior(), 0);
                // w1: compute/sleep cycle on vCPU1 — the Fig. 4 "waiter".
                // When vCPU0 is preempted while w1 sleeps, the migrator
                // puts tagged w0 on idle vCPU1; w1's next wake-up must then
                // preempt it in place instead of ping-ponging away.
                tw.add_task(
                    k, "w1",
                    std::make_unique<ScriptedBehavior>(
                        std::vector<guest::Action>{
                            guest::Action::compute(sim::microseconds(500)),
                            guest::Action::sleep(sim::microseconds(500)),
                        },
                        /*loop=*/true),
                    1);
                // Busy hogs on vCPUs 2-3 keep them unattractive, so the
                // migrator repeatedly lands on vCPU1 and the balancer keeps
                // refilling vCPU0 (triggering fresh SA cycles).
                tw.add_task(k, "w2", test::hog_behavior(), 2);
                tw.add_task(k, "w3", test::hog_behavior(), 3);
              });
  iw.world->run_for(sim::seconds(3));
  EXPECT_GT(iw.world->kernel(iw.fg).stats().tag_preemptions, 0u);
}

TEST(IrsMechanism, WakeupFixDisabledHasNoTagPreemptions) {
  core::WorldConfig wc;
  wc.n_pcpus = 4;
  wc.strategy = core::Strategy::kIrs;
  wc.seed = 5;
  core::World w(wc);
  hv::VmConfig fg_cfg;
  fg_cfg.name = "fg";
  fg_cfg.n_vcpus = 4;
  fg_cfg.pin_map = {0, 1, 2, 3};
  guest::GuestConfig gc;
  gc.irs_wakeup_fix = false;  // ablation knob
  const auto fg = w.add_vm(fg_cfg, true, gc);
  w.attach(fg, std::make_unique<TestWorkload>("fg", one_hog_per_cpu()));
  hv::VmConfig bg_cfg;
  bg_cfg.name = "bg";
  bg_cfg.n_vcpus = 1;
  bg_cfg.pin_map = {0};
  const auto bg = w.add_vm(bg_cfg, false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(1));
  EXPECT_EQ(w.kernel(fg).stats().tag_preemptions, 0u);
}

}  // namespace
}  // namespace irs
