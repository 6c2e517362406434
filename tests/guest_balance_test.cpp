// Guest load-balancing tests: push/pull paths, vruntime rebasing, the
// semantic-gap blind spots, and the stop-based migration used by Fig. 1b.
#include <gtest/gtest.h>

#include "tests/helpers.h"

namespace irs {
namespace {

using test::ScriptedBehavior;
using test::TestWorkload;

hv::VmConfig pinned_vm(const std::string& name, int n) {
  hv::VmConfig cfg;
  cfg.name = name;
  cfg.n_vcpus = n;
  for (int i = 0; i < n; ++i) cfg.pin_map.push_back(i);
  return cfg;
}

TEST(Balance, PushFillsIdleCpu) {
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  core::World w(wc);
  const auto vm = w.add_vm(pinned_vm("vm", 2), false);
  auto& wl = w.attach(vm, std::make_unique<TestWorkload>(
                              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                                // Both hogs start on CPU0; CPU1 idle.
                                tw.add_task(k, "a", test::hog_behavior(), 0);
                                tw.add_task(k, "b", test::hog_behavior(), 0);
                              }));
  w.start();
  w.run_for(sim::seconds(1));
  // Balancing must spread them: each gets ~1s of CPU.
  for (const guest::Task* t : wl.tasks()) {
    EXPECT_GT(sim::to_sec(t->stats.compute_done), 0.85) << t->name();
  }
  const auto& gs = w.kernel(vm).stats();
  EXPECT_GE(gs.push_migrations + gs.pull_migrations, 1u);
}

TEST(Balance, NoPingPongWhenBalanced) {
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  core::World w(wc);
  const auto vm = w.add_vm(pinned_vm("vm", 2), false);
  auto& wl = w.attach(vm, std::make_unique<TestWorkload>(
                              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                                // 3 hogs on 2 cpus: 2-vs-1 is balanced.
                                tw.add_task(k, "a", test::hog_behavior(), 0);
                                tw.add_task(k, "b", test::hog_behavior(), 0);
                                tw.add_task(k, "c", test::hog_behavior(), 1);
                              }));
  w.start();
  w.run_for(sim::seconds(2));
  // A 2-vs-1 split must not thrash: few migrations in steady state.
  std::uint64_t total = 0;
  for (const guest::Task* t : wl.tasks()) total += t->stats.migrations;
  EXPECT_LT(total, 20u);
}

TEST(Balance, CannotPullRunningTaskOfPreemptedVcpu) {
  // The paper's second semantic gap: a task "running" on a descheduled
  // vCPU is not in any runqueue, so the balancer can't move it.
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  core::World w(wc);
  const auto fg = w.add_vm(pinned_vm("fg", 2), false);
  auto& wl = w.attach(fg, std::make_unique<TestWorkload>(
                              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                                tw.add_task(k, "victim", test::hog_behavior(),
                                            0);
                              }));
  const auto bg = w.add_vm(pinned_vm("bg", 1), false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(2));
  // Victim never blocks, never migrates: stuck at ~50% although vCPU1 is
  // idle the whole time.
  EXPECT_EQ(wl.tasks()[0]->stats.migrations, 0u);
  EXPECT_NEAR(sim::to_sec(wl.tasks()[0]->stats.compute_done), 1.0, 0.1);
}

TEST(Balance, NewIdleRescuesStrandedReadyTask) {
  // A ready task parked on a CPU whose vCPU can't run is pulled by an
  // idle sibling (donor has no current task).
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  core::World w(wc);
  const auto fg = w.add_vm(pinned_vm("fg", 2), false);
  auto& wl = w.attach(
      fg, std::make_unique<TestWorkload>(
              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                // sleeper's home is CPU0 (contended); after each sleep it
                // wakes onto a CPU that may be preempted.
                tw.add_task(
                    k, "sleeper",
                    std::make_unique<ScriptedBehavior>(
                        std::vector<guest::Action>{
                            guest::Action::compute(sim::milliseconds(3)),
                            guest::Action::sleep(sim::milliseconds(1)),
                        },
                        /*loop=*/true),
                    0);
              }));
  const auto bg = w.add_vm(pinned_vm("bg", 1), false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(2));
  // With rescue pulls the sleeper achieves clearly more than the ~33% a
  // permanently stranded wake-compute cycle would yield (vCPU1 is free,
  // but the guest keeps waking the task onto its "idle"-looking home CPU).
  EXPECT_GT(sim::to_sec(wl.tasks()[0]->stats.compute_done), 0.8);
  EXPECT_GE(w.kernel(fg).stats().pull_migrations, 1u);
}

TEST(Balance, MigrationRebasesVruntime) {
  // After a balancer move, the task must compete fairly on the new queue
  // (not be pushed to the far right and starved, nor monopolise).
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  core::World w(wc);
  const auto vm = w.add_vm(pinned_vm("vm", 2), false);
  auto& wl = w.attach(vm, std::make_unique<TestWorkload>(
                              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                                for (int i = 0; i < 4; ++i) {
                                  tw.add_task(k, test::numbered("h", i),
                                              test::hog_behavior(), 0);
                                }
                              }));
  w.start();
  w.run_for(sim::seconds(4));
  // 4 hogs, 2 CPUs, 4 s: 8 s of capacity -> ~2 s of compute each.
  for (const guest::Task* t : wl.tasks()) {
    EXPECT_NEAR(sim::to_sec(t->stats.compute_done), 2.0, 0.3) << t->name();
  }
}

TEST(Balance, StopMigrationMovesRunningTask) {
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  core::World w(wc);
  const auto vm = w.add_vm(pinned_vm("vm", 2), false);
  auto& wl = w.attach(vm, std::make_unique<TestWorkload>(
                              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                                tw.add_task(k, "a", test::hog_behavior(), 0);
                              }));
  w.start();
  w.run_for(sim::milliseconds(50));
  ASSERT_EQ(wl.tasks()[0]->cpu(), 0);
  sim::Duration latency = -1;
  w.kernel(vm).cpu(0).request_stop_migration(
      *wl.tasks()[0], 1, [&](sim::Duration d) { latency = d; });
  w.run_for(sim::milliseconds(10));
  EXPECT_GE(latency, 0);
  EXPECT_LT(latency, sim::milliseconds(1));  // uncontended: immediate
  EXPECT_EQ(wl.tasks()[0]->cpu(), 1);
  EXPECT_EQ(w.kernel(vm).stats().stop_migrations, 1u);
}

TEST(Balance, StopMigrationWaitsForPreemptedVcpu) {
  // Fig. 1b's mechanism: migrating off a contended vCPU takes ~a hv time
  // slice because the stopper must run on the source vCPU.
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  core::World w(wc);
  const auto fg = w.add_vm(pinned_vm("fg", 2), false);
  auto& wl = w.attach(fg, std::make_unique<TestWorkload>(
                              "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                                tw.add_task(k, "a", test::hog_behavior(), 0);
                              }));
  const auto bg = w.add_vm(pinned_vm("bg", 1), false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::milliseconds(100));
  // Wait until the fg vCPU is preempted (hog's turn).
  while (w.host().vm(fg).vcpu(0).state() == hv::VcpuState::kRunning) {
    w.run_for(sim::milliseconds(1));
  }
  sim::Duration latency = -1;
  w.kernel(fg).cpu(0).request_stop_migration(
      *wl.tasks()[0], 1, [&](sim::Duration d) { latency = d; });
  w.run_for(sim::milliseconds(100));
  ASSERT_GE(latency, 0);
  // Must wait for the source vCPU to get the pCPU back: >= several ms.
  EXPECT_GT(latency, sim::milliseconds(2));
  EXPECT_LT(latency, sim::milliseconds(40));
}

TEST(Balance, LoadMetricScalesWithSteal) {
  core::WorldConfig wc;
  wc.n_pcpus = 1;
  core::World w(wc);
  const auto fg = w.add_vm(pinned_vm("fg", 1), false);
  w.attach(fg, std::make_unique<TestWorkload>(
                   "t", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "a", test::hog_behavior(), 0);
                   }));
  const auto bg = w.add_vm(pinned_vm("bg", 1), false);
  w.attach(bg, std::make_unique<TestWorkload>(
                   "bg", [](guest::GuestKernel& k, TestWorkload& tw) {
                     tw.add_task(k, "hog", test::hog_behavior(), 0);
                   }));
  w.start();
  w.run_for(sim::seconds(2));
  const auto& cpu = w.kernel(fg).cpu(0);
  // One task at ~50% capacity: metric ~2x the nominal load.
  EXPECT_GT(guest::LoadBalancer::load_metric(cpu), 1.5);
}

}  // namespace
}  // namespace irs
