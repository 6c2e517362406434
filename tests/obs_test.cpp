// Unit tests for the observability substrate: per-entity counters and their
// host-wide folds, the trace ring (record order across producers, wrap-around
// retention and accounting), owned trace notes, and the typed snapshot query
// helper.
#include "src/obs/counters.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/world.h"
#include "src/obs/forensics.h"
#include "src/obs/trace_query.h"
#include "src/sim/trace.h"
#include "src/wl/registry.h"

namespace irs::obs {
namespace {

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST(ObsCounters, FoldSumsAcrossShards) {
  // Each entity owns one set; a reader's total is the sum of the sets.
  Counters a;
  Counters b;
  a.inc(Cnt::kHvCtxSwitches);
  b.inc(Cnt::kHvCtxSwitches, 10);
  b.inc(Cnt::kHvCtxSwitches, 100);
  EXPECT_EQ(a.fold(Cnt::kHvCtxSwitches), 1);
  EXPECT_EQ(b.fold(Cnt::kHvCtxSwitches), 110);
  Counters sum;
  sum += a;
  sum += b;
  EXPECT_EQ(sum.fold(Cnt::kHvCtxSwitches), 111);
  EXPECT_EQ(sum.fold_u(Cnt::kHvCtxSwitches), 111u);
  EXPECT_EQ(sum.fold(Cnt::kHvPreemptions), 0);  // other counters untouched
}

TEST(ObsCounters, CountersAreIndependentWithinAShard) {
  Counters c;
  c.inc(Cnt::kSaSent, 5);
  c.inc(Cnt::kSaAcked, 4);
  c.inc(Cnt::kSaDelayTotalNs, 123456);
  EXPECT_EQ(c.fold(Cnt::kSaSent), 5);
  EXPECT_EQ(c.fold(Cnt::kSaAcked), 4);
  EXPECT_EQ(c.fold(Cnt::kSaDelayTotalNs), 123456);
  EXPECT_EQ(c.fold(Cnt::kSaForced), 0);
}

/// A small IRS world under CPU-hog interference: enough preemptions, SA
/// traffic and guest migrations that every fold below reads nonzero.
std::unique_ptr<core::World> irs_world() {
  core::WorldConfig wc;
  wc.n_pcpus = 2;
  wc.strategy = core::Strategy::kIrs;
  wc.seed = 5;
  auto world = std::make_unique<core::World>(wc);
  hv::VmConfig fg;
  fg.name = "fg";
  fg.n_vcpus = 2;
  fg.pin_map = {0, 1};
  const hv::VmId fg_id = world->add_vm(fg, /*irs_capable=*/true);
  wl::WorkloadOptions fo;
  fo.n_threads = 2;
  fo.endless = true;
  world->attach(fg_id, wl::make_workload("streamcluster", fo));
  hv::VmConfig bg;
  bg.name = "bg";
  bg.n_vcpus = 1;
  bg.pin_map = {0};
  const hv::VmId bg_id = world->add_vm(bg, /*irs_capable=*/false);
  wl::WorkloadOptions bo;
  bo.n_threads = 1;
  bo.endless = true;
  world->attach(bg_id, wl::make_workload("hog", bo));
  world->start();
  world->run_for(sim::milliseconds(400));
  return world;
}

TEST(ObsCounters, HostCountersAreTheSumOfItsVcpus) {
  const auto world = irs_world();
  hv::Host& host = world->host();
  Counters sum;
  for (int i = 0; i < host.n_vcpus(); ++i) sum += host.vcpu(i).counters();
  const Counters total = host.counters();
  for (std::size_t c = 0; c < kCntCount; ++c) {
    EXPECT_EQ(total.fold(static_cast<Cnt>(c)), sum.fold(static_cast<Cnt>(c)))
        << "counter " << c;
  }
  EXPECT_GT(total.fold(Cnt::kHvCtxSwitches), 0);
  EXPECT_GT(total.fold(Cnt::kSaSent), 0);
  // Only the interfered foreground vCPU 0 is ever asked to give way.
  EXPECT_GT(host.vcpu(0).counters().fold(Cnt::kSaSent), 0);
  EXPECT_EQ(host.vcpu(2).counters().fold(Cnt::kSaSent), 0);
}

TEST(ObsCounters, HostStatsAreFoldsOfTheVcpuSum) {
  const auto world = irs_world();
  hv::Host& host = world->host();
  const Counters c = host.counters();
  const hv::SchedStats ss = host.sched_stats();
  EXPECT_EQ(ss.context_switches, c.fold_u(Cnt::kHvCtxSwitches));
  EXPECT_EQ(ss.preemptions, c.fold_u(Cnt::kHvPreemptions));
  EXPECT_EQ(ss.lhp_events, c.fold_u(Cnt::kHvLhp));
  EXPECT_EQ(ss.lwp_events, c.fold_u(Cnt::kHvLwp));
  EXPECT_EQ(ss.wakeups, c.fold_u(Cnt::kHvWakeups));
  EXPECT_EQ(ss.steals, c.fold_u(Cnt::kHvSteals));
  EXPECT_EQ(ss.migrations, c.fold_u(Cnt::kHvMigrations));
  const hv::StrategyStats st = host.strategy_stats();
  EXPECT_EQ(st.sa_sent, c.fold_u(Cnt::kSaSent));
  EXPECT_EQ(st.sa_acked, c.fold_u(Cnt::kSaAcked));
  EXPECT_EQ(st.sa_forced, c.fold_u(Cnt::kSaForced));
  EXPECT_EQ(st.sa_delay_total, c.fold(Cnt::kSaDelayTotalNs));
  EXPECT_EQ(st.ple_exits, c.fold_u(Cnt::kPleExits));
  EXPECT_EQ(st.co_stops, c.fold_u(Cnt::kCoStops));
  EXPECT_EQ(st.delay_grants, c.fold_u(Cnt::kDelayGrants));
  EXPECT_EQ(st.delay_released, c.fold_u(Cnt::kDelayReleased));
  EXPECT_EQ(st.delay_expired, c.fold_u(Cnt::kDelayExpired));
  EXPECT_GT(ss.preemptions, 0u);
  EXPECT_GT(st.sa_sent, 0u);
}

TEST(ObsCounters, GuestStatsReadTheKernelsOneSet) {
  const auto world = irs_world();
  guest::GuestKernel& k = world->kernel(0);
  const Counters& c = k.counters();
  const guest::GuestStats gs = k.stats();
  EXPECT_EQ(gs.guest_ctx_switches, c.fold_u(Cnt::kGuestCtxSwitches));
  EXPECT_EQ(gs.irs_migrations, c.fold_u(Cnt::kGuestIrsMigrations));
  EXPECT_EQ(gs.sa_received, c.fold_u(Cnt::kGuestSaReceived));
  EXPECT_EQ(gs.sa_replied_block + gs.sa_replied_yield,
            c.fold_u(Cnt::kGuestSaRepliedBlock) +
                c.fold_u(Cnt::kGuestSaRepliedYield));
  EXPECT_GT(gs.guest_ctx_switches, 0u);
  // Every SA the hypervisor delivered to this guest reached its receiver.
  EXPECT_EQ(gs.sa_received, world->host().strategy_stats().sa_sent);
}

TEST(ObsCounters, WorkloadProgressIsItsWorkCounter) {
  const auto world = irs_world();
  const wl::Workload& w = world->workload(0);
  EXPECT_GT(w.work().fold(Cnt::kWorkUnits), 0);
  EXPECT_EQ(w.progress(), static_cast<double>(w.work().fold(Cnt::kWorkUnits)));
}

// ---------------------------------------------------------------------------
// Producers writing into one ring
// ---------------------------------------------------------------------------

TEST(TraceRing, TwoProducersSnapshotInRecordOrder) {
  // An hv-like and a guest-like producer interleave into one ring; the
  // snapshot reads back exactly the order the records were made.
  sim::Trace t(256);
  for (int i = 0; i < 20; ++i) {
    if (i % 2 == 0) {
      t.record(i, sim::TraceKind::kHvSchedule, i, -1);
    } else {
      t.record(i, sim::TraceKind::kGuestSwitch, i, -1);
    }
  }
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    const auto& r = snap[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.when, i);
    EXPECT_EQ(r.a, i);
    EXPECT_EQ(r.seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(r.kind, i % 2 == 0 ? sim::TraceKind::kHvSchedule
                                 : sim::TraceKind::kGuestSwitch);
  }
}

TEST(TraceRing, SameTimestampKeepsRecordOrder) {
  sim::Trace t(64);
  for (int i = 1; i <= 4; ++i) t.record(7, sim::TraceKind::kUser, i, -1);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[static_cast<std::size_t>(i)].a, i + 1);
  }
}

TEST(TraceRing, WrappedRingRetainsExactlyTheNewestSeqs) {
  // Retention is a seq suffix: [total - capacity, total), whatever the
  // capacity and however far past it the producers ran.
  for (const std::size_t capacity : {1u, 3u, 64u}) {
    for (const int total : {0, 2, 64, 65, 1000}) {
      sim::Trace t(capacity);
      for (int i = 0; i < total; ++i) {
        t.record(i / 3, i % 2 == 0 ? sim::TraceKind::kHvWake
                                   : sim::TraceKind::kGuestWake,
                 i, -1);
      }
      const auto snap = t.snapshot();
      const std::uint64_t n = static_cast<std::uint64_t>(total);
      const std::uint64_t kept = std::min<std::uint64_t>(n, capacity);
      ASSERT_EQ(snap.size(), kept) << capacity << "/" << total;
      EXPECT_EQ(t.dropped(), n - kept);
      for (std::uint64_t j = 0; j < kept; ++j) {
        EXPECT_EQ(snap[j].seq, n - kept + j) << capacity << "/" << total;
      }
    }
  }
}

TEST(TraceRing, DisabledRingRecordsNothing) {
  sim::Trace disabled;  // capacity 0
  EXPECT_FALSE(disabled.enabled());
  disabled.record(0, sim::TraceKind::kUser, 0, 0);
  EXPECT_EQ(disabled.total_recorded(), 0u);
  EXPECT_TRUE(disabled.snapshot().empty());
  EXPECT_EQ(disabled.count(sim::TraceKind::kUser), 0u);
}

// ---------------------------------------------------------------------------
// Ring wrap-around accounting
// ---------------------------------------------------------------------------

TEST(TraceRing, WrapIsDetectable) {
  sim::Trace t(4);
  for (int i = 0; i < 10; ++i) {
    t.record(i, sim::TraceKind::kUser, i, -1);
  }
  EXPECT_EQ(t.total_recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().a, 6);  // oldest surviving record
  EXPECT_EQ(snap.back().a, 9);
  EXPECT_NE(t.dump().find("truncated"), std::string::npos);
}

TEST(TraceRing, NoWrapMeansNoDrops) {
  sim::Trace t(16);
  t.record(1, sim::TraceKind::kUser, 0, 0);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.total_recorded(), 1u);
  EXPECT_EQ(t.dump().find("truncated"), std::string::npos);
}

TEST(TraceRing, ClearResetsAccounting) {
  sim::Trace t(2);
  for (int i = 0; i < 5; ++i) t.record(i, sim::TraceKind::kUser, i, -1);
  t.clear();
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.total_recorded(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(TraceRing, ClearRestartsSequenceNumbers) {
  // After a clear (or a new capacity) the retained seqs are again
  // [total - size, total), so brackets numbered from total_recorded() sort
  // after every ring record at the same instant.
  for (const bool resize : {false, true}) {
    sim::Trace t(4);
    for (int i = 0; i < 7; ++i) t.record(i, sim::TraceKind::kUser, i, -1);
    if (resize) {
      t.set_capacity(3);
    } else {
      t.clear();
    }
    for (int i = 0; i < 5; ++i) t.record(100, sim::TraceKind::kUser, i, -1);
    const auto snap = t.snapshot();
    const std::uint64_t cap = resize ? 3 : 4;
    ASSERT_EQ(snap.size(), cap);
    EXPECT_EQ(t.total_recorded(), 5u);
    for (std::uint64_t j = 0; j < cap; ++j) {
      EXPECT_EQ(snap[j].seq, 5 - cap + j) << "resize " << resize;
    }
    const std::vector<obs::ReqSpan> spans = {
        obs::ReqSpan{.begin = 100, .end = 100, .req = 0, .task = 1}};
    const auto merged =
        obs::with_request_spans(snap, spans, t.total_recorded());
    ASSERT_EQ(merged.size(), cap + 2);
    EXPECT_EQ(merged[cap].kind, sim::TraceKind::kReqBegin);
    EXPECT_EQ(merged[cap].seq, t.total_recorded());
    EXPECT_EQ(merged[cap + 1].kind, sim::TraceKind::kReqEnd);
  }
}

TEST(TraceRing, SnapshotIsTheRingRotatedToTheOldestSeq) {
  // Wrap the ring so its oldest slot (the write head) sits at offset 0, 1
  // and capacity - 1: the snapshot, and the in-place view, read the
  // records back in seq order with no sort.
  constexpr std::size_t kCap = 8;
  for (const std::size_t head : {std::size_t{0}, std::size_t{1}, kCap - 1}) {
    sim::Trace t(kCap);
    const std::size_t total = 3 * kCap + head;
    for (std::size_t i = 0; i < total; ++i) {
      t.record(static_cast<sim::Time>(i / 2), sim::TraceKind::kUser,
               static_cast<std::int32_t>(i), -1);
    }
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), kCap) << "head " << head;
    for (std::size_t j = 0; j < kCap; ++j) {
      EXPECT_EQ(snap[j].seq, total - kCap + j) << "head " << head;
      EXPECT_EQ(snap[j].a, static_cast<std::int32_t>(total - kCap + j));
    }
    const sim::TraceView v = t.view();
    EXPECT_EQ(v.older.size(), kCap - head) << "head " << head;
    EXPECT_EQ(v.newer.size(), head) << "head " << head;
    std::vector<sim::TraceRecord> joined(v.older.begin(), v.older.end());
    joined.insert(joined.end(), v.newer.begin(), v.newer.end());
    ASSERT_EQ(joined.size(), snap.size());
    for (std::size_t j = 0; j < kCap; ++j) {
      EXPECT_EQ(joined[j].seq, snap[j].seq) << "head " << head;
    }
  }
}

// ---------------------------------------------------------------------------
// TraceNote ownership
// ---------------------------------------------------------------------------

TEST(TraceNote, OwnsItsCharacters) {
  // The old `const char*` field dangled when the producer's string died;
  // the note must survive the source buffer.
  sim::Trace t(8);
  {
    std::string ephemeral = "steal";
    t.record(0, sim::TraceKind::kHvSchedule, 0, 0, ephemeral.c_str());
    ephemeral.assign("XXXXXXXXXXXXXXXXXXXXXXXX");  // clobber the storage
  }
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_TRUE(snap[0].note == "steal");
}

TEST(TraceNote, TruncatesLongNotes) {
  const sim::TraceNote n("0123456789abcdefGHIJ");
  EXPECT_STREQ(n.c_str(), "0123456789abcde");  // kMax = 15 chars
  const sim::TraceNote empty;
  EXPECT_TRUE(empty.empty());
  const sim::TraceNote null_note(nullptr);
  EXPECT_TRUE(null_note.empty());
}

// ---------------------------------------------------------------------------
// TraceQuery
// ---------------------------------------------------------------------------

TEST(ObsTraceQuery, FiltersChain) {
  sim::Trace t(64);
  t.record(1, sim::TraceKind::kLhp, 0, 10);
  t.record(2, sim::TraceKind::kLhp, 1, 11);
  t.record(3, sim::TraceKind::kLwp, 0, 12);
  t.record(4, sim::TraceKind::kLhp, 0, 13);

  const TraceQuery q(t);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.of_kind(sim::TraceKind::kLhp).size(), 3u);
  EXPECT_EQ(q.of_kind(sim::TraceKind::kLhp).with_a(0).size(), 2u);
  EXPECT_EQ(q.between(2, 3).size(), 2u);  // bounds inclusive
  EXPECT_EQ(q.with_b(12).first().kind, sim::TraceKind::kLwp);
  EXPECT_TRUE(q.of_kind(sim::TraceKind::kSaSend).empty());
  EXPECT_EQ(q.last().when, 4);
}

}  // namespace
}  // namespace irs::obs
