// Cluster placement & live-migration accounting: the ledger of one
// cluster::Cluster run (see src/cluster/cluster.h).
//
// Every migratable VM is placed on exactly one host at add time and is
// assigned to exactly one host at every instant thereafter (assignment
// flips atomically at the migration decision; the modeled downtime only
// delays when the destination replica starts executing). The conservation
// identities
//
//   placed_i + migr_in_i - migr_out_i == active_end_i      (per host i)
//   sum_i migr_in_i == sum_i migr_out_i == migrations      (cluster-wide)
//   sum_i placed_i == vms
//
// are test invariants (tests/cluster_test.cpp). The block is a result
// ledger (src/obs/ledger.h): its fields() list drives the digest, the
// exact sweep fold and the JSON form. n_hosts and policy fold as max;
// every counter, and the per-host rows position by position, add.
#pragma once

#include <cstdint>
#include <vector>

#include "src/obs/ledger.h"
#include "src/sim/time.h"

namespace irs::obs {

/// One host's slice of the placement ledger plus the collector's view of
/// it (steal / LHP / LWP deltas summed over every sample window). JSON
/// carries it as a positional row [placed,migr_in,...,steal_ns].
struct ClusterHostLedger {
  std::uint64_t placed = 0;      // initial placements
  std::uint64_t migr_in = 0;     // migrations targeting this host
  std::uint64_t migr_out = 0;    // migrations evicting from this host
  std::uint64_t active_end = 0;  // VMs assigned here when the run ended
  std::uint64_t samples = 0;     // collector samples taken on this host
  std::uint64_t lhp = 0;         // collector-observed LHP events
  std::uint64_t lwp = 0;         // collector-observed LWP events
  sim::Duration steal = 0;       // collector-observed steal time

  bool operator==(const ClusterHostLedger& o) const = default;

  template <class Self, class V>
  static void fields(Self& s, V&& v) {
    v("placed", s.placed, Fold::kSum);
    v("migr_in", s.migr_in, Fold::kSum);
    v("migr_out", s.migr_out, Fold::kSum);
    v("active_end", s.active_end, Fold::kSum);
    v("samples", s.samples, Fold::kSum);
    v("lhp_events", s.lhp, Fold::kSum);
    v("lwp_events", s.lwp, Fold::kSum);
    v("steal_ns", s.steal, Fold::kSum);
  }
};

struct ClusterResult {
  std::uint32_t n_hosts = 0;
  /// Numeric policy id (cluster::Policy). Folds as max so a mixed-policy
  /// sweep folds order-independently; per-run it is exact.
  std::uint32_t policy = 0;
  std::uint64_t vms = 0;             // logical VMs (fixed + migratable)
  std::uint64_t migratable = 0;      // VMs the scheduler may move
  std::uint64_t decisions = 0;       // scheduler decision-loop evaluations
  std::uint64_t migrations = 0;      // live migrations executed
  std::uint64_t in_transit_end = 0;  // migrations still in downtime at end
  sim::Duration downtime_total = 0;  // summed modeled downtime
  std::vector<ClusterHostLedger> hosts;  // indexed by host id

  /// No cluster ran (every field at its default).
  [[nodiscard]] bool empty() const { return *this == ClusterResult{}; }
  bool operator==(const ClusterResult& o) const = default;

  template <class Self, class V>
  static void fields(Self& s, V&& v) {
    v("n_hosts", s.n_hosts, Fold::kMax);
    v("policy", s.policy, Fold::kMax);
    v("vms", s.vms, Fold::kSum);
    v("migratable", s.migratable, Fold::kSum);
    v("decisions", s.decisions, Fold::kSum);
    v("migrations", s.migrations, Fold::kSum);
    v("in_transit_end", s.in_transit_end, Fold::kSum);
    v("downtime_total_ns", s.downtime_total, Fold::kSum);
    v("hosts", s.hosts, Fold::kSum);  // rows fold position by position
  }
};

}  // namespace irs::obs
