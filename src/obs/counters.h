// Named event counters — one flat set per counting entity.
//
// Each producer owns the set its readers need: every hv::Vcpu counts its
// own scheduler and strategy events (the per-vCPU LHP/LWP charge-back and
// the per-vCPU SA track read them directly), every guest kernel and every
// workload keeps one set. Host-, kernel- and run-level totals are plain sums
// over those owners, folded on demand by the readers.
#pragma once

#include <array>
#include <cstdint>

namespace irs::obs {

/// Every named counter in the system. Grouped by the subsystem that
/// produces it; the fold helpers in hv/ and guest/ map these back onto the
/// legacy report structs.
enum class Cnt : std::uint16_t {
  // hv::CreditScheduler (per vCPU)
  kHvCtxSwitches,
  kHvPreemptions,
  kHvLhp,
  kHvLwp,
  kHvWakeups,
  kHvSteals,
  kHvMigrations,
  // hv strategy components (per vCPU)
  kSaSent,
  kSaAcked,
  kSaForced,
  kSaDelayTotalNs,
  kPleExits,
  kCoStops,
  kDelayGrants,
  kDelayReleased,
  kDelayExpired,
  // guest::GuestKernel and friends (per guest kernel)
  kGuestCtxSwitches,
  kGuestWakeMigrations,
  kGuestPushMigrations,
  kGuestPullMigrations,
  kGuestIrsMigrations,
  kGuestStopMigrations,
  kGuestSaReceived,
  kGuestSaRepliedBlock,
  kGuestSaRepliedYield,
  kGuestTagPreemptions,
  kGuestIrsPullMigrations,
  // wl::* workload progress (per workload)
  kWorkUnits,

  kCount,
};

inline constexpr std::size_t kCntCount = static_cast<std::size_t>(Cnt::kCount);

/// One entity's set of named counters.
class Counters {
 public:
  void inc(Cnt c, std::int64_t n = 1) { v_[static_cast<std::size_t>(c)] += n; }

  [[nodiscard]] std::int64_t fold(Cnt c) const {
    return v_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t fold_u(Cnt c) const {
    return static_cast<std::uint64_t>(fold(c));
  }

  /// Add every counter of `o` into this set (the host-wide sum).
  Counters& operator+=(const Counters& o) {
    for (std::size_t i = 0; i < kCntCount; ++i) v_[i] += o.v_[i];
    return *this;
  }

 private:
  std::array<std::int64_t, kCntCount> v_{};
};

}  // namespace irs::obs
