#include "src/obs/forensics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "src/obs/ledger.h"

namespace irs::obs {

const char* cause_name(Cause c) {
  switch (c) {
    case Cause::kRun: return "run";
    case Cause::kReadyWait: return "ready_wait";
    case Cause::kLhp: return "lhp";
    case Cause::kLwp: return "lwp";
    case Cause::kSteal: return "steal";
    case Cause::kThrottle: return "throttle";
    case Cause::kMigration: return "migration";
    case Cause::kSaNotify: return "sa_notify";
    case Cause::kBlock: return "block";
    case Cause::kUntracked: return "untracked";
    case Cause::kQueueWait: return "queue_wait";
  }
  return "?";
}

sim::Duration ForensicsClassResult::cause_total(Cause c) const {
  const LatencyHistogram& h = causes[static_cast<int>(c)];
  const unsigned __int128 s =
      (static_cast<unsigned __int128>(h.sum_hi()) << 64) | h.sum_lo();
  return static_cast<sim::Duration>(s);
}

// ---------------------------------------------------------------------------
// Digest (same FNV-1a scheme as SloResult::digest)
// ---------------------------------------------------------------------------

std::uint64_t ForensicsResult::digest() const {
  if (classes.empty()) return 0;
  std::uint64_t h = kFnvOffset;
  fnv(h, static_cast<std::uint64_t>(window));
  fnv(h, static_cast<std::uint64_t>(head_truncated_at));
  fnv(h, classes.size());
  for (const ForensicsClassResult& c : classes) {
    fnv_str(h, c.name);
    fnv(h, static_cast<std::uint64_t>(c.spec.threshold));
    fnv(h, std::bit_cast<std::uint64_t>(c.spec.objective));
    fnv(h, c.spans);
    fnv(h, c.truncated);
    fnv(h, c.open);
    for (int i = 0; i < kNumCauses; ++i) fnv(h, c.causes[i].digest());
    fnv(h, c.windows.size());
    for (const ForensicsWindow& w : c.windows) {
      fnv(h, static_cast<std::uint64_t>(w.index));
      fnv(h, w.requests);
      fnv(h, w.violations);
      for (int i = 0; i < kNumCauses; ++i) {
        fnv(h, static_cast<std::uint64_t>(w.causes[i]));
      }
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

namespace {

/// Lazily-accruing cumulative stopwatch: value(t) is the total time the
/// tracked condition has held up to t. Idempotent start/stop.
struct Accum {
  sim::Duration sum = 0;
  sim::Time since = -1;

  void start(sim::Time t) {
    if (since < 0) since = t;
  }
  void stop(sim::Time t) {
    if (since >= 0) {
      sum += t - since;
      since = -1;
    }
  }
  [[nodiscard]] bool active() const { return since >= 0; }
  [[nodiscard]] sim::Duration value(sim::Time t) const {
    return active() ? sum + (t - since) : sum;
  }
};

/// Steal-window classes (index into VcpuState::steal).
constexpr int kStLhp = 0;
constexpr int kStLwp = 1;
constexpr int kStThrottle = 2;
constexpr int kStOther = 3;
constexpr int kNumStealClasses = 4;

constexpr Cause kStealCause[kNumStealClasses] = {
    Cause::kLhp, Cause::kLwp, Cause::kThrottle, Cause::kSteal};

struct VcpuState {
  Accum run;                        // holds a pCPU
  Accum sa;                         // running inside an SA grace window
  Accum steal[kNumStealClasses];    // runnable without a pCPU, by class
  int open_steal = -1;              // class of the open steal window, or -1
};

/// A closed sub-span of an off-CPU chain whose cause (blocked vs
/// ready-wait) is not yet known: both candidate charges are precomputed
/// from accumulator deltas so resolution is a pure re-labeling.
struct SubCharge {
  sim::Duration dur = 0;
  sim::Duration steal[kNumStealClasses] = {};  // ready-wait resolution
  sim::Duration lhp_active = 0;                // blocked resolution
  bool in_req = false;
};

enum TaskPhase : int {
  kPhUnknown = 0,
  kPhOn,       // on a guest lane
  kPhPending,  // left the lane, wake not yet seen (blocked or ready-wait)
  kPhWaiting,  // woken, runnable, waiting for the lane
};

struct TaskState {
  int phase = kPhUnknown;
  int vcpu = -1;           // lane (on) or assigned runqueue (off)
  sim::Time seg_start = -1;
  // Accumulator snapshots of `vcpu` taken at seg_start:
  sim::Duration run0 = 0;
  sim::Duration sa0 = 0;
  sim::Duration steal0[kNumStealClasses] = {};
  sim::Duration lhp_active0 = 0;
  std::vector<SubCharge> chain;  // closed sub-spans of the open off-chain
  // Active request span:
  bool req_active = false;
  sim::Time req_begin = 0;
  std::int32_t req_cls = 0;
  sim::Duration causes[kNumCauses] = {};
  // Unconsumed migration cache penalty (charged against future run time).
  sim::Duration mig_debt = 0;
};

/// One class's violating windows (ascending index) and, beside each, the
/// position of its row in ForensicsClassResult::windows (-1 until the first
/// request completes in it).
struct ViolatingWindows {
  std::vector<std::int64_t> index;
  std::vector<std::int32_t> row;
};

struct Analyzer {
  const SloResult& slo;
  sim::Duration window = 0;
  Accum lhp_active{};  // >= 1 LHP-classified steal window open in the VM
  int lhp_open = 0;
  // Flat id-indexed state: vCPU and task ids are small dense integers
  // (TraceMeta enumerates them), so the per-record lookups on the replay
  // hot path are array loads, not tree walks. The four vCPU arrays are
  // sized together up front from the meta; every handler reaches them only
  // through the bounds-checked fg_vcpu() test, so ids beyond the meta
  // (foreign or synthetic records) are simply not foreground. Task state
  // grows on demand.
  std::vector<VcpuState> vcpus{};          // global vCPU id -> state
  std::vector<signed char> is_fg{};        // global vCPU id -> foreground?
  std::vector<signed char> pending_cls{};  // vCPU -> steal hint, -1 none
  std::vector<std::int32_t> lane{};        // fg gcpu -> on-lane task, -1 idle
  std::vector<TaskState> tasks{};          // task id -> state
  ForensicsResult out{};
  std::vector<ViolatingWindows> violating{};  // per class

  [[nodiscard]] bool fg_vcpu(int v) const {
    return v >= 0 && v < static_cast<int>(is_fg.size()) && is_fg[v] != 0;
  }
  TaskState& task(std::int32_t t) {
    if (t >= static_cast<std::int32_t>(tasks.size())) tasks.resize(t + 1);
    return tasks[t];
  }

  void ensure_class(int cls) {
    while (static_cast<int>(out.classes.size()) <= cls) {
      ForensicsClassResult c;
      const std::size_t i = out.classes.size();
      if (i < slo.classes.size()) {
        c.name = slo.classes[i].name;
        c.spec = slo.classes[i].spec;
      } else {
        c.name = "class" + std::to_string(i);
      }
      out.classes.push_back(std::move(c));
      ViolatingWindows viol;
      if (i < slo.classes.size()) {
        for (const SloWindow& w : slo.classes[i].windows) {
          if (burn_rate(w, slo.classes[i].spec) > 1.0) {
            viol.index.push_back(w.index);
          }
        }
        std::sort(viol.index.begin(), viol.index.end());
        viol.row.assign(viol.index.size(), -1);
      }
      violating.push_back(std::move(viol));
    }
  }

  /// The root-cause row of class `cls`'s window holding `when`, created on
  /// its first request; null when that window did not violate its SLO.
  ForensicsWindow* violating_row(int cls, sim::Time when) {
    const std::int64_t idx = window > 0 ? when / window : 0;
    ViolatingWindows& v = violating[static_cast<std::size_t>(cls)];
    const auto it = std::lower_bound(v.index.begin(), v.index.end(), idx);
    if (it == v.index.end() || *it != idx) return nullptr;
    std::int32_t& row = v.row[static_cast<std::size_t>(it - v.index.begin())];
    std::vector<ForensicsWindow>& rows =
        out.classes[static_cast<std::size_t>(cls)].windows;
    if (row < 0) {
      row = static_cast<std::int32_t>(rows.size());
      rows.push_back(ForensicsWindow{.index = idx});
    }
    return &rows[static_cast<std::size_t>(row)];
  }

  void lhp_inc(sim::Time t) {
    if (lhp_open++ == 0) lhp_active.start(t);
  }
  void lhp_dec(sim::Time t) {
    if (--lhp_open == 0) lhp_active.stop(t);
  }

  VcpuState& vc(int v) { return vcpus[static_cast<std::size_t>(v)]; }

  /// Snapshot the accumulators of ts.vcpu at t and restart the segment.
  void snapshot(TaskState& ts, sim::Time t) {
    ts.seg_start = t;
    ts.lhp_active0 = lhp_active.value(t);
    if (fg_vcpu(ts.vcpu)) {
      VcpuState& v = vc(ts.vcpu);
      ts.run0 = v.run.value(t);
      ts.sa0 = v.sa.value(t);
      for (int c = 0; c < kNumStealClasses; ++c) {
        ts.steal0[c] = v.steal[c].value(t);
      }
    } else {
      ts.run0 = ts.sa0 = 0;
      for (int c = 0; c < kNumStealClasses; ++c) ts.steal0[c] = 0;
    }
  }

  /// Settle an on-lane segment [seg_start, t]: charge run / SA / steal /
  /// migration overlaps to the active request (when there is one) and
  /// consume migration debt either way.
  void close_on(TaskState& ts, sim::Time t) {
    if (ts.seg_start < 0 || t <= ts.seg_start) return;
    const sim::Duration dur = t - ts.seg_start;
    sim::Duration d_run = 0, d_sa = 0, d_steal[kNumStealClasses] = {};
    sim::Duration steal_sum = 0;
    if (fg_vcpu(ts.vcpu)) {
      VcpuState& v = vc(ts.vcpu);
      d_run = v.run.value(t) - ts.run0;
      d_sa = v.sa.value(t) - ts.sa0;
      for (int c = 0; c < kNumStealClasses; ++c) {
        d_steal[c] = v.steal[c].value(t) - ts.steal0[c];
        steal_sum += d_steal[c];
      }
    }
    sim::Duration run_raw = d_run - d_sa;
    if (run_raw < 0) run_raw = 0;
    const sim::Duration mig = std::min(ts.mig_debt, run_raw);
    ts.mig_debt -= mig;
    if (ts.req_active) {
      ts.causes[static_cast<int>(Cause::kSaNotify)] += d_sa;
      ts.causes[static_cast<int>(Cause::kMigration)] += mig;
      ts.causes[static_cast<int>(Cause::kRun)] += run_raw - mig;
      for (int c = 0; c < kNumStealClasses; ++c) {
        ts.causes[static_cast<int>(kStealCause[c])] += d_steal[c];
      }
      const sim::Duration rest = dur - d_run - steal_sum;
      if (rest > 0) ts.causes[static_cast<int>(Cause::kUntracked)] += rest;
    }
  }

  /// Close the current off-chain sub-span [seg_start, t] with both
  /// candidate charges; resolution happens when the chain's cause is known.
  void close_off_sub(TaskState& ts, sim::Time t) {
    if (ts.seg_start < 0 || t <= ts.seg_start) return;
    SubCharge s;
    s.dur = t - ts.seg_start;
    s.in_req = ts.req_active;
    s.lhp_active = lhp_active.value(t) - ts.lhp_active0;
    if (s.lhp_active > s.dur) s.lhp_active = s.dur;
    if (fg_vcpu(ts.vcpu)) {
      VcpuState& v = vc(ts.vcpu);
      for (int c = 0; c < kNumStealClasses; ++c) {
        s.steal[c] = v.steal[c].value(t) - ts.steal0[c];
      }
    }
    ts.chain.push_back(s);
  }

  /// The chain's cause became known: `blocked` chains (ended by a wake)
  /// split into lock-freeze overlap (lhp) + voluntary block; ready chains
  /// (reached the lane with no wake) split into runqueue-vCPU steal
  /// overlaps + genuine CPU contention (ready_wait).
  void resolve_chain(TaskState& ts, bool blocked) {
    for (const SubCharge& s : ts.chain) {
      if (!s.in_req) continue;
      if (blocked) {
        ts.causes[static_cast<int>(Cause::kLhp)] += s.lhp_active;
        ts.causes[static_cast<int>(Cause::kBlock)] += s.dur - s.lhp_active;
      } else {
        sim::Duration steal_sum = 0;
        for (int c = 0; c < kNumStealClasses; ++c) {
          ts.causes[static_cast<int>(kStealCause[c])] += s.steal[c];
          steal_sum += s.steal[c];
        }
        const sim::Duration rest = s.dur - steal_sum;
        if (rest > 0) ts.causes[static_cast<int>(Cause::kReadyWait)] += rest;
      }
    }
    ts.chain.clear();
  }

  // --- event handlers -----------------------------------------------------

  void on_guest_switch(const sim::TraceRecord& r) {
    const int gcpu = r.a;
    const std::int32_t old = lane[static_cast<std::size_t>(gcpu)];
    if (old >= 0 && old != r.b) {
      TaskState& ot = task(old);
      if (ot.phase == kPhOn && ot.vcpu == gcpu) {
        close_on(ot, r.when);
        ot.phase = kPhPending;
        snapshot(ot, r.when);
      }
    }
    lane[static_cast<std::size_t>(gcpu)] = r.b;
    if (r.b < 0) return;
    TaskState& ts = task(r.b);
    if (ts.phase == kPhOn) {
      if (ts.vcpu != gcpu) {
        close_on(ts, r.when);
        ts.vcpu = gcpu;
        snapshot(ts, r.when);
      }
      return;
    }
    if (ts.phase == kPhPending || ts.phase == kPhWaiting) {
      // Reached the lane without a wake in between: the whole chain was
      // runnable-wait (and for kPhWaiting, the post-wake tail of it).
      close_off_sub(ts, r.when);
      resolve_chain(ts, /*blocked=*/false);
    }
    ts.phase = kPhOn;
    ts.vcpu = gcpu;
    snapshot(ts, r.when);
  }

  void on_guest_wake(const sim::TraceRecord& r) {
    // a = task, b = target gcpu
    if (r.a < 0) return;
    TaskState& ts = task(r.a);
    if (ts.phase == kPhOn) return;  // spurious (already running)
    if (ts.phase == kPhPending) {
      // A wake proves the chain so far was a voluntary block.
      close_off_sub(ts, r.when);
      resolve_chain(ts, /*blocked=*/true);
      ts.phase = kPhWaiting;
      ts.vcpu = r.b;
      snapshot(ts, r.when);
      return;
    }
    if (ts.phase == kPhWaiting) {
      if (ts.vcpu != r.b) {
        close_off_sub(ts, r.when);
        ts.vcpu = r.b;
        snapshot(ts, r.when);
      }
      return;
    }
    ts.phase = kPhWaiting;  // cold start mid-wake
    ts.vcpu = r.b;
    snapshot(ts, r.when);
  }

  void on_migrate(const sim::TraceRecord& r) {
    // a = task, b = to gcpu, c = from gcpu, note = charged penalty (ns)
    if (r.a < 0) return;
    TaskState& ts = task(r.a);
    ts.mig_debt += std::atoll(r.note.c_str());
    if (ts.phase == kPhPending || ts.phase == kPhWaiting) {
      if (ts.vcpu != r.b) {
        close_off_sub(ts, r.when);
        ts.vcpu = r.b;
        snapshot(ts, r.when);
      }
    } else if (ts.phase == kPhUnknown) {
      ts.vcpu = r.b;
    }
  }

  /// A request span opens at `when` (its service start) on `task`, after
  /// `qwait` ns in the accept queue.
  void on_req_begin(sim::Time when, std::int32_t cls, std::int32_t task_id,
                    sim::Duration qwait) {
    if (task_id < 0) return;
    TaskState& ts = task(task_id);
    // Boundary first (with req_active still false / previous span closed),
    // so nothing before the begin instant is ever charged to this span.
    if (ts.phase == kPhOn) {
      close_on(ts, when);
      snapshot(ts, when);
    } else if (ts.phase == kPhPending || ts.phase == kPhWaiting) {
      close_off_sub(ts, when);
      snapshot(ts, when);
    }
    ts.req_active = true;
    ts.req_cls = cls >= 0 ? cls : 0;
    for (int c = 0; c < kNumCauses; ++c) ts.causes[c] = 0;
    // Back-date the span by the accept-queue wait and pre-charge it, so the
    // end-to-end total still covers arrival -> completion, exactly.
    ts.req_begin = when - qwait;
    ts.causes[static_cast<int>(Cause::kQueueWait)] = qwait;
  }

  void on_req_end(sim::Time when, std::int32_t cls_id, std::int32_t task_id) {
    const int cls = cls_id >= 0 ? cls_id : 0;
    ensure_class(cls);
    ForensicsClassResult& cr = out.classes[static_cast<std::size_t>(cls)];
    if (task_id < 0) {  // no task to attribute to: report, never charge
      ++cr.truncated;
      return;
    }
    TaskState& ts = task(task_id);
    if (!ts.req_active) {
      // No begin was seen for this span: report, never charge.
      ++cr.truncated;
      return;
    }
    if (ts.phase == kPhOn) {
      close_on(ts, when);
      snapshot(ts, when);
    } else if (ts.phase == kPhPending || ts.phase == kPhWaiting) {
      close_off_sub(ts, when);
      resolve_chain(ts, /*blocked=*/false);
      snapshot(ts, when);
    }
    if (out.head_truncated_at >= 0 && ts.req_begin < out.head_truncated_at) {
      // The span began before the retained ring head: the scheduler
      // evidence inside it is partial. Report, never charge (the segment
      // state above still had to be settled to stay consistent).
      ++cr.truncated;
      ts.req_active = false;
      return;
    }
    const sim::Duration total = when - ts.req_begin;
    sim::Duration charged = 0;
    for (int c = 0; c < kNumCauses; ++c) charged += ts.causes[c];
    // Cold starts (span opened before the replay knew the task's state)
    // leave a gap; it lands in `untracked` so the sum stays exact.
    if (total > charged) {
      ts.causes[static_cast<int>(Cause::kUntracked)] += total - charged;
    }
    for (int c = 0; c < kNumCauses; ++c) cr.causes[c].add(ts.causes[c]);
    ++cr.spans;
    if (ForensicsWindow* w = violating_row(cls, when)) {
      ++w->requests;
      if (total > cr.spec.threshold) {
        ++w->violations;
        for (int c = 0; c < kNumCauses; ++c) w->causes[c] += ts.causes[c];
      }
    }
    ts.req_active = false;
  }

  void on_hv(const sim::TraceRecord& r) {
    VcpuState& v = vc(r.a);
    switch (r.kind) {
      case sim::TraceKind::kHvSchedule:
        if (v.open_steal >= 0) {
          v.steal[v.open_steal].stop(r.when);
          if (v.open_steal == kStLhp) lhp_dec(r.when);
          v.open_steal = -1;
        }
        v.run.start(r.when);
        pending_cls[static_cast<std::size_t>(r.a)] = -1;
        break;
      case sim::TraceKind::kHvPreempt: {
        v.run.stop(r.when);
        v.sa.stop(r.when);
        int cls = pending_cls[static_cast<std::size_t>(r.a)];
        if (cls >= 0) {
          pending_cls[static_cast<std::size_t>(r.a)] = -1;
        } else if (r.note == "throttle") {
          cls = kStThrottle;
        } else {
          cls = kStOther;
        }
        if (v.open_steal < 0) {
          v.open_steal = cls;
          v.steal[cls].start(r.when);
          if (cls == kStLhp) lhp_inc(r.when);
        }
        break;
      }
      case sim::TraceKind::kHvBlock:
        v.run.stop(r.when);
        v.sa.stop(r.when);
        if (v.open_steal >= 0) {
          v.steal[v.open_steal].stop(r.when);
          if (v.open_steal == kStLhp) lhp_dec(r.when);
          v.open_steal = -1;
        }
        pending_cls[static_cast<std::size_t>(r.a)] = -1;
        break;
      case sim::TraceKind::kHvWake:
        // Runnable-wait half of steal time (often zero-length).
        if (!v.run.active() && v.open_steal < 0) {
          v.open_steal = kStOther;
          v.steal[kStOther].start(r.when);
        }
        break;
      case sim::TraceKind::kSaSend:
        if (v.run.active()) v.sa.start(r.when);
        break;
      case sim::TraceKind::kSaAck:
        v.sa.stop(r.when);
        break;
      case sim::TraceKind::kLhp:
        pending_cls[static_cast<std::size_t>(r.a)] = kStLhp;
        break;
      case sim::TraceKind::kLwp:
        pending_cls[static_cast<std::size_t>(r.a)] = kStLwp;
        break;
      default:
        break;
    }
  }

  // --- stream sink (see merge_brackets) ----------------------------------

  void record(const sim::TraceRecord& r) {
    switch (r.kind) {
      case sim::TraceKind::kGuestSwitch:
        if (fg_vcpu(r.a)) on_guest_switch(r);
        break;
      case sim::TraceKind::kGuestWake:
        if (fg_vcpu(r.b)) on_guest_wake(r);
        break;
      case sim::TraceKind::kMigrate:
        if (fg_vcpu(r.b)) on_migrate(r);
        break;
      case sim::TraceKind::kReqBegin:
        // A rendered bracket (with_request_spans) carries the accept-queue
        // wait as a decimal-ns note.
        on_req_begin(r.when, r.b, r.c, std::atoll(r.note.c_str()));
        break;
      case sim::TraceKind::kReqEnd:
        on_req_end(r.when, r.b, r.c);
        break;
      case sim::TraceKind::kHvSchedule:
      case sim::TraceKind::kHvPreempt:
      case sim::TraceKind::kHvBlock:
      case sim::TraceKind::kHvWake:
      case sim::TraceKind::kSaSend:
      case sim::TraceKind::kSaAck:
      case sim::TraceKind::kLhp:
      case sim::TraceKind::kLwp:
        if (fg_vcpu(r.a)) on_hv(r);
        break;
      default:
        break;
    }
  }
  void begin(std::uint64_t /*seq*/, const ReqSpan& s) {
    on_req_begin(s.begin + s.qwait, s.cls, s.task, s.qwait);
  }
  void end(std::uint64_t /*seq*/, const ReqSpan& s) {
    on_req_end(s.end, s.cls, s.task);
  }
};

/// Renders the merged stream as one vector, brackets as kReqBegin/kReqEnd
/// records.
struct Render {
  std::vector<sim::TraceRecord>& out;

  void record(const sim::TraceRecord& r) { out.push_back(r); }
  void begin(std::uint64_t seq, const ReqSpan& s) {
    sim::TraceRecord rec{s.begin + s.qwait, seq, sim::TraceKind::kReqBegin,
                         s.req, s.cls, s.task, ""};
    if (s.qwait > 0) {
      // A 15-char note holds any wait below ~11.5 simulated days;
      // TraceNote truncates (never overflows) beyond that.
      char buf[24];
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(s.qwait));
      rec.note = buf;
    }
    out.push_back(rec);
  }
  void end(std::uint64_t seq, const ReqSpan& s) {
    out.push_back(sim::TraceRecord{s.end, seq, sim::TraceKind::kReqEnd, s.req,
                                   s.cls, s.task, ""});
  }
};

/// Sort key of one side of the request brackets. A bracket's seq is
/// implied by its span's index in the log (begin = base + 2i, end =
/// base + 2i + 1), so (when, idx) orders a side exactly as (when, seq).
struct BracketKey {
  sim::Time when;
  std::uint64_t idx;

  bool operator<(const BracketKey& o) const {
    return when != o.when ? when < o.when : idx < o.idx;
  }
};
static_assert(sizeof(BracketKey) == 16);

/// The one event loop: walk the records of `ring` (already in (when, seq)
/// order) and the begin/end brackets of `spans` as one (when, seq)-ordered
/// stream without materialising it. The sink sees record(r) per record,
/// begin(seq, span) at each span's service start (begin + qwait) and
/// end(seq, span) at its completion. Bracket seqs start at `base_seq`; at
/// an equal (when, seq) the record goes first, as std::merge would order
/// it.
template <class Sink>
void merge_brackets(const sim::TraceView& ring, std::span<const ReqSpan> spans,
                    std::uint64_t base_seq, Sink& sink) {
  std::vector<BracketKey> begins(spans.size()), ends(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    begins[i] = BracketKey{spans[i].begin + spans[i].qwait, i};
    ends[i] = BracketKey{spans[i].end, i};
  }
  // Ends arrive in completion order; begins do not (a long span began
  // before the shorter ones that completed ahead of it).
  for (std::vector<BracketKey>* side : {&begins, &ends}) {
    if (!std::is_sorted(side->begin(), side->end())) {
      std::sort(side->begin(), side->end());
    }
  }
  std::size_t bi = 0, ei = 0;
  bool have = false, is_begin = false;
  sim::Time when = 0;
  std::uint64_t seq = 0;
  const auto next = [&] {
    const bool hb = bi < begins.size(), he = ei < ends.size();
    have = hb || he;
    if (!have) return;
    // At one instant begin seq base + 2ib precedes end seq base + 2ie + 1
    // exactly when ib <= ie.
    is_begin = hb && (!he || begins[bi].when < ends[ei].when ||
                      (begins[bi].when == ends[ei].when &&
                       begins[bi].idx <= ends[ei].idx));
    const BracketKey& k = is_begin ? begins[bi] : ends[ei];
    when = k.when;
    seq = base_seq + 2 * k.idx + (is_begin ? 0 : 1);
  };
  const auto emit = [&] {
    if (is_begin) {
      sink.begin(seq, spans[begins[bi++].idx]);
    } else {
      sink.end(seq, spans[ends[ei++].idx]);
    }
    next();
  };
  next();
  for (const std::span<const sim::TraceRecord> part :
       {ring.older, ring.newer}) {
    for (const sim::TraceRecord& r : part) {
      while (have && (when < r.when || (when == r.when && seq < r.seq))) {
        emit();
      }
      sink.record(r);
    }
  }
  while (have) emit();
}

ForensicsResult analyze(const sim::TraceView& ring,
                        std::span<const ReqSpan> spans, std::uint64_t base_seq,
                        const TraceMeta& meta, const SloResult& slo,
                        const std::string& vm) {
  Analyzer az{slo, slo.window > 0 ? slo.window : SloTracker::kDefaultWindow};
  az.out.window = az.window;
  int max_vcpu = -1;
  for (const VcpuInfo& v : meta.vcpus) max_vcpu = std::max(max_vcpu, v.id);
  az.vcpus.resize(static_cast<std::size_t>(max_vcpu + 1));
  az.is_fg.assign(static_cast<std::size_t>(max_vcpu + 1), 0);
  az.pending_cls.assign(static_cast<std::size_t>(max_vcpu + 1), -1);
  az.lane.assign(static_cast<std::size_t>(max_vcpu + 1), -1);
  for (const VcpuInfo& v : meta.vcpus) {
    if (v.vm == vm) az.is_fg[static_cast<std::size_t>(v.id)] = 1;
  }
  int max_task = -1;
  for (const TaskInfo& t : meta.tasks) max_task = std::max(max_task, t.id);
  az.tasks.resize(static_cast<std::size_t>(max_task + 1));
  if (meta.dropped > 0) {
    // The retained-ring head: the ring keeps exactly the newest seqs, and
    // seqs and timestamps are co-monotonic (both drawn at record time), so
    // scheduler evidence is complete from the first retained record on.
    // Request brackets never drop, so rendered ones are skipped.
    const auto is_bracket = [](const sim::TraceRecord& r) {
      return r.kind == sim::TraceKind::kReqBegin ||
             r.kind == sim::TraceKind::kReqEnd;
    };
    for (const std::span<const sim::TraceRecord> part :
         {ring.older, ring.newer}) {
      const auto it = std::find_if_not(part.begin(), part.end(), is_bracket);
      if (it != part.end()) {
        az.out.head_truncated_at = it->when;
        break;
      }
    }
  }
  // Classes (and their violating-window sets) exist up front so an
  // all-truncated capture still reports per-class truncation counts.
  for (std::size_t i = 0; i < slo.classes.size(); ++i) {
    az.ensure_class(static_cast<int>(i));
  }

  merge_brackets(ring, spans, base_seq, az);

  // Spans still open when the trace ends are reported, never charged.
  for (TaskState& ts : az.tasks) {
    if (ts.req_active) {
      az.ensure_class(ts.req_cls);
      ++az.out.classes[static_cast<std::size_t>(ts.req_cls)].open;
    }
  }
  for (ForensicsClassResult& c : az.out.classes) {
    std::sort(c.windows.begin(), c.windows.end(),
              [](const ForensicsWindow& x, const ForensicsWindow& y) {
                return x.index < y.index;
              });
  }
  return az.out;
}

}  // namespace

std::vector<sim::TraceRecord> with_request_spans(
    const std::vector<sim::TraceRecord>& records,
    const std::vector<ReqSpan>& spans, std::uint64_t base_seq) {
  std::vector<sim::TraceRecord> merged;
  merged.reserve(records.size() + 2 * spans.size());
  Render sink{merged};
  merge_brackets(sim::TraceView{records, {}}, spans, base_seq, sink);
  return merged;
}

ForensicsResult request_forensics(const std::vector<sim::TraceRecord>& records,
                                  const TraceMeta& meta, const SloResult& slo,
                                  const std::string& vm) {
  return analyze(sim::TraceView{records, {}}, {}, 0, meta, slo, vm);
}

ForensicsResult request_forensics(const sim::Trace& trace,
                                  const std::vector<ReqSpan>& spans,
                                  const TraceMeta& meta, const SloResult& slo,
                                  const std::string& vm) {
  return analyze(trace.view(), spans, trace.total_recorded(), meta, slo, vm);
}

// ---------------------------------------------------------------------------
// Fold
// ---------------------------------------------------------------------------

void fold_forensics(ForensicsResult& acc, const ForensicsResult& r) {
  if (r.empty()) return;
  if (acc.empty()) {
    acc = r;
    return;
  }
  acc.head_truncated_at = std::max(acc.head_truncated_at, r.head_truncated_at);
  for (const ForensicsClassResult& rc : r.classes) {
    ForensicsClassResult* ac = nullptr;
    for (ForensicsClassResult& c : acc.classes) {
      if (c.name == rc.name) {
        ac = &c;
        break;
      }
    }
    if (ac == nullptr) {
      acc.classes.push_back(rc);
      continue;
    }
    ac->spans += rc.spans;
    ac->truncated += rc.truncated;
    ac->open += rc.open;
    for (int c = 0; c < kNumCauses; ++c) ac->causes[c].merge(rc.causes[c]);
    for (const ForensicsWindow& rw : rc.windows) {
      auto it = std::find_if(
          ac->windows.begin(), ac->windows.end(),
          [&rw](const ForensicsWindow& w) { return w.index == rw.index; });
      if (it == ac->windows.end()) {
        ac->windows.push_back(rw);
      } else {
        it->requests += rw.requests;
        it->violations += rw.violations;
        for (int c = 0; c < kNumCauses; ++c) it->causes[c] += rw.causes[c];
      }
    }
    std::sort(ac->windows.begin(), ac->windows.end(),
              [](const ForensicsWindow& x, const ForensicsWindow& y) {
                return x.index < y.index;
              });
  }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

void forensics_json(JsonWriter& w, const ForensicsResult& f) {
  w.begin_object();
  w.field("window_ns", static_cast<std::int64_t>(f.window));
  w.field("head_truncated_at",
          static_cast<std::int64_t>(f.head_truncated_at));
  w.key("classes");
  w.begin_array();
  for (const ForensicsClassResult& c : f.classes) {
    w.begin_object();
    w.field("name", c.name);
    w.field("threshold_ns", static_cast<std::int64_t>(c.spec.threshold));
    w.field("objective", c.spec.objective);
    w.field("spans", c.spans);
    w.field("truncated", c.truncated);
    w.field("open", c.open);
    w.key("causes");
    w.begin_array();
    for (int i = 0; i < kNumCauses; ++i) {
      w.begin_object();
      w.field("name", std::string(cause_name(static_cast<Cause>(i))));
      histogram_json_fields(w, c.causes[i]);
      w.end_object();
    }
    w.end_array();
    w.key("windows");
    w.begin_array();
    for (const ForensicsWindow& win : c.windows) {
      w.begin_array();
      w.value(static_cast<std::int64_t>(win.index));
      w.value(win.requests);
      w.value(win.violations);
      for (int i = 0; i < kNumCauses; ++i) {
        w.value(static_cast<std::int64_t>(win.causes[i]));
      }
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

namespace {

bool fz_err(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

int cause_index(const std::string& name) {
  for (int i = 0; i < kNumCauses; ++i) {
    if (name == cause_name(static_cast<Cause>(i))) return i;
  }
  return -1;
}

}  // namespace

bool forensics_from_value(const JsonValue& v, ForensicsResult* out,
                          std::string* err) {
  if (!v.is_object()) return fz_err(err, "forensics is not a JSON object");
  ForensicsResult f;
  std::int64_t window = 0, head = 0;
  const JsonValue* fld = v.find("window_ns");
  if (fld == nullptr || !fld->get(&window)) {
    return fz_err(err, "forensics: missing or bad 'window_ns'");
  }
  f.window = window;
  if ((fld = v.find("head_truncated_at")) == nullptr || !fld->get(&head)) {
    return fz_err(err, "forensics: missing 'head_truncated_at'");
  }
  f.head_truncated_at = head;
  const JsonValue* classes = v.find("classes");
  if (classes == nullptr || !classes->is_array()) {
    return fz_err(err, "forensics: missing or bad 'classes'");
  }
  for (const JsonValue& cv : classes->items) {
    if (!cv.is_object()) {
      return fz_err(err, "forensics: class is not an object");
    }
    ForensicsClassResult c;
    std::int64_t threshold = 0;
    if ((fld = cv.find("name")) == nullptr || !fld->get(&c.name)) {
      return fz_err(err, "forensics class: missing 'name'");
    }
    if ((fld = cv.find("threshold_ns")) == nullptr || !fld->get(&threshold)) {
      return fz_err(err, "forensics class: missing 'threshold_ns'");
    }
    c.spec.threshold = threshold;
    if ((fld = cv.find("objective")) == nullptr ||
        !fld->get(&c.spec.objective)) {
      return fz_err(err, "forensics class: missing 'objective'");
    }
    if ((fld = cv.find("spans")) == nullptr || !fld->get(&c.spans)) {
      return fz_err(err, "forensics class: missing 'spans'");
    }
    if ((fld = cv.find("truncated")) == nullptr || !fld->get(&c.truncated)) {
      return fz_err(err, "forensics class: missing 'truncated'");
    }
    if ((fld = cv.find("open")) == nullptr || !fld->get(&c.open)) {
      return fz_err(err, "forensics class: missing 'open'");
    }
    const JsonValue* causes = cv.find("causes");
    if (causes == nullptr || !causes->is_array()) {
      return fz_err(err, "forensics class: missing 'causes'");
    }
    bool seen[kNumCauses] = {};
    for (const JsonValue& hv : causes->items) {
      if (!hv.is_object()) {
        return fz_err(err, "forensics class: cause is not an object");
      }
      std::string cname;
      if ((fld = hv.find("name")) == nullptr || !fld->get(&cname)) {
        return fz_err(err, "forensics cause: missing 'name'");
      }
      const int ci = cause_index(cname);
      if (ci < 0) return fz_err(err, "forensics cause: unknown '" + cname + "'");
      if (seen[ci]) {
        return fz_err(err, "forensics cause: duplicate '" + cname + "'");
      }
      seen[ci] = true;
      if (!histogram_from_value(hv, "forensics cause", &c.causes[ci], err)) {
        return false;
      }
    }
    const JsonValue* windows = cv.find("windows");
    if (windows == nullptr || !windows->is_array()) {
      return fz_err(err, "forensics class: missing 'windows'");
    }
    for (const JsonValue& wv : windows->items) {
      // Window causes are positional (enum order); causes append, so a
      // capture from before a cause existed is shorter — accept it and
      // default the missing tail to 0. Longer than we know is malformed.
      if (!wv.is_array() || wv.items.size() < 3 ||
          wv.items.size() > static_cast<std::size_t>(3 + kNumCauses)) {
        return fz_err(err, "forensics class: bad window entry");
      }
      ForensicsWindow win;
      std::int64_t idx = 0;
      if (!wv.items[0].get(&idx) || !wv.items[1].get(&win.requests) ||
          !wv.items[2].get(&win.violations)) {
        return fz_err(err, "forensics class: bad window field");
      }
      win.index = idx;
      for (int i = 0; 3 + i < static_cast<int>(wv.items.size()); ++i) {
        std::int64_t d = 0;
        if (!wv.items[static_cast<std::size_t>(3 + i)].get(&d)) {
          return fz_err(err, "forensics class: bad window cause");
        }
        win.causes[i] = d;
      }
      c.windows.push_back(win);
    }
    f.classes.push_back(std::move(c));
  }
  *out = std::move(f);
  return true;
}

}  // namespace irs::obs
