#include "src/wl/server.h"

#include <cassert>

namespace irs::wl {

// ---------------------------------------------------------------------------
// The serving path every server shares
// ---------------------------------------------------------------------------

void RequestSink::complete(const guest::Task& t, sim::Time begin,
                           sim::Time now, std::int32_t req, std::size_t cls,
                           sim::Duration qwait) {
  latency->add(now - begin);
  if (spans != nullptr) {
    spans->push_back(obs::ReqSpan{begin, now, req,
                                  static_cast<std::int32_t>(cls), t.id(),
                                  qwait});
  }
  if (slo != nullptr) slo->record(cls, now, now - begin);
  work->inc(obs::Cnt::kWorkUnits);
}

ServerWorkload::ServerWorkload(std::string name, std::string slo_class,
                               sim::Duration run_for,
                               obs::SloSpec default_spec)
    : Workload(std::move(name)),
      run_for_(run_for),
      slo_class_(std::move(slo_class)),
      default_spec_(default_spec) {}

double ServerWorkload::throughput() const {
  return progress() / sim::to_sec(run_for_);
}

void ServerWorkload::enable_slo(sim::Duration window, obs::SloSpec spec) {
  assert(tasks_.empty() && "enable_slo() after instantiate()");
  slo_ = std::make_unique<obs::SloTracker>(window);
  slo_->add_class(slo_class_, spec);
  on_enable_slo(*slo_, window, spec);
}

obs::SloResult ServerWorkload::slo_result(sim::Time end) {
  if (slo_ == nullptr) return {};
  slo_->flush(end);
  return slo_->result();
}

void ServerWorkload::enable_request_spans() {
  assert(tasks_.empty() && "enable_request_spans() after instantiate()");
  req_spans_ = true;
  // Reserve a fig08-sized run's worth up front: the append is on the
  // serving path, and growth reallocs would otherwise dominate its cost.
  spans_.reserve(std::size_t{1} << 17);
}

RequestSink ServerWorkload::sink() {
  return RequestSink{&latency_, &work_, slo_.get(),
                     req_spans_ ? &spans_ : nullptr};
}

// ---------------------------------------------------------------------------
// SPECjbb-like worker
// ---------------------------------------------------------------------------

guest::Action JbbWorkerBehavior::next(guest::Task& t, sim::Time now,
                                      sim::Rng& rng) {
  for (;;) {
    switch (step_) {
      case 0:  // start a transaction
        if (now >= shape_.end_time) return guest::Action::finish();
        txn_start_ = now;
        step_ = 1;
        return guest::Action::compute(
            rng.jittered(shape_.service_mean, 0.5));
      case 1:  // main compute done; occasionally touch the shared structure
        if (shape_.cs_every > 0 && ++txn_count_ % shape_.cs_every == 0) {
          step_ = 2;
          if (shape_.spin != nullptr) {
            return guest::Action::spin_lock(*shape_.spin);
          }
          return guest::Action::lock(*shape_.mutex);
        }
        step_ = 4;
        continue;
      case 2:
        step_ = 3;
        return guest::Action::compute(rng.jittered(shape_.cs_len, 0.3));
      case 3:
        step_ = 4;
        if (shape_.spin != nullptr) {
          return guest::Action::spin_unlock(*shape_.spin);
        }
        return guest::Action::unlock(*shape_.mutex);
      case 4:  // transaction complete
        shape_.sink.complete(t, txn_start_, now, shape_.sink.next_req++, 0);
        step_ = 0;
        continue;
      default:
        return guest::Action::finish();
    }
  }
}

// ---------------------------------------------------------------------------
// ab-like worker
// ---------------------------------------------------------------------------

guest::Action AbWorkerBehavior::next(guest::Task& t, sim::Time now,
                                     sim::Rng& rng) {
  for (;;) {
    switch (step_) {
      case 0: {  // wait for the next request of this connection
        if (now >= shape_.end_time) return guest::Action::finish();
        const sim::Duration think = rng.exponential(shape_.think_mean);
        arrival_ = now + think;
        step_ = 1;
        return guest::Action::sleep(std::max<sim::Duration>(1, think));
      }
      case 1:  // request arrived; service it
        if (now >= shape_.end_time) return guest::Action::finish();
        step_ = 2;
        return guest::Action::compute(
            rng.jittered(shape_.service_mean, 0.5));
      case 2:  // response sent
        // Measured from the arrival instant (mid-sleep), so latency and
        // span cover the wake + ready-wait.
        shape_.sink.complete(t, arrival_, now, shape_.sink.next_req++, 0);
        step_ = 0;
        continue;
      default:
        return guest::Action::finish();
    }
  }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

JbbWorkload::JbbWorkload(int warehouses, sim::Duration run_for,
                         sim::Duration txn_mean, sim::Duration cs_len,
                         int cs_every, bool cs_spin)
    : ServerWorkload("specjbb", "jbb", run_for, default_slo()),
      warehouses_(warehouses),
      txn_mean_(txn_mean),
      cs_len_(cs_len),
      cs_every_(cs_every),
      cs_spin_(cs_spin) {}

obs::SloSpec JbbWorkload::default_slo() {
  return obs::SloSpec{sim::milliseconds(10), 0.999};
}

void JbbWorkload::instantiate(guest::GuestKernel& k) {
  sync_ = std::make_unique<sync::SyncContext>(k);
  k.set_memory_intensity(1.0);
  shape_ = std::make_unique<ServerShape>();
  shape_->end_time = k.engine().now() + run_for_;
  shape_->service_mean = txn_mean_;
  // SPECjbb transactions touch shared warehouse structures under a lock
  // often enough that a lock-holder freeze stalls every warehouse — the
  // effect behind the paper's 46% latency improvement.
  shape_->cs_len = cs_len_;
  shape_->cs_every = cs_every_;
  shape_->mutex = &sync_->make_mutex("jbb.shared");
  if (cs_spin_) {
    shape_->spin =
        &sync_->make_spinlock(sync::SpinKind::kTicket, "jbb.shared");
  }
  shape_->sink = sink();
  for (int i = 0; i < warehouses_; ++i) {
    behaviors_.push_back(std::make_unique<JbbWorkerBehavior>(*shape_));
    tasks_.push_back(&k.create_task("jbb.wh" + std::to_string(i),
                                    *behaviors_.back(), i % k.n_cpus()));
  }
}

AbWorkload::AbWorkload(int connections, sim::Duration run_for,
                       sim::Duration service_mean, sim::Duration think_mean)
    : ServerWorkload("ab", "ab", run_for, default_slo()),
      connections_(connections),
      service_mean_(service_mean),
      think_mean_(think_mean) {}

obs::SloSpec AbWorkload::default_slo() {
  return obs::SloSpec{sim::milliseconds(20), 0.999};
}

void AbWorkload::instantiate(guest::GuestKernel& k) {
  sync_ = std::make_unique<sync::SyncContext>(k);
  k.set_memory_intensity(0.8);
  shape_ = std::make_unique<ServerShape>();
  shape_->end_time = k.engine().now() + run_for_;
  shape_->service_mean = service_mean_;
  shape_->think_mean = think_mean_;
  shape_->sink = sink();
  for (int i = 0; i < connections_; ++i) {
    behaviors_.push_back(std::make_unique<AbWorkerBehavior>(*shape_));
    tasks_.push_back(&k.create_task("ab.c" + std::to_string(i),
                                    *behaviors_.back(), i % k.n_cpus()));
  }
}

}  // namespace irs::wl
