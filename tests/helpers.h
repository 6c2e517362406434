// Shared test utilities: scripted behaviours, inline workloads, and world
// builders for the standard two-VM interference topology.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/world.h"
#include "src/guest/action.h"
#include "src/wl/workload.h"

namespace irs::test {

/// Behaviour that replays a fixed action list; finishes at the end unless
/// `loop` is set.
class ScriptedBehavior final : public guest::Behavior {
 public:
  explicit ScriptedBehavior(std::vector<guest::Action> script,
                            bool loop = false)
      : script_(std::move(script)), loop_(loop) {}

  guest::Action next(guest::Task&, sim::Time, sim::Rng&) override {
    if (i_ >= script_.size()) {
      if (!loop_) return guest::Action::finish();
      i_ = 0;
    }
    return script_[i_++];
  }

  [[nodiscard]] std::size_t steps_taken() const { return i_; }

 private:
  std::vector<guest::Action> script_;
  bool loop_;
  std::size_t i_ = 0;
};

/// Behaviour driven by an arbitrary callback.
class LambdaBehavior final : public guest::Behavior {
 public:
  using Fn = std::function<guest::Action(guest::Task&, sim::Time, sim::Rng&)>;
  explicit LambdaBehavior(Fn fn) : fn_(std::move(fn)) {}
  guest::Action next(guest::Task& t, sim::Time now, sim::Rng& rng) override {
    return fn_(t, now, rng);
  }

 private:
  Fn fn_;
};

/// Workload whose content is assembled by a setup callback at instantiate
/// time — lets tests compose arbitrary task/behaviour/sync configurations.
class TestWorkload final : public wl::Workload {
 public:
  using Setup = std::function<void(guest::GuestKernel&, TestWorkload&)>;
  TestWorkload(std::string name, Setup setup)
      : Workload(std::move(name)), setup_(std::move(setup)) {}

  void instantiate(guest::GuestKernel& k) override {
    sync_ = std::make_unique<sync::SyncContext>(k);
    setup_(k, *this);
  }

  guest::Task& add_task(guest::GuestKernel& k, const std::string& name,
                        std::unique_ptr<guest::Behavior> b,
                        int cpu = guest::kNoCpu) {
    behaviors_.push_back(std::move(b));
    tasks_.push_back(&k.create_task(name, *behaviors_.back(), cpu));
    return *tasks_.back();
  }

  [[nodiscard]] sync::SyncContext& sync_ctx() { return *sync_; }

 private:
  Setup setup_;
};

/// A plain "compute forever in 1 ms bursts" behaviour.
inline std::unique_ptr<guest::Behavior> hog_behavior(
    sim::Duration burst = sim::milliseconds(1)) {
  return std::make_unique<ScriptedBehavior>(
      std::vector<guest::Action>{guest::Action::compute(burst)}, true);
}

/// `prefix` followed by `i`, e.g. numbered("h", 2) == "h2". Appends to a
/// std::string instead of writing `"h" + std::to_string(i)`: that form
/// trips a GCC 12 -Wrestrict false positive in Release builds.
inline std::string numbered(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

/// A single finite compute behaviour.
inline std::unique_ptr<guest::Behavior> compute_behavior(sim::Duration d) {
  return std::make_unique<ScriptedBehavior>(
      std::vector<guest::Action>{guest::Action::compute(d)});
}

}  // namespace irs::test
