// Schedule-model interpreter: executes a ScheduleModel's event streams on
// the simulated machine.
//
// Each rank replays its program-order events — release-publish, blocking
// wait, RMW — against a fresh set of flags allocated for the run, so a
// mutated model (mutate.h) never touches a live component's control
// blocks. Payload correctness is checked abstractly: every publish records
// the coverage it declares, every resumed wait asserts its needs are
// inside the coverage published so far (at a sufficient epoch). A private
// verify::Ledger (abort-off) collects writer/monotonicity violations the
// run exhibits.
//
// This is the bridge between the static analyzer and the interleaving
// explorer: run_model() under a PickHook turns one abstract schedule into
// as many concrete executions as the explorer asks for, and the mutation
// tests use it to demonstrate which seeded bugs a runtime execution under
// the DEFAULT schedule cannot observe — the static pass must catch those.
#pragma once

#include <string>
#include <vector>

#include "check/schedule_model.h"
#include "mach/probe.h"
#include "sim/scheduler.h"
#include "verify/verify.h"

namespace xhc::sim {
class SimMachine;
}

namespace xhc::check {

struct InterpResult {
  bool completed = false;  ///< every rank drained its event stream
  bool deadlock = false;   ///< the scheduler reported a blocked machine
  /// Writer/monotonicity violations from the run's private ledger.
  std::vector<verify::Violation> violations;
  /// Coverage failures and the abort diagnostic, one line each (capped).
  std::vector<std::string> errors;

  bool ok() const noexcept {
    return completed && !deadlock && violations.empty() && errors.empty();
  }
};

/// Executes `m` on `machine` (one simulated rank per model rank; the
/// machine must have exactly m.n_ranks ranks). `names` is the ledger the
/// model's flags were registered with — names and writer policies carry
/// over to the run's fresh flags. `hook` perturbs the schedule (null: the
/// engine's default deterministic order); `probe`, when not null, is
/// attached to the machine for the run and observes every access. The
/// machine's pick hook is restored to null and the probe detached on
/// return.
InterpResult run_model(const ScheduleModel& m, sim::SimMachine& machine,
                       const verify::Ledger& names,
                       sim::VirtualScheduler::PickHook hook = nullptr,
                       mach::Probe* probe = nullptr);

}  // namespace xhc::check
