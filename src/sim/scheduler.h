// Deterministic virtual-time scheduler.
//
// Exactly one rank executes at a time: the ready rank with the minimal
// (virtual time, rank) key. Ranks hand the token off whenever their clock
// advances past another ready rank and park when they block on a condition.
// Because the running rank is always the unique minimum, a simulation's
// event order — and therefore every virtual timestamp — is a pure function
// of the program, independent of host scheduling.
//
// Every rank is a stackful fiber multiplexed onto the host thread that
// calls run(): a handoff is a user-space stack switch (tens of ns) with no
// mutex, no condition variable and no kernel arbitration — the host-side
// analogue of the paper's single-writer flag philosophy. Sanitizer builds
// run the same engine: each switch is announced through the TSan or ASan
// fiber API (sched_fibers.cpp), so TSan checks races between simulated
// ranks and ASan follows every fiber stack.
//
// Conditions are expressed as (channel, predicate) pairs: a blocked rank is
// re-examined only when somebody calls notify(channel); a channel→waiters
// hash map keeps that proportional to actual dependencies, and the ready
// set is an O(log n) binary min-heap.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace xhc::sim {

class VirtualScheduler {
 public:
  /// Non-capturing predicate thunk: called with the context pointer given
  /// to wait_until_raw; returns the resume time when the condition holds.
  using PredFn = std::optional<double> (*)(void*);

  /// Exploration hook (src/check/): consulted at every scheduling decision
  /// with the runnable candidate ranks in ascending order (at a running
  /// rank's yield point the list includes that rank itself). Returns the
  /// rank to run next, or -1 to defer to the default minimal-(vtime, rank)
  /// policy. Null — the default — keeps the schedule bit-identical to the
  /// unhooked engine. The hook perturbs only execution (wall) order; flag
  /// visibility stays virtual-time-filtered, so hooked runs still satisfy
  /// every timestamp invariant.
  using PickHook = std::function<int(const std::vector<int>&)>;

  /// Scheduler over `n` >= 1 ranks whose clocks all start at `epoch`.
  static std::unique_ptr<VirtualScheduler> create(int n, double epoch);

  virtual ~VirtualScheduler() = default;

  /// Executes body(r) once for every rank r under virtual-time scheduling
  /// and returns when all ranks have finished or unwound. If any rank
  /// throws (including a deadlock report), every other rank is aborted and
  /// the chronologically-first exception is rethrown.
  virtual void run(const std::function<void(int)>& body) = 0;

  // -- rank side (callable only by rank `r` while it runs) ------------------

  /// Virtual clock of `r`.
  virtual double now(int r) = 0;
  /// Advances r's clock by `dt` and yields if another rank became minimal.
  virtual void advance(int r, double dt) = 0;
  /// Raises r's clock to at least `t` (no-op if already past) and yields.
  virtual void lift(int r, double t) = 0;

  /// Blocks `r` until `pred()` returns an engaged resume time. `pred` is
  /// evaluated only while `r` is the scheduled rank, and re-examined only
  /// after a notify(channel). Returns r's clock after resumption (max of
  /// its previous clock and the predicate's resume time). The predicate is
  /// captured by reference — no allocation — which is safe because the
  /// caller's frame stays live for the whole (possibly suspended) call.
  template <typename Pred>
  double wait_until(int r, const void* channel, Pred&& pred) {
    using P = std::remove_reference_t<Pred>;
    return wait_until_raw(
        r, channel,
        [](void* p) -> std::optional<double> {
          return (*static_cast<P*>(p))();
        },
        const_cast<std::remove_const_t<P>*>(std::addressof(pred)));
  }
  virtual double wait_until_raw(int r, const void* channel, PredFn fn,
                                void* ctx) = 0;

  /// Marks every rank blocked on `channel` for predicate re-evaluation.
  /// Call after mutating the state the predicates inspect.
  virtual void notify(const void* channel) = 0;

  /// Full barrier over all live ranks; everyone resumes at
  /// (max arrival time + extra_cost).
  virtual void barrier(int r, double extra_cost) = 0;

  /// Aborts the simulation: wakes every parked rank and makes all further
  /// scheduler calls throw, so the remaining ranks unwind instead of
  /// waiting forever on flags that will never be stored.
  virtual void abort_all() = 0;

  /// Installs a channel→name mapping used by the deadlock report, so a
  /// blocked rank is described as blocked@'ctl0/h0.announce' instead of a
  /// raw address. Empty result falls back to the address. Call before run().
  virtual void set_channel_namer(
      std::function<std::string(const void*)> namer) = 0;

  /// Installs the exploration pick hook (see PickHook). Call before run().
  virtual void set_pick_hook(PickHook hook) = 0;

  // -- observers ------------------------------------------------------------
  virtual int n_ranks() const noexcept = 0;
};

}  // namespace xhc::sim
