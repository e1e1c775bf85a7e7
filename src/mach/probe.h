// Runtime probe: the one observation channel over a machine's flag and
// payload traffic. A Machine keeps a list of attached probes, empty by
// default, so each hook site costs one test when nothing observes.
// Subscribers: verify::Ledger, obs::WaitFeed, and the protocol checker's
// recorders (src/check/). Probes never charge time, so virtual timestamps
// are identical with any set attached. Callbacks run on the acting rank:
// on SimMachine one at a time on the host thread, on RealMachine
// concurrently from the rank threads (a probe there must be thread-safe).
#pragma once

#include <cstddef>
#include <cstdint>

namespace xhc::mach {

struct Flag;

class Probe {
 public:
  /// The `t` of every event on machines without a virtual clock
  /// (RealMachine), and the `blocked` of a wait that did not block.
  static constexpr double kNoTime = -1.0;

  Probe() = default;
  Probe(const Probe&) = delete;  // machines hold probes by address
  Probe& operator=(const Probe&) = delete;
  virtual ~Probe() = default;

  /// flag_store of `value`, published at virtual time `t`.
  virtual void on_store(const Flag* /*f*/, int /*rank*/,
                        std::uint64_t /*value*/, double /*t*/) {}
  /// fetch_add; `result` is the post-op value.
  virtual void on_rmw(const Flag* /*f*/, int /*rank*/,
                      std::uint64_t /*result*/, double /*t*/) {}
  /// flag_read returned `value` at `t`.
  virtual void on_observe(const Flag* /*f*/, int /*rank*/,
                          std::uint64_t /*value*/, double /*t*/) {}
  virtual void on_wait_enter(const Flag* /*f*/, int /*rank*/,
                             std::uint64_t /*threshold*/) {}
  /// flag_wait_ge resumed at `t`. `blocked` is how long it blocked, entry
  /// to resume on the machine's clock (virtual on SimMachine, wall on
  /// RealMachine), or kNoTime when the value was already published.
  virtual void on_wait_resume(const Flag* /*f*/, int /*rank*/,
                              std::uint64_t /*threshold*/, double /*t*/,
                              double /*blocked*/) {}
  /// Payload access over [p, p + n), SimMachine only (a reduce reads its
  /// source and writes its destination).
  virtual void on_data(int /*rank*/, const void* /*p*/, std::size_t /*n*/,
                       bool /*write*/) {}
};

}  // namespace xhc::mach
