// Schedule model: the flag protocol of one collective, recorded from the
// real run.
//
// XHC synchronizes only through monotone cumulative flags with one writer
// each (paper §III-E), so each rank's flag stream depends on the comm tree,
// the size class and the tuning, never on the interleaving. record_schedule
// runs the operation once on the simulated machine and keeps, per rank in
// program order, every publish (with the payload coverage it guarantees),
// every wait (with the payload bytes accessed after it) and every RMW: the
// model the analyzer (analyzer.h) checks and the explorer (explore.h)
// interleaves. The protocol is written once, in core/.
//
// Coverage uses abstract buffers (BufKind x rank) and per-byte write
// versions as epochs: every write of a byte raises its version, and a
// rank's inputs are at version 1 on entry. A publish declares what its rank
// came to know since its previous publish (own writes plus acquisitions); a
// wait acquires the cumulative coverage of its earliest satisfying publish,
// the analyzer's own rule. An access at version v (a read, or a write over
// another rank's bytes) is a need on the earliest wait that acquired v, so
// the model claims what the protocol guarantees, not what one schedule
// delivered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mach/flag.h"

namespace xhc::core {
class XhcComponent;
}
namespace xhc::sim {
class SimMachine;
}

namespace xhc::check {

enum class Op { kBcast, kAllreduce, kReduce, kBarrier };
const char* to_string(Op op) noexcept;

enum class EvKind : unsigned char { kPublish, kWait, kRmw };

/// Abstract payload buffers, one set per rank.
enum class BufKind : unsigned char {
  kUser,         ///< bcast buffer / allreduce-reduce result (rbuf)
  kContrib,      ///< reduction contribution (sbuf)
  kCicoContrib,  ///< CICO segment, contribution half
  kCicoResult,   ///< CICO segment, result half
};

/// Byte range of one abstract buffer at one write version.
struct DataRange {
  int buf = -1;  ///< ScheduleModel::buf_id()
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  int epoch = 0;
};

/// One protocol event of one rank.
struct Event {
  EvKind kind = EvKind::kPublish;
  const mach::Flag* flag = nullptr;
  /// Published value / wait threshold / RMW delta.
  std::uint64_t value = 0;
  /// The flag's registered field plus the event kind ("prog.wait",
  /// "announce.publish", "atomic_ctr.rmw", ...).
  std::string site;
  /// kPublish: payload bytes guaranteed readable once this value is seen.
  std::vector<DataRange> writes;
  /// kWait: payload bytes accessed after the wait resumes.
  std::vector<DataRange> needs;
};

struct ScheduleModel {
  Op op = Op::kBcast;
  std::size_t bytes = 0;
  int root = 0;
  int n_ranks = 0;
  /// Program-order event stream of every rank.
  std::vector<std::vector<Event>> per_rank;

  int buf_id(BufKind kind, int rank) const noexcept {
    return static_cast<int>(kind) * n_ranks + rank;
  }
  /// Inverse of buf_id, for reports.
  std::string buf_name(int id) const;
};

/// Runs (op, bytes, root) once on `comp`, which must be built over
/// `machine`, and records its schedule. The result describes that
/// operation as run: on a fresh component, the first operation, where
/// every cumulative base is zero. Reduction payloads are f64 sums of small
/// integers, so every reduction order yields the exact result; `bytes`
/// must then be a multiple of 8. The root is ignored for allreduce
/// (internal root 0) and barrier. Throws util::Error when the payload
/// result is wrong or a payload access lands outside the user, contribution
/// and CICO buffers. The machine's pick hook and any attached probes stay
/// in effect for the run; the model's flags belong to `comp`.
ScheduleModel record_schedule(sim::SimMachine& machine,
                              core::XhcComponent& comp, Op op,
                              std::size_t bytes, int root = 0);

/// The one coverage rule: how far the ranges of `writes` on need's buffer,
/// at an epoch >= need.epoch, reach contiguously from need.lo. The need is
/// covered when the result is >= need.hi.
std::uint64_t coverage_reach(const std::vector<DataRange>& writes,
                             const DataRange& need);

/// Every range `rank` declared in its publishes up to and including event
/// `upto`: the cumulative coverage a wait satisfied by that publish
/// acquires.
std::vector<DataRange> declared_writes(const ScheduleModel& m, int rank,
                                       int upto);

}  // namespace xhc::check
