// Static schedule analyzer: proves per-operation protocol properties on a
// recorded ScheduleModel, for every interleaving its flags allow.
//
// Checked properties (one Finding per violation):
//   single-writer           at most one rank publishes each non-kShared flag
//                           within the operation; RMW only on kShared flags
//   monotonicity            each writer's publish values never decrease
//   unreachable-threshold   every wait threshold is reached by some publish
//                           (for kShared: by the sum of RMW deltas)
//   wait-cycle              the happens-before graph — program order plus an
//                           edge from each wait's earliest satisfying
//                           publish — is acyclic, which implies
//                           deadlock-freedom (DESIGN.md § Static analysis)
//   slot-reuse              a slotted-timeline wait (shard prog / stripe
//                           counters) is satisfied only by a publish of the
//                           same timeline slot, never by progress leaking in
//                           from another stage
//   coverage                the payload bytes a wait reads afterwards are
//                           within the satisfying writer's cumulative
//                           published coverage at a sufficient epoch
//
// Reports are byte-deterministic: findings are ordered, flags are named via
// the verify ledger's registration, and the JSON rendering is hand-built
// with no environment-dependent content.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "check/schedule_model.h"
#include "verify/verify.h"

namespace xhc::check {

enum class Property {
  kSingleWriter,
  kMonotonicity,
  kUnreachableThreshold,
  kWaitCycle,
  kSlotReuse,
  kCoverage,
};
const char* to_string(Property p) noexcept;

struct Finding {
  Property property = Property::kSingleWriter;
  std::string flag;   ///< registered flag name
  int rank = -1;      ///< offending rank
  std::string site;   ///< protocol site of the offending event
  std::string detail; ///< one-line human-readable diagnostic
};

struct AnalysisReport {
  Op op = Op::kBcast;
  std::size_t bytes = 0;
  int root = 0;
  int n_ranks = 0;
  std::size_t n_events = 0;
  std::size_t n_flags = 0;
  std::size_t n_waits = 0;
  std::size_t n_edges = 0;
  std::vector<Finding> findings;  ///< sorted (flag, property, rank, site)

  bool clean() const noexcept { return findings.empty(); }
  /// Deterministic plain-text report (one header line, one line per finding).
  std::string text() const;
  /// Deterministic machine-readable JSON object.
  std::string json() const;
};

/// One event's position in a model: rank and program index.
struct EventRef {
  int rank = -1;
  int idx = -1;
  bool valid() const noexcept { return rank >= 0; }
};

/// Every event touching one flag, in (rank, program-index) order — the
/// writer's program order whenever the flag has one writer — with the
/// flag's registered name and writer policy.
struct FlagUse {
  std::string name;
  verify::WriterPolicy policy = verify::WriterPolicy::kFixed;
  std::vector<EventRef> publishes;
  std::vector<EventRef> rmws;
  std::vector<EventRef> waits;
};

/// Indexes `m` by flag; `names` resolves names and policies (an
/// unregistered flag is "unregistered#<n>", policy kFixed).
std::map<const mach::Flag*, FlagUse> index_flags(const ScheduleModel& m,
                                                 const verify::Ledger& names);

/// Runs every check on `m`. `ledger` resolves flag names and writer
/// policies (the same registration the runtime verifier uses), so the
/// analyzer enforces exactly the declared discipline.
AnalysisReport analyze(const ScheduleModel& m, const verify::Ledger& ledger);

}  // namespace xhc::check
