// Schedule recorder: a mach::Probe that turns one real run of an XHC
// operation into its ScheduleModel (see schedule_model.h for the coverage
// rules). Flag stores, RMWs and wait entries become the rank's events;
// payload accesses, mapped to abstract buffers, move the per-byte write
// versions and attach needs to the waits that made them safe.
#include "check/schedule_model.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <utility>

#include "core/xhc_component.h"
#include "mach/machine.h"
#include "mach/probe.h"
#include "sim/sim_machine.h"
#include "util/check.h"
#include "util/prng.h"
#include "verify/verify.h"

namespace xhc::check {

const char* to_string(Op op) noexcept {
  switch (op) {
    case Op::kBcast:
      return "bcast";
    case Op::kAllreduce:
      return "allreduce";
    case Op::kReduce:
      return "reduce";
    case Op::kBarrier:
      return "barrier";
  }
  return "?";
}

std::string ScheduleModel::buf_name(int id) const {
  static const char* kKind[] = {"user", "contrib", "cico_contrib",
                                "cico_result"};
  if (id < 0 || n_ranks <= 0) return "?";
  const int kind = id / n_ranks;
  const int rank = id % n_ranks;
  if (kind < 0 || kind > 3) return "?";
  return std::string(kKind[kind]) + "[" + std::to_string(rank) + "]";
}

std::uint64_t coverage_reach(const std::vector<DataRange>& writes,
                             const DataRange& need) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  for (const DataRange& w : writes) {
    if (w.buf == need.buf && w.epoch >= need.epoch) {
      got.emplace_back(w.lo, w.hi);
    }
  }
  std::sort(got.begin(), got.end());
  std::uint64_t pos = need.lo;
  for (const auto& [lo, hi] : got) {
    if (lo > pos) break;
    pos = std::max(pos, hi);
  }
  return pos;
}

std::vector<DataRange> declared_writes(const ScheduleModel& m, int rank,
                                       int upto) {
  std::vector<DataRange> out;
  const auto& stream = m.per_rank[static_cast<std::size_t>(rank)];
  for (int i = 0; i <= upto; ++i) {
    const Event& e = stream[static_cast<std::size_t>(i)];
    if (e.kind == EvKind::kPublish) {
      out.insert(out.end(), e.writes.begin(), e.writes.end());
    }
  }
  return out;
}

namespace {

/// Per-byte state of one abstract buffer as disjoint runs covering
/// [0, size): the write version and, in a rank's knowledge, the wait event
/// that acquired it (-1: the rank's own write or input).
struct Run {
  std::uint64_t hi = 0;
  int version = 0;
  int by = -1;
};

class Runs {
 public:
  /// Unused until reset: no byte known, nothing to scan.
  Runs() = default;
  bool unused() const noexcept { return runs_.empty(); }
  void reset(std::uint64_t size) {
    runs_.clear();
    runs_.emplace(0, Run{size, 0, -1});
  }
  std::uint64_t size() const { return runs_.rbegin()->second.hi; }

  /// Calls fn(lo, run) on each run of [lo, hi), split so fn may change it.
  template <typename Fn>
  void update(std::uint64_t lo, std::uint64_t hi, Fn&& fn) {
    split(lo);
    split(hi);
    for (auto it = runs_.find(lo); it != runs_.end() && it->first < hi; ++it) {
      fn(it->first, it->second);
    }
    coalesce(lo, hi);
  }

  /// Calls fn(lo, hi, run) on each run piece clipped to [lo, hi).
  template <typename Fn>
  void scan(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    auto it = std::prev(runs_.upper_bound(lo));
    for (; it != runs_.end() && it->first < hi; ++it) {
      fn(std::max(it->first, lo), std::min(it->second.hi, hi), it->second);
    }
  }

 private:
  void split(std::uint64_t at) {
    auto it = std::prev(runs_.upper_bound(at));
    if (it->first == at || at >= it->second.hi) return;
    Run tail = it->second;
    it->second.hi = at;
    runs_.emplace(at, tail);
  }

  void coalesce(std::uint64_t lo, std::uint64_t hi) {
    auto it = runs_.lower_bound(lo);
    if (it != runs_.begin()) --it;
    for (auto next = std::next(it);
         next != runs_.end() && next->first <= hi; next = std::next(it)) {
      if (next->second.version == it->second.version &&
          next->second.by == it->second.by) {
        it->second.hi = next->second.hi;
        runs_.erase(next);
      } else {
        it = next;
      }
    }
  }

  std::map<std::uint64_t, Run> runs_;
};

class Recorder final : public mach::Probe {
 public:
  Recorder(ScheduleModel& m, const verify::Ledger& names)
      : m_(m),
        names_(names),
        ranks_(static_cast<std::size_t>(m.n_ranks)),
        truth_(static_cast<std::size_t>(4 * m.n_ranks)) {
    for (RankState& st : ranks_) {
      st.known.resize(truth_.size());
      st.pending.resize(truth_.size());
      st.seen.assign(static_cast<std::size_t>(m.n_ranks), 0);
    }
  }

  /// Maps [base, base + size) to abstract buffer (kind, rank).
  void map(BufKind kind, int rank, const void* base, std::size_t size) {
    const int buf = m_.buf_id(kind, rank);
    const auto lo = reinterpret_cast<std::uintptr_t>(base);
    regions_.emplace(lo, Region{lo + size, buf});
    truth_[static_cast<std::size_t>(buf)].reset(size);
  }

  /// The operation's input: `rank` owns all of (kind, rank) at version 1
  /// before its first event.
  void input(BufKind kind, int rank) {
    const int buf = m_.buf_id(kind, rank);
    write(rank, buf, 0, truth_[static_cast<std::size_t>(buf)].size());
  }

  void on_store(const mach::Flag* f, int rank, std::uint64_t value,
                double) override {
    last_[f] = value;
    RankState& st = state(rank);
    Event& e = push(rank, EvKind::kPublish, f, value, "publish");
    for (std::size_t b = 0; b < st.pending.size(); ++b) {
      Runs& runs = st.pending[b];
      if (runs.unused()) continue;
      runs.scan(0, runs.size(),
                [&](std::uint64_t lo, std::uint64_t hi, const Run& run) {
                  if (run.version > 0) {
                    e.writes.push_back(
                        DataRange{static_cast<int>(b), lo, hi, run.version});
                  }
                });
      runs = Runs();
    }
    const int idx = static_cast<int>(stream(rank).size()) - 1;
    auto& pubs = pubs_[f];
    const std::uint64_t reach =
        pubs.empty() ? value : std::max(pubs.back().reach, value);
    pubs.push_back(Pub{rank, st.pubs.size(), reach});
    st.pubs.push_back(idx);
  }

  void on_rmw(const mach::Flag* f, int rank, std::uint64_t result,
              double) override {
    std::uint64_t& last = last_[f];
    push(rank, EvKind::kRmw, f, result - last, "rmw");
    last = result;
  }

  void on_wait_enter(const mach::Flag* f, int rank,
                     std::uint64_t threshold) override {
    push(rank, EvKind::kWait, f, threshold, "wait");
    state(rank).waiting = static_cast<int>(stream(rank).size()) - 1;
  }

  /// A wait acquires the cumulative coverage of its earliest satisfying
  /// publish; the writer's publishes up to it are merged once per pair.
  void on_wait_resume(const mach::Flag* f, int rank, std::uint64_t threshold,
                      double, double) override {
    if (threshold == 0 || info(f).shared) return;
    const auto& pubs = pubs_[f];
    const auto sat = std::partition_point(
        pubs.begin(), pubs.end(),
        [&](const Pub& p) { return p.reach < threshold; });
    XHC_CHECK(sat != pubs.end(), "r", rank, " resumed a wait for ", threshold,
              " on ", names_.flag_name(f), " before any publish reached it");
    RankState& st = state(rank);
    std::size_t& seen = st.seen[static_cast<std::size_t>(sat->rank)];
    const RankState& writer = state(sat->rank);
    for (; seen <= sat->ordinal; ++seen) {
      const Event& p = stream(sat->rank)[static_cast<std::size_t>(
          writer.pubs[seen])];
      for (const DataRange& d : p.writes) learn(rank, d, st.waiting);
    }
  }

  void on_data(int rank, const void* p, std::size_t n, bool write) override {
    if (n == 0) return;
    const auto lo = reinterpret_cast<std::uintptr_t>(p);
    auto it = regions_.upper_bound(lo);
    XHC_CHECK(it != regions_.begin(), "r", rank,
              " accessed a payload address outside the mapped buffers");
    --it;
    XHC_CHECK(lo + n <= it->second.hi, "r", rank, " accessed [", lo, ",",
              lo + n, ") outside the mapped buffers");
    const int buf = it->second.buf;
    const std::uint64_t off = lo - it->first;
    access(rank, buf, off, off + n);
    if (write) this->write(rank, buf, off, off + n);
  }

 private:
  struct Region {
    std::uintptr_t hi = 0;
    int buf = -1;
  };
  struct Pub {
    int rank = -1;
    std::size_t ordinal = 0;  ///< index into the writer's RankState::pubs
    /// The flag's greatest value published so far, so the earliest publish
    /// reaching a threshold is found by binary search.
    std::uint64_t reach = 0;
  };
  struct FlagInfo {
    std::string field;
    bool shared = false;
  };
  struct RankState {
    std::vector<Runs> known;          ///< per buffer: versions this rank knows
    std::vector<Runs> pending;        ///< per buffer: learned since the
                                      ///< last publish
    std::vector<int> pubs;            ///< event indices of the publishes
    std::vector<std::size_t> seen;    ///< per writer: publishes acquired
    int waiting = -1;                 ///< the latest wait event
  };

  RankState& state(int rank) { return ranks_[static_cast<std::size_t>(rank)]; }
  std::vector<Event>& stream(int rank) {
    return m_.per_rank[static_cast<std::size_t>(rank)];
  }
  /// `rank`'s per-buffer runs in `of` (known or pending), reset on first
  /// use.
  Runs& runs(std::vector<Runs>& of, int buf) {
    Runs& r = of[static_cast<std::size_t>(buf)];
    if (r.unused()) r.reset(truth_[static_cast<std::size_t>(buf)].size());
    return r;
  }

  const FlagInfo& info(const mach::Flag* f) {
    auto it = flags_.find(f);
    if (it != flags_.end()) return it->second;
    const std::string name = names_.flag_name(f);
    XHC_CHECK(!name.empty(), "recorded a flag the ledger has no name for");
    std::string field = name.substr(name.rfind('.') + 1);
    field = field.substr(0, field.find('['));
    const bool shared =
        names_.flag_policy(f) == verify::WriterPolicy::kShared;
    return flags_.emplace(f, FlagInfo{std::move(field), shared}).first->second;
  }

  Event& push(int rank, EvKind kind, const mach::Flag* f, std::uint64_t value,
              const char* verb) {
    Event e;
    e.kind = kind;
    e.flag = f;
    e.value = value;
    e.site = info(f).field + "." + verb;
    stream(rank).push_back(std::move(e));
    return stream(rank).back();
  }

  /// `rank` learns `d` through wait event `by` (-1: its own write); what
  /// it did not know yet joins its next publish.
  void learn(int rank, const DataRange& d, int by) {
    RankState& st = state(rank);
    Runs& mine = runs(st.known, d.buf);
    bool behind = false;  // checked first: most acquisitions are known
    mine.scan(d.lo, d.hi, [&](std::uint64_t, std::uint64_t, const Run& run) {
      behind = behind || run.version < d.epoch;
    });
    if (!behind) return;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> raised;
    mine.update(d.lo, d.hi, [&](std::uint64_t lo, Run& run) {
      if (run.version >= d.epoch) return;
      run.version = d.epoch;
      run.by = by;
      raised.emplace_back(lo, run.hi);
    });
    Runs& pending = runs(st.pending, d.buf);
    for (const auto& [lo, hi] : raised) {
      pending.update(lo, hi, [&](std::uint64_t, Run& run) {
        run.version = std::max(run.version, d.epoch);
      });
    }
  }

  /// An access to [lo, hi) of `buf` depends on the bytes' current versions:
  /// each one another rank wrote becomes a need on the wait that acquired
  /// it. A version no wait acquired lands on the latest wait, where the
  /// analyzer reports it as uncovered.
  void access(int rank, int buf, std::uint64_t lo, std::uint64_t hi) {
    const Runs& mine = runs(state(rank).known, buf);
    truth_[static_cast<std::size_t>(buf)].scan(lo, hi, [&](std::uint64_t a, std::uint64_t b,
                                    const Run& now) {
      if (now.version == 0) return;
      mine.scan(a, b, [&](std::uint64_t c, std::uint64_t d, const Run& k) {
        int at = k.by;
        if (k.version < now.version) {
          at = state(rank).waiting;
          XHC_CHECK(at >= 0, "r", rank, " accessed ", m_.buf_name(buf), " [",
                    c, ",", d, ") at version ", now.version,
                    " before any wait");
        }
        if (at < 0) return;  // its own bytes
        auto& needs = stream(rank)[static_cast<std::size_t>(at)].needs;
        if (!needs.empty() && needs.back().buf == buf &&
            needs.back().epoch == now.version && needs.back().hi == c) {
          needs.back().hi = d;  // the access continues the previous need
        } else {
          needs.push_back(DataRange{buf, c, d, now.version});
        }
      });
    });
  }

  void write(int rank, int buf, std::uint64_t lo, std::uint64_t hi) {
    std::vector<DataRange> done;
    truth_[static_cast<std::size_t>(buf)].update(lo, hi, [&](std::uint64_t a, Run& run) {
      ++run.version;
      done.push_back(DataRange{buf, a, run.hi, run.version});
    });
    for (const DataRange& d : done) learn(rank, d, -1);
  }

  ScheduleModel& m_;
  const verify::Ledger& names_;
  std::vector<RankState> ranks_;
  std::map<std::uintptr_t, Region> regions_;  ///< keyed by base address
  std::vector<Runs> truth_;  ///< per buffer: the versions written so far
  std::map<const mach::Flag*, std::vector<Pub>> pubs_;
  std::map<const mach::Flag*, std::uint64_t> last_;
  std::map<const mach::Flag*, FlagInfo> flags_;
};

/// Element i of rank r's contribution: a small integer, so any reduction
/// order sums exactly.
double contrib_value(int rank, std::size_t i) {
  return static_cast<double>((static_cast<std::size_t>(rank) + i) % 7 + 1);
}

}  // namespace

ScheduleModel record_schedule(sim::SimMachine& machine,
                              core::XhcComponent& comp, Op op,
                              std::size_t bytes, int root) {
  ScheduleModel m;
  m.op = op;
  m.bytes = op == Op::kBarrier ? 0 : bytes;
  m.root = (op == Op::kAllreduce || op == Op::kBarrier) ? 0 : root;
  m.n_ranks = machine.n_ranks();
  const int n = m.n_ranks;
  XHC_REQUIRE(n >= 2, "schedule model needs >= 2 ranks");
  XHC_REQUIRE(m.root >= 0 && m.root < n, "bad root ", m.root);
  const bool reduction = op == Op::kAllreduce || op == Op::kReduce;
  if (op != Op::kBarrier) {
    XHC_REQUIRE(bytes > 0, "schedule model needs a non-empty payload");
  }
  if (reduction) {
    XHC_REQUIRE(bytes % 8 == 0, "reduction payload must be f64-sized");
  }
  m.per_rank.resize(static_cast<std::size_t>(n));

  Recorder rec(m, machine.verify_ledger());
  std::vector<mach::Buffer> user;
  std::vector<mach::Buffer> contrib;
  for (int r = 0; r < n && m.bytes > 0; ++r) {
    user.emplace_back(machine, r, m.bytes);
    rec.map(BufKind::kUser, r, user.back().get(), m.bytes);
    if (reduction) {
      contrib.emplace_back(machine, r, m.bytes);
      auto* d = static_cast<double*>(contrib.back().get());
      for (std::size_t i = 0; i < m.bytes / 8; ++i) d[i] = contrib_value(r, i);
      rec.map(BufKind::kContrib, r, d, m.bytes);
      rec.input(BufKind::kContrib, r);
    }
    const core::CicoSeg& seg = comp.cico(r);
    rec.map(BufKind::kCicoContrib, r, seg.contrib, seg.half_bytes);
    rec.map(BufKind::kCicoResult, r, seg.result, seg.half_bytes);
  }
  if (op == Op::kBcast) {
    util::fill_pattern(user[static_cast<std::size_t>(m.root)].get(), m.bytes,
                       42);
    rec.input(BufKind::kUser, m.root);
  }

  {
    mach::ScopedProbe scoped(machine, &rec);
    machine.run([&](mach::Ctx& ctx) {
      const std::size_t r = static_cast<std::size_t>(ctx.rank());
      switch (op) {
        case Op::kBcast:
          comp.bcast(ctx, user[r].get(), m.bytes, m.root);
          break;
        case Op::kAllreduce:
          comp.allreduce(ctx, contrib[r].get(), user[r].get(), m.bytes / 8,
                         mach::DType::kF64, mach::ROp::kSum);
          break;
        case Op::kReduce:
          comp.reduce(ctx, contrib[r].get(), user[r].get(), m.bytes / 8,
                      mach::DType::kF64, mach::ROp::kSum, m.root);
          break;
        case Op::kBarrier:
          comp.barrier(ctx);
          break;
      }
    });
  }

  // The payload result: every rank's (bcast, allreduce) or the root's
  // (reduce) user buffer holds the expected bytes.
  std::vector<double> want(m.bytes / 8 + 1, 0.0);
  if (op == Op::kBcast) util::fill_pattern(want.data(), m.bytes, 42);
  for (std::size_t i = 0; reduction && i < m.bytes / 8; ++i) {
    for (int r = 0; r < n; ++r) want[i] += contrib_value(r, i);
  }
  for (int r = 0; r < n && m.bytes > 0; ++r) {
    if (op == Op::kReduce && r != m.root) continue;
    XHC_CHECK(std::memcmp(user[static_cast<std::size_t>(r)].get(),
                          want.data(), m.bytes) == 0,
              to_string(op), " of ", m.bytes, " bytes left a wrong payload on "
              "rank ", r);
  }
  return m;
}

}  // namespace xhc::check
