#include "check/analyzer.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "verify/verify.h"

namespace xhc::check {

const char* to_string(Property p) noexcept {
  switch (p) {
    case Property::kSingleWriter:
      return "single-writer";
    case Property::kMonotonicity:
      return "monotonicity";
    case Property::kUnreachableThreshold:
      return "unreachable-threshold";
    case Property::kWaitCycle:
      return "wait-cycle";
    case Property::kSlotReuse:
      return "slot-reuse";
    case Property::kCoverage:
      return "coverage";
  }
  return "?";
}

std::map<const mach::Flag*, FlagUse> index_flags(
    const ScheduleModel& m, const verify::Ledger& names) {
  std::map<const mach::Flag*, FlagUse> out;
  for (int r = 0; r < m.n_ranks; ++r) {
    const auto& stream = m.per_rank[static_cast<std::size_t>(r)];
    for (int i = 0; i < static_cast<int>(stream.size()); ++i) {
      const Event& e = stream[static_cast<std::size_t>(i)];
      FlagUse& fu = out[e.flag];
      if (fu.name.empty()) {
        fu.name = names.flag_name(e.flag);
        if (fu.name.empty()) {
          fu.name = "unregistered#" + std::to_string(out.size());
        }
        fu.policy = names.flag_policy(e.flag).value_or(
            verify::WriterPolicy::kFixed);
      }
      const EventRef ref{r, i};
      switch (e.kind) {
        case EvKind::kPublish:
          fu.publishes.push_back(ref);
          break;
        case EvKind::kRmw:
          fu.rmws.push_back(ref);
          break;
        case EvKind::kWait:
          fu.waits.push_back(ref);
          break;
      }
    }
  }
  return out;
}

namespace {

using Ref = EventRef;

class Analysis {
 public:
  Analysis(const ScheduleModel& m, const verify::Ledger& ledger)
      : m_(m), ledger_(ledger) {}

  AnalysisReport run() {
    index();
    check_writers();
    check_monotone();
    resolve_satisfiers();
    check_reachability();
    check_cycles();
    check_coverage();
    finish();
    return std::move(rep_);
  }

 private:
  const Event& ev(Ref ref) const {
    return m_.per_rank[static_cast<std::size_t>(ref.rank)]
                      [static_cast<std::size_t>(ref.idx)];
  }
  int node_id(Ref ref) const {
    return offset_[static_cast<std::size_t>(ref.rank)] + ref.idx;
  }
  Ref ref_of(int node) const {
    int rank = 0;
    while (rank + 1 < m_.n_ranks &&
           offset_[static_cast<std::size_t>(rank) + 1] <= node) {
      ++rank;
    }
    return Ref{rank, node - offset_[static_cast<std::size_t>(rank)]};
  }

  void index() {
    offset_.assign(static_cast<std::size_t>(m_.n_ranks) + 1, 0);
    for (int r = 0; r < m_.n_ranks; ++r) {
      offset_[static_cast<std::size_t>(r) + 1] =
          offset_[static_cast<std::size_t>(r)] +
          static_cast<int>(m_.per_rank[static_cast<std::size_t>(r)].size());
    }
    n_nodes_ = offset_.back();
    flags_ = index_flags(m_, ledger_);
    for (const auto& [flag, fu] : flags_) rep_.n_waits += fu.waits.size();
    rep_.n_events = static_cast<std::size_t>(n_nodes_);
    rep_.n_flags = flags_.size();
  }

  void add(Property p, const FlagUse& fu, Ref at, std::string detail) {
    Finding f;
    f.property = p;
    f.flag = fu.name;
    f.rank = at.rank;
    f.site = at.valid() ? ev(at).site : "";
    f.detail = std::move(detail);
    rep_.findings.push_back(std::move(f));
  }

  // --- single-writer / RMW discipline --------------------------------------
  void check_writers() {
    for (auto& [flag, fu] : flags_) {
      if (fu.policy == verify::WriterPolicy::kShared) {
        // The whitelisted multi-writer counters: publishes (plain stores)
        // are unexpected but legal per the ledger; nothing to check here.
        continue;
      }
      // Distinct publishing ranks, with publish counts for minority pick.
      std::map<int, int> by_rank;
      for (const Ref ref : fu.publishes) ++by_rank[ref.rank];
      if (by_rank.size() > 1) {
        // Name the minority writer (fewest publishes, then lowest rank):
        // the protocol's real writer publishes the stream, an interloper
        // typically contributes one store.
        int culprit = -1;
        int best = -1;
        std::string all;
        for (const auto& [rank, count] : by_rank) {
          if (culprit < 0 || count < best) {
            culprit = rank;
            best = count;
          }
          if (!all.empty()) all += ",";
          all += std::to_string(rank);
        }
        Ref at;
        for (const Ref ref : fu.publishes) {
          if (ref.rank == culprit) {
            at = ref;
            break;
          }
        }
        add(Property::kSingleWriter, fu, at,
            "flag published by ranks {" + all + "}");
      }
      for (const Ref ref : fu.rmws) {
        add(Property::kSingleWriter, fu, ref,
            "RMW on a flag not whitelisted as shared");
      }
    }
  }

  // --- per-writer monotone publish values ----------------------------------
  void check_monotone() {
    for (auto& [flag, fu] : flags_) {
      std::map<int, std::uint64_t> last;
      for (const Ref ref : fu.publishes) {
        const Event& e = ev(ref);
        auto it = last.find(ref.rank);
        if (it != last.end() && e.value < it->second) {
          add(Property::kMonotonicity, fu, ref,
              "publish " + std::to_string(e.value) + " after " +
                  std::to_string(it->second));
        }
        last[ref.rank] = std::max(it == last.end() ? 0 : it->second, e.value);
      }
    }
  }

  // --- earliest satisfying publish per wait --------------------------------
  void resolve_satisfiers() {
    sat_.assign(static_cast<std::size_t>(n_nodes_), Ref{});
    for (auto& [flag, fu] : flags_) {
      if (fu.policy == verify::WriterPolicy::kShared) continue;
      for (const Ref w : fu.waits) {
        const std::uint64_t t = ev(w).value;
        for (const Ref p : fu.publishes) {
          if (ev(p).value >= t) {
            sat_[static_cast<std::size_t>(node_id(w))] = p;
            break;
          }
        }
      }
    }
  }

  void check_reachability() {
    for (auto& [flag, fu] : flags_) {
      if (fu.policy == verify::WriterPolicy::kShared) {
        std::uint64_t sum = 0;
        for (const Ref ref : fu.rmws) sum += ev(ref).value;
        for (const Ref w : fu.waits) {
          if (ev(w).value > sum) {
            add(Property::kUnreachableThreshold, fu, w,
                "threshold " + std::to_string(ev(w).value) +
                    " exceeds RMW total " + std::to_string(sum));
          }
        }
        continue;
      }
      std::uint64_t maxv = 0;
      for (const Ref p : fu.publishes) maxv = std::max(maxv, ev(p).value);
      for (const Ref w : fu.waits) {
        if (!sat_[static_cast<std::size_t>(node_id(w))].valid() &&
            ev(w).value > 0) {
          add(Property::kUnreachableThreshold, fu, w,
              "threshold " + std::to_string(ev(w).value) +
                  " above any publish (max " + std::to_string(maxv) + ")");
        }
      }
    }
  }

  // --- acyclicity of program order + satisfier edges -----------------------
  void check_cycles() {
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(n_nodes_));
    std::vector<int> indeg(static_cast<std::size_t>(n_nodes_), 0);
    std::size_t edges = 0;
    const auto link = [&](int from, int to) {
      adj[static_cast<std::size_t>(from)].push_back(to);
      ++indeg[static_cast<std::size_t>(to)];
      ++edges;
    };
    for (int r = 0; r < m_.n_ranks; ++r) {
      const int n = static_cast<int>(
          m_.per_rank[static_cast<std::size_t>(r)].size());
      for (int i = 0; i + 1 < n; ++i) {
        link(node_id(Ref{r, i}), node_id(Ref{r, i + 1}));
      }
    }
    for (auto& [flag, fu] : flags_) {
      if (fu.policy == verify::WriterPolicy::kShared) {
        for (const Ref w : fu.waits) {
          for (const Ref p : fu.rmws) link(node_id(p), node_id(w));
        }
        continue;
      }
      for (const Ref w : fu.waits) {
        const Ref p = sat_[static_cast<std::size_t>(node_id(w))];
        if (p.valid()) link(node_id(p), node_id(w));
      }
    }
    rep_.n_edges = edges;

    // Kahn; anything left sits on a cycle.
    std::vector<int> q;
    std::vector<int> deg = indeg;
    for (int v = 0; v < n_nodes_; ++v) {
      if (deg[static_cast<std::size_t>(v)] == 0) q.push_back(v);
    }
    std::size_t done = 0;
    while (done < q.size()) {
      const int v = q[done++];
      for (const int to : adj[static_cast<std::size_t>(v)]) {
        if (--deg[static_cast<std::size_t>(to)] == 0) q.push_back(to);
      }
    }
    if (done == static_cast<std::size_t>(n_nodes_)) return;

    // Extract one concrete cycle deterministically: from the smallest
    // remaining node, repeatedly step to its smallest remaining predecessor
    // until a node repeats.
    std::vector<char> left(static_cast<std::size_t>(n_nodes_), 1);
    for (std::size_t i = 0; i < done; ++i) {
      left[static_cast<std::size_t>(q[i])] = 0;
    }
    std::vector<std::vector<int>> radj(static_cast<std::size_t>(n_nodes_));
    for (int v = 0; v < n_nodes_; ++v) {
      if (left[static_cast<std::size_t>(v)] == 0) continue;
      for (const int to : adj[static_cast<std::size_t>(v)]) {
        if (left[static_cast<std::size_t>(to)] != 0) {
          radj[static_cast<std::size_t>(to)].push_back(v);
        }
      }
    }
    int start = 0;
    while (left[static_cast<std::size_t>(start)] == 0) ++start;
    std::vector<int> order(static_cast<std::size_t>(n_nodes_), -1);
    std::vector<int> walk;
    int at = start;
    while (order[static_cast<std::size_t>(at)] < 0) {
      order[static_cast<std::size_t>(at)] = static_cast<int>(walk.size());
      walk.push_back(at);
      auto& preds = radj[static_cast<std::size_t>(at)];
      at = *std::min_element(preds.begin(), preds.end());
    }
    std::vector<int> cycle(walk.begin() + order[static_cast<std::size_t>(at)],
                           walk.end());
    std::reverse(cycle.begin(), cycle.end());  // happens-before order

    // Anchor the finding at the cycle's first wait (smallest node id).
    Ref anchor = ref_of(cycle.front());
    for (const int v : cycle) {
      const Ref ref = ref_of(v);
      if (ev(ref).kind == EvKind::kWait) {
        anchor = ref;
        break;
      }
    }
    std::string desc = "cycle:";
    const std::size_t shown = std::min<std::size_t>(cycle.size(), 12);
    for (std::size_t i = 0; i < shown; ++i) {
      const Ref ref = ref_of(cycle[i]);
      desc += " r" + std::to_string(ref.rank) + ":" + ev(ref).site;
    }
    if (cycle.size() > shown) {
      desc += " ... (" + std::to_string(cycle.size()) + " nodes)";
    }
    const FlagUse& fu = flags_[ev(anchor).flag];
    add(Property::kWaitCycle, fu, anchor, desc);
  }

  // --- payload coverage + slot reuse ---------------------------------------
  /// Waits on the slotted shard timelines: the reduce-scatter/allgather
  /// `prog` counters and the striped bcast's `stripe_ready` counters.
  static bool slotted_site(const std::string& site) {
    return site == "prog.wait" || site == "stripe_ready.wait";
  }

  void check_coverage() {
    for (auto& [flag, fu] : flags_) {
      if (fu.policy == verify::WriterPolicy::kShared) continue;
      std::map<int, int> by_rank;
      for (const Ref ref : fu.publishes) ++by_rank[ref.rank];
      if (by_rank.size() > 1) continue;  // reported as single-writer already
      for (const Ref w : fu.waits) {
        const Event& we = ev(w);
        const Ref p = sat_[static_cast<std::size_t>(node_id(w))];
        if (!p.valid()) continue;  // reported as unreachable already

        if (m_.bytes > 0 && slotted_site(we.site) && we.value > 0) {
          const std::uint64_t want = (we.value - 1) / m_.bytes;
          const std::uint64_t got = (ev(p).value - 1) / m_.bytes;
          if (want != got) {
            add(Property::kSlotReuse, fu, w,
                "threshold in timeline slot " + std::to_string(want) +
                    " satisfied from slot " + std::to_string(got));
          }
        }

        if (we.needs.empty()) continue;
        const std::vector<DataRange> declared =
            declared_writes(m_, p.rank, p.idx);
        for (const DataRange& need : we.needs) {
          const std::uint64_t pos = coverage_reach(declared, need);
          if (pos < need.hi) {
            add(Property::kCoverage, fu, w,
                "needs " + m_.buf_name(need.buf) + " [" +
                    std::to_string(need.lo) + "," + std::to_string(need.hi) +
                    ") epoch " + std::to_string(need.epoch) +
                    "; writer r" + std::to_string(p.rank) + " covers up to " +
                    std::to_string(pos));
          }
        }
      }
    }
  }

  void finish() {
    rep_.op = m_.op;
    rep_.bytes = m_.bytes;
    rep_.root = m_.root;
    rep_.n_ranks = m_.n_ranks;
    std::sort(rep_.findings.begin(), rep_.findings.end(),
              [](const Finding& a, const Finding& b) {
                if (a.flag != b.flag) return a.flag < b.flag;
                if (a.property != b.property) return a.property < b.property;
                if (a.rank != b.rank) return a.rank < b.rank;
                if (a.site != b.site) return a.site < b.site;
                return a.detail < b.detail;
              });
    rep_.findings.erase(
        std::unique(rep_.findings.begin(), rep_.findings.end(),
                    [](const Finding& a, const Finding& b) {
                      return a.flag == b.flag && a.property == b.property &&
                             a.rank == b.rank && a.site == b.site &&
                             a.detail == b.detail;
                    }),
        rep_.findings.end());
  }

  const ScheduleModel& m_;
  const verify::Ledger& ledger_;
  AnalysisReport rep_;
  std::vector<int> offset_;
  int n_nodes_ = 0;
  std::map<const mach::Flag*, FlagUse> flags_;
  std::vector<Ref> sat_;  ///< per node id: the wait's earliest satisfier
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string AnalysisReport::text() const {
  std::ostringstream os;
  os << "schedule-analysis op=" << check::to_string(op) << " bytes=" << bytes
     << " root=" << root << " ranks=" << n_ranks << "\n";
  os << "events=" << n_events << " flags=" << n_flags << " waits=" << n_waits
     << " edges=" << n_edges << "\n";
  if (findings.empty()) {
    os << "result: CLEAN\n";
  } else {
    os << "result: " << findings.size() << " finding"
       << (findings.size() == 1 ? "" : "s") << "\n";
    for (const Finding& f : findings) {
      os << "finding property=" << check::to_string(f.property)
         << " flag=" << f.flag << " rank=" << f.rank << " site=" << f.site
         << " detail=" << f.detail << "\n";
    }
  }
  return os.str();
}

std::string AnalysisReport::json() const {
  std::ostringstream os;
  os << "{\"op\":\"" << check::to_string(op) << "\",\"bytes\":" << bytes
     << ",\"root\":" << root << ",\"ranks\":" << n_ranks
     << ",\"events\":" << n_events << ",\"flags\":" << n_flags
     << ",\"waits\":" << n_waits << ",\"edges\":" << n_edges
     << ",\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) os << ",";
    os << "{\"property\":\"" << check::to_string(f.property)
       << "\",\"flag\":\"" << json_escape(f.flag)
       << "\",\"rank\":" << f.rank << ",\"site\":\"" << json_escape(f.site)
       << "\",\"detail\":\"" << json_escape(f.detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

AnalysisReport analyze(const ScheduleModel& m, const verify::Ledger& ledger) {
  return Analysis(m, ledger).run();
}

}  // namespace xhc::check
