// Flag-wait feed: the probe (mach/probe.h) recording each blocked
// flag_wait_ge's duration into the per-rank HistKind::kFlagWait histogram
// and, if given, a windowed series at the (virtual) resume time.
#pragma once

#include <cstdint>

#include "mach/probe.h"
#include "obs/hist.h"
#include "obs/timeseries.h"

namespace xhc::obs {

class WaitFeed final : public mach::Probe {
 public:
  /// Either sink may be null; both must outlive the feed's attachment.
  explicit WaitFeed(HistSet* hists, TimeSeries* series = nullptr,
                    int sid = 0) noexcept
      : hists_(hists), series_(series), sid_(sid) {}

  void on_wait_resume(const mach::Flag* /*f*/, int rank,
                      std::uint64_t /*threshold*/, double t,
                      double blocked) override {
    if (blocked == kNoTime) return;
    if (hists_ != nullptr) hists_->record(rank, HistKind::kFlagWait, blocked);
    if (series_ != nullptr && t != kNoTime) {
      series_->record(rank, sid_, t, blocked);
    }
  }

 private:
  HistSet* hists_;
  TimeSeries* series_;
  int sid_;
};

}  // namespace xhc::obs
