// timeseries.hpp — periodic gauge sampler on simulated time.
//
// Components register probes (read-only int64 callbacks: link queue
// depths, in-flight pipeline windows, dedup/gossip backlog, view state);
// the simulator calls sample_due() from its event loop whenever
// simulated time crosses the configured period. Sampling only *reads*
// component state — no RNG draws, no events scheduled — so enabling it
// cannot perturb a run's behaviour, and the recorded points are a pure
// function of the run: bit-identical across repeats and thread counts.
//
// Probes registered under the same name fold into one series (sum or max
// per the first registration's aggregation), which is how per-node probes
// become one system-wide series.
//
// Disabled (period 0, the default): next_due() pins at sim_time_never, so
// the event loop pays one integer compare per event and nothing else.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace gqs {

class timeseries_sampler {
 public:
  using probe_fn = std::function<std::int64_t()>;
  enum class agg : std::uint8_t { sum, max };

  struct point {
    sim_time at = 0;
    std::int64_t value = 0;
    bool operator==(const point&) const = default;
  };
  struct series {
    std::string name;
    agg how = agg::sum;
    std::vector<point> points;
    bool operator==(const series&) const = default;
  };

  /// Arms the sampler with a strictly positive simulated-time period.
  void configure(sim_time period) {
    if (period <= 0) return;
    period_ = period;
    next_ = period;
  }
  bool enabled() const noexcept { return period_ > 0; }

  /// Next simulated instant a sample is owed; sim_time_never when off.
  sim_time next_due() const noexcept { return next_; }

  /// Registers a probe. Same name => folded into one series.
  void add_probe(std::string name, probe_fn fn, agg how = agg::sum);

  /// Records one point per series stamped at the latest due instant
  /// <= now, then re-arms. Call when now >= next_due().
  void sample_due(sim_time now);

  const std::vector<series>& all() const noexcept { return series_; }

  /// {"period_us": N, "series": [{"name": ..., "points": [[t, v], ...]}]}
  std::string to_json() const;

 private:
  struct probe {
    probe_fn fn;
    std::size_t series_idx = 0;
  };

  sim_time period_ = 0;
  sim_time next_ = sim_time_never;
  std::vector<probe> probes_;
  std::vector<series> series_;
};

}  // namespace gqs
