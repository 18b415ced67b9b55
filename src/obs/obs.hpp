// obs.hpp — the per-simulation observability surface.
//
// One bundle per simulation, owned by it and switched on via
// network_options (telemetry / record_spans / sample_period). Components
// reach it through transport::obs() (see sim/transport.hpp) or
// node::sim().obs() and self-register their counter structs, sampler
// probes and spans; each stays a no-op when its switch is off.
#pragma once

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace gqs {

struct obs_bundle {
  metrics_registry metrics;
  trace_recorder tracer;
  timeseries_sampler sampler;
};

}  // namespace gqs
