#include "cluster/load_generator.hpp"

#include <algorithm>
#include <cassert>

#include "trace/recorder.hpp"

namespace streamha {

SpikeSpec SpikeSpec::fromTimeFraction(SimDuration duration, double fraction,
                                      double magnitude, bool poisson) {
  assert(fraction > 0 && fraction < 1);
  SpikeSpec spec;
  spec.meanDuration = duration;
  spec.meanInterArrival =
      static_cast<SimDuration>(static_cast<double>(duration) / fraction);
  spec.magnitude = magnitude;
  spec.poisson = poisson;
  return spec;
}

LoadGenerator::LoadGenerator(Simulator& sim, Machine& machine, SpikeSpec spec,
                             Rng rng)
    : sim_(sim), machine_(machine), spec_(spec), rng_(rng) {}

LoadGenerator::~LoadGenerator() { stop(); }

void LoadGenerator::start() {
  if (running_) return;
  running_ = true;
  machine_.setBackgroundLoad(spec_.baseline);
  scheduleNext();
}

void LoadGenerator::stop() {
  running_ = false;
  next_event_.cancel();
  end_event_.cancel();
  if (in_spike_) {
    in_spike_ = false;
    machine_.setBackgroundLoad(spec_.baseline);
  }
}

void LoadGenerator::scheduleNext() {
  const double mean = static_cast<double>(spec_.meanInterArrival);
  const double gap = spec_.poisson ? rng_.exponential(mean) : mean;
  next_event_ = sim_.schedule(
      std::max<SimDuration>(1, static_cast<SimDuration>(gap)), [this] {
        if (!running_) return;
        const double dmean = static_cast<double>(spec_.meanDuration);
        double duration = spec_.poisson ? rng_.exponential(dmean) : dmean;
        // Keep individual spikes shorter than the average gap so consecutive
        // spikes do not merge into permanent overload.
        duration = std::min(
            duration, 0.95 * static_cast<double>(spec_.meanInterArrival));
        scheduleNext();
        if (!in_spike_) {
          beginSpike(std::max<SimDuration>(1, static_cast<SimDuration>(duration)));
        }
      });
}

void LoadGenerator::injectSpike(SimDuration duration) {
  assert(duration > 0);
  if (in_spike_) return;
  beginSpike(duration);
}

void LoadGenerator::replayWindows(
    const std::vector<std::pair<SimTime, SimTime>>& windows) {
  for (const auto& [start, end] : windows) {
    if (end <= start) continue;
    const SimDuration duration = end - start;
    sim_.schedule(std::max<SimDuration>(0, start), [this, duration] {
      if (!in_spike_) beginSpike(duration);
    });
  }
}

void LoadGenerator::beginSpike(SimDuration duration) {
  in_spike_ = true;
  spikes_.emplace_back(sim_.now(), sim_.now() + duration);
  if (auto* trace = machine_.trace()) {
    TraceEvent ev;
    ev.type = TraceEventType::kLoadSpikeBegin;
    ev.at = sim_.now();
    ev.machine = machine_.id();
    ev.value = static_cast<std::uint64_t>(spec_.magnitude * 1000.0);
    ev.aux = static_cast<std::uint64_t>(duration);
    trace->record(ev);
  }
  if (spec_.rampDuration > 0 && spec_.rampDuration < duration) {
    // Ramp in a handful of steps; the last step lands at full magnitude.
    constexpr int kSteps = 8;
    for (int step = 1; step <= kSteps; ++step) {
      const SimDuration when = spec_.rampDuration * step / kSteps;
      const double level =
          spec_.baseline + spec_.magnitude * step / double{kSteps};
      sim_.schedule(when, [this, level] {
        if (in_spike_) machine_.setBackgroundLoad(level);
      });
    }
    machine_.setBackgroundLoad(spec_.baseline + spec_.magnitude / kSteps);
  } else {
    machine_.setBackgroundLoad(spec_.baseline + spec_.magnitude);
  }
  end_event_ = sim_.schedule(duration, [this] { endSpike(); });
}

void LoadGenerator::endSpike() {
  in_spike_ = false;
  if (auto* trace = machine_.trace()) {
    TraceEvent ev;
    ev.type = TraceEventType::kLoadSpikeEnd;
    ev.at = sim_.now();
    ev.machine = machine_.id();
    trace->record(ev);
  }
  machine_.setBackgroundLoad(spec_.baseline);
}

}  // namespace streamha
