#include "exp/measurement_study.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/load_generator.hpp"
#include "common/rng.hpp"

namespace streamha {

namespace {

/// Spike schedule for one population member: [start, end) in seconds.
std::vector<std::pair<double, double>> drawSpikeSchedule(
    const MeasurementStudyParams& params, int machineIndex,
    double horizonSec) {
  Rng population(params.seed);
  Rng rng = population.fork(static_cast<std::uint64_t>(machineIndex) + 1);
  const double meanGap = std::min(
      3600.0, std::max(5.0, rng.logNormal(params.interArrivalLogMu,
                                          params.interArrivalLogSigma)));
  double meanDuration = std::max(
      0.5, rng.logNormal(params.durationLogMu, params.durationLogSigma));
  meanDuration = std::min(meanDuration, 0.6 * meanGap);

  std::vector<std::pair<double, double>> windows;
  double t = rng.exponential(meanGap);
  while (t < horizonSec) {
    const double duration =
        std::min(rng.exponential(meanDuration), 0.95 * meanGap);
    windows.emplace_back(t, std::min(horizonSec, t + duration));
    double gap = rng.exponential(meanGap);
    // Enforce a minimum quiet period so adjacent spikes stay separable at
    // the sampling resolution.
    gap = std::max(gap, duration + 2.0 * params.sampleIntervalSec);
    t += gap;
  }
  return windows;
}

}  // namespace

std::vector<SpikeTraceStats> simulateMachineEnsemble(
    const MeasurementStudyParams& params) {
  Rng population(params.seed);
  std::vector<SpikeTraceStats> out;
  out.reserve(static_cast<std::size_t>(params.machines));
  const double horizonSec = params.hours * 3600.0;
  const auto samples =
      static_cast<std::size_t>(horizonSec / params.sampleIntervalSec);

  for (int m = 0; m < params.machines; ++m) {
    // Synthesize the 0.25 s sampled trace exactly as the measurement harness
    // would observe the machine's spike schedule.
    Rng jitter = population.fork(0x5A5A5A5AULL + m);
    std::vector<double> trace(samples, params.baselineLoad);
    for (const auto& [startSec, endSec] :
         drawSpikeSchedule(params, m, horizonSec)) {
      const auto from =
          static_cast<std::size_t>(startSec / params.sampleIntervalSec);
      const auto to =
          static_cast<std::size_t>(endSec / params.sampleIntervalSec);
      for (std::size_t i = from; i <= to && i < samples; ++i) {
        trace[i] = 0.97 + 0.03 * jitter.nextDouble();
      }
    }
    out.push_back(analyzeLoadTrace(trace, params.sampleIntervalSec,
                                   params.spikeThreshold));
  }
  return out;
}

std::vector<std::pair<SimTime, SimTime>> sampleSpikeWindows(
    const MeasurementStudyParams& params, int machineIndex, SimTime horizon) {
  std::vector<std::pair<SimTime, SimTime>> out;
  for (const auto& [startSec, endSec] :
       drawSpikeSchedule(params, machineIndex, toSeconds(horizon))) {
    out.emplace_back(fromSeconds(startSec), fromSeconds(endSec));
  }
  return out;
}

std::vector<MachineProcessingTime> measureParallelApp(
    const ParallelAppParams& params) {
  Cluster::Params clusterParams;
  clusterParams.machineCount = static_cast<std::size_t>(params.machines);
  clusterParams.seed = params.seed;
  Cluster cluster(clusterParams);
  Rng rng(params.seed);

  std::vector<MachineProcessingTime> out(
      static_cast<std::size_t>(params.machines));
  std::vector<RunningStats> perMachine(
      static_cast<std::size_t>(params.machines));

  for (int m = 0; m < params.machines; ++m) {
    const int label = params.firstMachineLabel + m;
    const bool loaded =
        label >= params.loadedFromLabel && label <= params.loadedToLabel;
    out[static_cast<std::size_t>(m)].machineLabel = label;
    out[static_cast<std::size_t>(m)].loaded = loaded;
    if (loaded) {
      cluster.machine(m).setBackgroundLoad(params.backgroundLoad);
    }
  }

  // Submit the parallel tasks back-to-back on every machine, with a little
  // per-task work jitter like a real data-dependent job. Each machine's task
  // chain lives here, outliving the run: a chain that owned itself through
  // its own closure would never be freed.
  std::vector<std::function<void(int)>> chains(
      static_cast<std::size_t>(params.machines));
  for (int m = 0; m < params.machines; ++m) {
    Machine& machine = cluster.machine(m);
    RunningStats* stats = &perMachine[static_cast<std::size_t>(m)];
    // Chain tasks: each completion submits the next.
    std::function<void(int)>* submitNext = &chains[static_cast<std::size_t>(m)];
    Rng taskRng = rng.fork(static_cast<std::uint64_t>(m) + 100);
    auto rngShared = std::make_shared<Rng>(taskRng);
    Simulator* sim = &cluster.sim();
    const double baseWorkUs = params.taskSeconds * kSecond;
    *submitNext = [sim, &machine, stats, rngShared, baseWorkUs,
                   submitNext](int remaining) {
      if (remaining <= 0) return;
      const double work = baseWorkUs * rngShared->uniformReal(0.97, 1.03);
      const SimTime started = sim->now();
      machine.submitData(work, [sim, stats, started, submitNext, remaining] {
        stats->add(toSeconds(sim->now() - started));
        (*submitNext)(remaining - 1);
      });
    };
    (*submitNext)(params.tasksPerMachine);
  }
  cluster.sim().runUntil(
      static_cast<SimTime>(params.tasksPerMachine * params.taskSeconds * 4) *
      kSecond);

  for (int m = 0; m < params.machines; ++m) {
    out[static_cast<std::size_t>(m)].avgSeconds =
        perMachine[static_cast<std::size_t>(m)].mean();
  }
  return out;
}

}  // namespace streamha
