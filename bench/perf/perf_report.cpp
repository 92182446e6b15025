// perf_report: one workload of the benchmark, end to end or layer by layer.
//
//   perf_report --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//               [--trace-dir DIR]
//   perf_report --smoke
//
// A round runs seeds S .. S+n-1 of the workload one after another on this
// one thread, each from the Scenario constructor through run(), the
// quiescent drain and collect() to the exactly-once oracle verdict. The
// first round supplies every simulated number and every per-layer count.
// Whole rounds are then repeated while another one still fits in T seconds
// of wall clock since measuring began, and every execution must reproduce
// its seed's result fingerprint. A run-time metric takes, for each seed, the
// fastest of that seed's executions and sums over the seeds, so executions
// slowed by other work on the machine move nothing. Set-up is repeated
// several times per execution and takes each seed's median.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the first round
// with the trace recorder on and run() cut into 1 s chunks, repeats it
// untraced (so the traced round must reproduce the untraced fingerprints),
// runs the micro-drivers and reports the per-layer metrics. Its wall-clock
// spans go to DIR/<workload>.trace.json as Chrome trace_event JSON, which
// Perfetto opens. Either way the last line on stdout is the report as one
// JSON object; the lines before it list the same metrics for a reader.
//
// --smoke runs one short seed of every workload in both modes and prints
// each report as one JSON line (smoke.py checks them).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "harness/chaos_harness.hpp"
#include "micro_drivers.hpp"
#include "net/reliable.hpp"
#include "report.hpp"
#include "trace/export.hpp"
#include "workloads.hpp"

namespace streamha::perf {
namespace {

using Clock = std::chrono::steady_clock;

/// Delay samples of a seed's first 2 simulated seconds are start-up, not
/// steady state, and stay out of the delay percentiles.
constexpr SimTime kDelayWarmup = 2 * kSecond;
/// A detection is attributed to the latest failure of the coordinator's
/// primary that began at most this long before it: a load spike, or an
/// injected crash or rack kill. Detections with no such failure (false
/// alarms from heartbeat loss) are counted as unattributed and kept out of
/// the recovery percentiles.
constexpr SimDuration kAttributionWindow = 2 * kSecond;
/// Traced rounds advance run() in chunks of this much simulated time and
/// sample the event-queue depth and the unacked backlog between chunks.
constexpr SimDuration kChunk = kSecond;
/// Set-ups per execution (see execute()).
constexpr int kSetupRepeats = 5;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2;
}

// ---------------------------------------------------------------------------
// Metric names and units
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"sim_x", "sim_s/s"},
    {"seeds_per_min", "1/min"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"delay_mean_ms", "sim_ms"},
    {"delay_p50_ms", "sim_ms"},
    {"delay_p99_ms", "sim_ms"},
    {"delay_p999_ms", "sim_ms"},
    {"recovery_p50_ms", "sim_ms"},
    {"recovery_p90_ms", "sim_ms"},
    {"switchover_p50_ms", "sim_ms"},
    {"rollback_p50_ms", "sim_ms"},
    {"ha_overhead", "ratio"},
    {"failed_seed_ratio", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"exp.setup_ms", "ms"},
    {"exp.run_ms", "ms"},
    {"exp.drain_ms", "ms"},
    {"exp.collect_ms", "ms"},
    {"exp.oracle_ms", "ms"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.schedule_fire_ns", "ns"},
    {"sim.peak_pending", "count"},
    {"sim.slot_capacity", "count"},
    {"net.msgs", "count"},
    {"net.msgs_per_element", "ratio"},
    {"net.send_deliver_ns", "ns"},
    {"net.bytes.data", "B"},
    {"net.bytes.ack", "B"},
    {"net.bytes.checkpoint", "B"},
    {"net.bytes.hb", "B"},
    {"net.bytes.control", "B"},
    {"net.bytes.state_read", "B"},
    {"net.bytes.beacon", "B"},
    {"net.arq_retransmits", "count"},
    {"net.arq_peak_tracked", "count"},
    {"net.arq_parked_evicted", "count"},
    {"net.reliable_send_ns", "ns"},
    {"fault.drops", "count"},
    {"fault.duplicates", "count"},
    {"fault.delayed", "count"},
    {"stream.delivered", "count"},
    {"stream.dups_dropped", "count"},
    {"stream.ooo_dropped", "count"},
    {"stream.useful_ratio", "ratio"},
    {"stream.peak_backlog", "count"},
    {"stream.produce_ack_ns", "ns"},
    {"stream.receive_dedup_ns", "ns"},
    {"cluster.machines", "count"},
    {"cluster.cpu_load", "ratio"},
    {"checkpoint.count", "count"},
    {"checkpoint.serialize_us", "us"},
    {"checkpoint.latency_ms", "sim_ms"},
    {"checkpoint.pause_ms", "sim_ms"},
    {"state.delta_ship_kb", "KB"},
    {"state.delta_ratio", "ratio"},
    {"state.compactions", "count"},
    {"state.tier_spills", "count"},
    {"state.restore_delta_kb", "KB"},
    {"state.delta_encode_us", "us"},
    {"state.delta_apply_us", "us"},
    {"state.compact_us", "us"},
    {"detect.detection_ms_p50", "sim_ms"},
    {"ha.switchovers", "count"},
    {"ha.rollbacks", "count"},
    {"ha.promotions", "count"},
    {"ha.reprovisions", "count"},
    {"ha.redeploy_ms_p50", "sim_ms"},
    {"ha.retransmit_ms_p50", "sim_ms"},
    {"ha.state_read_elements", "count"},
    {"ha.unattributed", "count"},
    {"place.choices", "count"},
    {"place.domain_losses", "count"},
    {"place.reprovision_retries", "count"},
    {"place.choose_us", "us"},
    {"membership.beacons", "count"},
    {"membership.joins", "count"},
    {"membership.lease_expiries", "count"},
    {"trace.events", "count"},
    {"trace.export_ms", "ms"},
    {"trace.overhead", "ratio"},
    {"share.sim", "ratio"},
    {"share.net", "ratio"},
    {"share.stream", "ratio"},
    {"share.checkpoint", "ratio"},
    {"share.state", "ratio"},
    {"share.other", "ratio"},
};

/// Metrics in table order; every name must be set exactly once.
class MetricSet {
 public:
  template <std::size_t N>
  explicit MetricSet(const MetricSpec (&specs)[N]) {
    for (const MetricSpec& s : specs) {
      metrics_.push_back({s.name, s.unit, {}, -1});
    }
    set_.assign(N, false);
  }

  void set(const std::string& name, double value) { slot(name).value = value; }
  void set(const std::string& name, const Percentile& p) {
    Metric& m = slot(name);
    m.value = p.value;
    m.samples = p.samples;
  }

  /// Names the code never set (empty when the report is complete).
  std::vector<std::string> unset() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (!set_[i]) out.push_back(metrics_[i].name);
    }
    return out;
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  Metric& slot(const std::string& name) {
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (metrics_[i].name == name) {
        if (set_[i]) {
          std::fprintf(stderr, "perf_report: metric %s set twice\n",
                       name.c_str());
          std::abort();
        }
        set_[i] = true;
        return metrics_[i];
      }
    }
    std::fprintf(stderr, "perf_report: unknown metric %s\n", name.c_str());
    std::abort();
  }

  std::vector<Metric> metrics_;
  std::vector<bool> set_;
};

// ---------------------------------------------------------------------------
// Wall-clock spans (Chrome trace_event JSON)
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int open(std::string name, std::uint64_t seed) {
    Span span;
    span.name = std::move(name);
    span.startUs = nowUs();
    span.parent = open_.empty() ? -1 : open_.back();
    span.seed = seed;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].endUs = nowUs();
    open_.pop_back();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": " << jsonString(s.name)
          << ", \"cat\": \"perf\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
          << ", \"ts\": " << jsonNumber(s.startUs)
          << ", \"dur\": " << jsonNumber(s.endUs - s.startUs)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"seed\": " << s.seed << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double startUs = 0;
    double endUs = 0;
    int parent = -1;
    std::uint64_t seed = 0;
  };

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Wall seconds `body` takes, recorded as a span when `spans` is set.
template <typename Body>
double timed(SpanLog* spans, const char* name, std::uint64_t seed,
             Body&& body) {
  const int id = spans != nullptr ? spans->open(name, seed) : -1;
  const auto t0 = Clock::now();
  body();
  const double seconds = secondsSince(t0);
  if (spans != nullptr) spans->close(id);
  return seconds;
}

// ---------------------------------------------------------------------------
// One seed
// ---------------------------------------------------------------------------

/// What the first round observed, pooled over its seeds.
struct Observed {
  // Simulated samples, in simulated milliseconds.
  std::vector<double> delays;
  std::vector<double> recoveries;
  std::vector<double> switchovers;  ///< Detection to first output, any cause.
  std::vector<double> rollbacks;
  std::vector<double> detections;
  std::vector<double> redeploys;
  std::vector<double> retransmits;
  std::uint64_t unattributed = 0;

  // Counters summed over seeds.
  Network::Counters traffic{};
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicatesDropped = 0;
  std::uint64_t outOfOrderDropped = 0;
  std::uint64_t events = 0;
  std::uint64_t arqRetransmits = 0;
  std::uint64_t arqParkedEvicted = 0;
  std::uint64_t faultDrops = 0;
  std::uint64_t faultDuplicates = 0;
  std::uint64_t faultDelayed = 0;
  std::uint64_t checkpoints = 0;
  RunningStats checkpointLatencyMs;
  RunningStats checkpointPauseMs;
  std::uint64_t switchoverCount = 0;
  std::uint64_t rollbackCount = 0;
  std::uint64_t promotions = 0;
  std::uint64_t stateReadElements = 0;
  StateTelemetry state;
  PlacementTelemetry placement;
  MembershipTelemetry membership;
  double cpuLoadSum = 0;
  std::uint64_t traceEvents = 0;
  double traceExportS = 0;
  double tracedRunS = 0;

  // Peaks over seeds (and, traced, over run chunks).
  std::size_t peakPending = 0;
  std::size_t slotCapacity = 0;
  std::size_t arqPeakTracked = 0;
  std::uint64_t peakBacklog = 0;
  std::size_t machines = 0;
};

/// One execution of one seed: its wall-clock phases and its verdict.
struct Execution {
  std::vector<double> setupS;  ///< One sample per set-up (kSetupRepeats).
  double runS = 0;
  double drainS = 0;
  double collectS = 0;
  double oracleS = 0;
  double simS = 0;  ///< Simulated seconds advanced by run() and the drain.
  bool ok = false;  ///< Oracle passed and the drain reached quiescence.
  std::string problem;
  std::string fingerprint;

  double wallS() const {
    return median(setupS) + runS + drainS + collectS + oracleS;
  }
};

/// Largest unacked backlog any live output queue holds.
std::uint64_t liveBacklog(Scenario& s) {
  std::uint64_t backlog = s.source().output().unackedBacklog();
  for (const auto& inst : s.runtime().allInstances()) {
    if (!inst->alive()) continue;
    for (std::size_t i = 0; i < inst->peCount(); ++i) {
      for (std::size_t port = 0; port < inst->pe(i).portCount(); ++port) {
        backlog =
            std::max(backlog, inst->pe(i).output(port).unackedBacklog());
      }
    }
  }
  return backlog;
}

/// When the bench's own fault schedule takes each machine down: single
/// crashes, and every member of a rack kill.
std::vector<std::pair<MachineId, SimTime>> injectedKills(
    const FaultSchedule& faults) {
  std::vector<std::pair<MachineId, SimTime>> kills;
  for (const CrashSpec& c : faults.crashes) {
    kills.emplace_back(c.machine, c.crashAt);
  }
  for (const CorrelatedBurstSpec& b : faults.bursts) {
    for (std::size_t k = 0; k < b.machines.size(); ++k) {
      kills.emplace_back(b.machines[k],
                         b.beginAt + static_cast<SimTime>(k) * b.stagger);
    }
  }
  return kills;
}

void observeRecoveries(Scenario& s, Observed& obs) {
  const auto kills = injectedKills(s.params().faults);
  for (HaCoordinator* c : s.coordinators()) {
    // Failures of this subjob's primary: its load spikes and its kills.
    const MachineId primary = s.primaryMachineOf(c->subjobId());
    std::vector<SimTime> starts;
    if (LoadGenerator* gen = s.loadGeneratorOn(primary)) {
      for (const auto& spike : gen->spikes()) starts.push_back(spike.first);
    }
    for (const auto& [machine, at] : kills) {
      if (machine == primary) starts.push_back(at);
    }
    for (RecoveryTimeline t : c->recoveries()) {
      if (t.rollbackStartAt != kTimeNever && t.rollbackDoneAt != kTimeNever &&
          t.rollbackDoneAt > t.rollbackStartAt) {
        obs.rollbacks.push_back(t.rollbackMs());
      }
      if (!t.complete()) continue;
      obs.switchovers.push_back(t.switchoverMs());
      obs.redeploys.push_back(t.redeployMs());
      obs.retransmits.push_back(t.retransmitMs());
      t.failureStart = kTimeNever;
      for (SimTime start : starts) {
        if (start <= t.detectedAt &&
            t.detectedAt - start <= kAttributionWindow &&
            (t.failureStart == kTimeNever || start > t.failureStart)) {
          t.failureStart = start;
        }
      }
      if (t.failureStart == kTimeNever) {
        ++obs.unattributed;
        continue;
      }
      obs.recoveries.push_back(t.totalMs());
      obs.detections.push_back(t.detectionMs());
    }
  }
}

/// Reads the public counters of a finished seed into `obs`.
void observe(Scenario& s, const ScenarioResult& r, Observed& obs) {
  for (const auto& [at, delayMs] : s.sink().series()) {
    if (at >= kDelayWarmup) obs.delays.push_back(delayMs);
  }
  observeRecoveries(s, obs);

  for (std::size_t k = 0; k < kMsgKindCount; ++k) {
    obs.traffic.messages[k] += r.traffic.messages[k];
    obs.traffic.bytes[k] += r.traffic.bytes[k];
    obs.traffic.elements[k] += r.traffic.elements[k];
  }
  obs.generated += r.sourceGenerated;
  obs.delivered += r.sinkReceived;
  obs.duplicatesDropped += r.duplicatesDropped;
  obs.outOfOrderDropped += r.outOfOrderDropped;
  Simulator& sim = s.cluster().sim();
  obs.events += sim.firedEvents();
  obs.slotCapacity = std::max(obs.slotCapacity, sim.slotCapacity());
  obs.peakPending = std::max(obs.peakPending, sim.pendingEvents());
  if (const ReliableDelivery* arq = s.cluster().network().reliable()) {
    obs.arqRetransmits += arq->stats().retransmits;
    obs.arqParkedEvicted += arq->stats().parkedEvicted;
    obs.arqPeakTracked = std::max(obs.arqPeakTracked, arq->peakTracked());
  }
  if (const FaultInjector* injector = s.faultInjector()) {
    obs.faultDrops += injector->stats().totalDrops();
    obs.faultDuplicates += injector->stats().duplicates;
    obs.faultDelayed += injector->stats().delayed;
  }
  for (HaCoordinator* c : s.coordinators()) {
    if (const CheckpointManager* cm = c->checkpointManager()) {
      obs.checkpoints += cm->stats().checkpoints;
      obs.checkpointLatencyMs.merge(cm->stats().latencyMs);
      obs.checkpointPauseMs.merge(cm->stats().pauseMs);
    }
  }
  obs.switchoverCount += r.switchovers;
  obs.rollbackCount += r.rollbacks;
  obs.promotions += r.promotions;
  obs.stateReadElements += r.stateReadElements;
  obs.state += r.state;
  obs.placement += r.placement;
  obs.membership += r.membership;
  obs.cpuLoadSum += r.avgCpuLoad;
  obs.machines = std::max(obs.machines, s.machineCount());
}

/// Runs one seed from the constructor to the oracle verdict. `obs` is set
/// for the first round only; `traced` turns on the recorder and the chunked
/// run, and `spans` (when set) records the phases.
Execution execute(const ScenarioParams& params, bool traced, SpanLog* spans,
                  Observed* obs) {
  ScenarioParams p = params;
  p.trace.enabled = traced;
  const std::uint64_t seed = p.seed;
  Execution e;
  const int seedSpan = spans != nullptr ? spans->open("seed", seed) : -1;

  // Set-up takes well under a millisecond, so one sample is mostly noise:
  // set up several times, keep every sample, and run the last.
  std::unique_ptr<Scenario> s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    s.reset();
    e.setupS.push_back(timed(spans, "setup", seed, [&] {
      s = std::make_unique<Scenario>(p);
      s->build();
    }));
  }
  s->start();
  if (p.failureFraction > 0) s->startFailures();
  Simulator& sim = s->cluster().sim();
  const SimTime begin = sim.now();
  if (traced) {
    for (SimDuration left = p.duration; left > 0; left -= kChunk) {
      e.runS += timed(spans, "run_chunk", seed,
                      [&] { s->run(std::min(kChunk, left)); });
      if (obs != nullptr) {
        obs->peakPending = std::max(obs->peakPending, sim.pendingEvents());
        obs->peakBacklog = std::max(obs->peakBacklog, liveBacklog(*s));
      }
    }
  } else {
    e.runS = timed(spans, "run", seed, [&] { s->run(p.duration); });
  }
  QuiescenceReport quiescence;
  e.drainS = timed(spans, "drain", seed,
                   [&] { quiescence = s->drainQuiescent(); });
  e.simS = toSeconds(sim.now() - begin);
  ScenarioResult r;
  e.collectS = timed(spans, "collect", seed, [&] { r = s->collect(); });
  harness::OracleReport oracle;
  e.oracleS = timed(spans, "oracle", seed, [&] {
    oracle = harness::checkExactlyOnceInOrder(*s, r);
  });

  e.fingerprint = fingerprintResult(r);
  // Quiescent, not necessarily clean: after a permanent rack kill, ARQ
  // retries toward the dead machines go on forever, which the drain reports
  // as a residual verdict. The oracle still has to see every element.
  e.ok = oracle.ok && quiescence.quiescent;
  if (!oracle.ok) {
    e.problem = "oracle: " + oracle.summary();
  } else if (!quiescence.quiescent) {
    e.problem = "drain did not reach quiescence";
  }
  if (obs != nullptr) {
    observe(*s, r, *obs);
    if (traced) {
      obs->tracedRunS += e.runS;
      obs->traceEvents += s->trace()->size();
      obs->traceExportS += timed(spans, "trace_export", seed, [&] {
        std::ostringstream sink;
        writeJsonl(s->trace()->events(), sink);
      });
    }
  }
  if (spans != nullptr) spans->close(seedSpan);
  return e;
}

// ---------------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string traceDir;
};

struct WorkloadReport {
  MetricSet metrics;
  bool correct = false;
  std::string json;
};

/// Per-seed wall-clock samples over every untraced execution.
struct SeedTimes {
  std::vector<double> setup, run, drain, collect, oracle, wall;

  void add(const Execution& e) {
    setup.insert(setup.end(), e.setupS.begin(), e.setupS.end());
    run.push_back(e.runS);
    drain.push_back(e.drainS);
    collect.push_back(e.collectS);
    oracle.push_back(e.oracleS);
    wall.push_back(e.wallS());
  }
};

/// Sum over seeds of each seed's fastest `field`. Other tenants of the
/// machine only ever slow an execution down, by up to a quarter for seconds
/// at a time, so the fastest of a seed's executions is the steady estimate.
double sumOfFastest(const std::vector<SeedTimes>& times,
                    std::vector<double> SeedTimes::*field) {
  double sum = 0;
  for (const SeedTimes& t : times) {
    sum += *std::min_element((t.*field).begin(), (t.*field).end());
  }
  return sum;
}

/// Sum over seeds of each seed's median set-up time.
double setupSeconds(const std::vector<SeedTimes>& times) {
  double sum = 0;
  for (const SeedTimes& t : times) sum += median(t.setup);
  return sum;
}

double mean(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string environmentJson() {
  double load[3] = {0, 0, 0};
  const int n = getloadavg(load, 3);
  std::ostringstream out;
  out << "{\"build_type\": " << jsonString(PERF_BUILD_TYPE)
      << ", \"compiler\": " << jsonString(PERF_COMPILER)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"loadavg\": [";
  for (int i = 0; i < 3; ++i) {
    out << (i ? ", " : "") << (i < n ? jsonNumber(load[i]) : "null");
  }
  out << "]}";
  return out.str();
}

void setEndToEnd(MetricSet& m, const Observed& obs,
                 const std::vector<SeedTimes>& times, double simSeconds,
                 std::size_t failedSeeds) {
  const double seeds = static_cast<double>(times.size());
  m.set("sim_x", simSeconds / (sumOfFastest(times, &SeedTimes::run) +
                               sumOfFastest(times, &SeedTimes::drain)));
  m.set("seeds_per_min", 60.0 * seeds / sumOfFastest(times, &SeedTimes::wall));
  m.set("setup_s", setupSeconds(times));
  m.set("peak_rss_mb", peakRssMb());
  m.set("delay_mean_ms", mean(obs.delays));
  m.set("delay_p50_ms", percentile(obs.delays, 0.50));
  m.set("delay_p99_ms", percentile(obs.delays, 0.99));
  m.set("delay_p999_ms", percentile(obs.delays, 0.999));
  m.set("recovery_p50_ms", percentile(obs.recoveries, 0.50));
  m.set("recovery_p90_ms", percentile(obs.recoveries, 0.90));
  m.set("switchover_p50_ms", percentile(obs.switchovers, 0.50));
  m.set("rollback_p50_ms", percentile(obs.rollbacks, 0.50));
  const double data = static_cast<double>(obs.traffic.bytesOf(MsgKind::kData));
  m.set("ha_overhead",
        (static_cast<double>(obs.traffic.totalBytes()) - data) / data);
  m.set("failed_seed_ratio", static_cast<double>(failedSeeds) / seeds);
}

/// `p` is one seed's parameters: the micro-drivers take the workload's
/// shape (state size, rates, topology) from it.
void setPerLayer(MetricSet& m, const ScenarioParams& p, const Observed& obs,
                 const std::vector<SeedTimes>& times, SpanLog& spans) {
  const double ms = 1000.0;
  const double runS = sumOfFastest(times, &SeedTimes::run);
  const double runDrainS = runS + sumOfFastest(times, &SeedTimes::drain);
  m.set("exp.setup_ms", setupSeconds(times) * ms);
  m.set("exp.run_ms", runS * ms);
  m.set("exp.drain_ms", sumOfFastest(times, &SeedTimes::drain) * ms);
  m.set("exp.collect_ms", sumOfFastest(times, &SeedTimes::collect) * ms);
  m.set("exp.oracle_ms", sumOfFastest(times, &SeedTimes::oracle) * ms);

  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const Network::Counters& t = obs.traffic;
  m.set("sim.events", count(obs.events));
  m.set("sim.ns_per_event", runDrainS * 1e9 / count(obs.events));
  m.set("sim.peak_pending", count(obs.peakPending));
  m.set("sim.slot_capacity", count(obs.slotCapacity));
  m.set("net.msgs", count(t.totalMessages()));
  m.set("net.msgs_per_element",
        count(t.totalMessages()) / count(obs.generated));
  m.set("net.bytes.data", count(t.bytesOf(MsgKind::kData)));
  m.set("net.bytes.ack", count(t.bytesOf(MsgKind::kAck)));
  m.set("net.bytes.checkpoint", count(t.bytesOf(MsgKind::kCheckpoint)));
  m.set("net.bytes.hb", count(t.bytesOf(MsgKind::kHeartbeatPing) +
                              t.bytesOf(MsgKind::kHeartbeatReply)));
  m.set("net.bytes.control", count(t.bytesOf(MsgKind::kControl)));
  m.set("net.bytes.state_read", count(t.bytesOf(MsgKind::kStateRead)));
  m.set("net.bytes.beacon", count(t.bytesOf(MsgKind::kBeacon)));
  m.set("net.arq_retransmits", count(obs.arqRetransmits));
  m.set("net.arq_peak_tracked", count(obs.arqPeakTracked));
  m.set("net.arq_parked_evicted", count(obs.arqParkedEvicted));
  m.set("fault.drops", count(obs.faultDrops));
  m.set("fault.duplicates", count(obs.faultDuplicates));
  m.set("fault.delayed", count(obs.faultDelayed));
  m.set("stream.delivered", count(obs.delivered));
  m.set("stream.dups_dropped", count(obs.duplicatesDropped));
  m.set("stream.ooo_dropped", count(obs.outOfOrderDropped));
  m.set("stream.useful_ratio",
        count(obs.delivered) / count(obs.delivered + obs.duplicatesDropped +
                                     obs.outOfOrderDropped));
  m.set("stream.peak_backlog", count(obs.peakBacklog));
  m.set("cluster.machines", count(obs.machines));
  m.set("cluster.cpu_load", obs.cpuLoadSum / static_cast<double>(times.size()));
  m.set("checkpoint.count", count(obs.checkpoints));
  m.set("checkpoint.latency_ms", obs.checkpointLatencyMs.mean());
  m.set("checkpoint.pause_ms", obs.checkpointPauseMs.mean());
  const StateTelemetry& st = obs.state;
  m.set("state.delta_ship_kb", count(st.deltaShipBytes) / 1024.0);
  m.set("state.delta_ratio",
        st.deltaFullBytes == 0
            ? 0.0
            : count(st.deltaShipBytes) / count(st.deltaFullBytes));
  m.set("state.compactions", count(st.compactions));
  m.set("state.tier_spills", count(st.tierSpills));
  m.set("state.restore_delta_kb", count(st.restoreDeltaBytes) / 1024.0);
  m.set("detect.detection_ms_p50", percentile(obs.detections, 0.50));
  m.set("ha.switchovers", count(obs.switchoverCount));
  m.set("ha.rollbacks", count(obs.rollbackCount));
  m.set("ha.promotions", count(obs.promotions));
  m.set("ha.reprovisions", count(obs.placement.reprovisions));
  m.set("ha.redeploy_ms_p50", percentile(obs.redeploys, 0.50));
  m.set("ha.retransmit_ms_p50", percentile(obs.retransmits, 0.50));
  m.set("ha.state_read_elements", count(obs.stateReadElements));
  m.set("ha.unattributed", count(obs.unattributed));
  m.set("place.choices", count(obs.placement.plannerChoices));
  m.set("place.domain_losses", count(obs.placement.domainLosses));
  m.set("place.reprovision_retries", count(obs.placement.reprovisionRetries));
  m.set("membership.beacons", count(obs.membership.beaconsSent));
  m.set("membership.joins", count(obs.membership.joins));
  m.set("membership.lease_expiries", count(obs.membership.leaseExpiries));
  m.set("trace.events", count(obs.traceEvents));
  m.set("trace.export_ms", obs.traceExportS * ms);
  m.set("trace.overhead", obs.tracedRunS / runS);

  // Micro-drivers, sized from what the round observed, each in its span.
  const int microSpan = spans.open("micro_drivers", 0);
  const auto micro = [&spans](const char* name, auto driver) {
    double cost = 0;
    timed(&spans, name, 0, [&] { cost = driver(); });
    return cost;
  };
  const double scheduleFire = micro("sim.schedule_fire", [&] {
    return scheduleFireNs(obs.peakPending);
  });
  const double sendDeliver = micro("net.send_deliver", sendDeliverNs);
  const double reliableSend = micro("net.reliable_send", reliableSendNs);
  const double produceAck = micro("stream.produce_ack", produceAckNs);
  const double receiveDedup = micro("stream.receive_dedup", receiveDedupNs);
  const double serialize = micro("checkpoint.serialize", [&] {
    return serializeUs(p.stateBytes, p.stateKeyBytes);
  });
  DeltaCosts delta;
  timed(&spans, "state.delta", 0, [&] {
    const auto dirtyKeys = static_cast<std::size_t>(
        p.dataRatePerSec * toSeconds(p.checkpointInterval));
    delta = deltaCosts(p.stateBytes, p.stateKeyBytes, dirtyKeys);
  });
  const double choose = micro("place.choose", [&] {
    const int racks =
        p.placement.topology.racks > 0 ? p.placement.topology.racks : 4;
    const int primaries = (p.numPes + p.pesPerSubjob - 1) / p.pesPerSubjob;
    return chooseUs(obs.machines, racks, primaries);
  });
  spans.close(microSpan);
  m.set("sim.schedule_fire_ns", scheduleFire);
  m.set("net.send_deliver_ns", sendDeliver);
  m.set("net.reliable_send_ns", reliableSend);
  m.set("stream.produce_ack_ns", produceAck);
  m.set("stream.receive_dedup_ns", receiveDedup);
  m.set("checkpoint.serialize_us", serialize);
  m.set("state.delta_encode_us", delta.encodeUs);
  m.set("state.delta_apply_us", delta.applyUs);
  m.set("state.compact_us", delta.compactUs);
  m.set("place.choose_us", choose);

  // Estimated shares of run + drain time: each layer's operation count times
  // its micro-driver cost. The layers nest (a delivery is also an event), so
  // these are estimates, not a partition.
  const double runNs = runDrainS * 1e9;
  const double shareSim = count(obs.events) * scheduleFire / runNs;
  const double shareNet = count(t.totalMessages()) * sendDeliver / runNs;
  const double shareStream =
      count(t.elementsOf(MsgKind::kData)) * (produceAck + receiveDedup) / runNs;
  const double shareCheckpoint = count(obs.checkpoints) *
                                 static_cast<double>(p.pesPerSubjob) *
                                 serialize * 1e3 / runNs;
  const double shareState =
      (count(st.deltaShips) * (delta.encodeUs + delta.applyUs) +
       count(st.compactions) * delta.compactUs) *
      1e3 / runNs;
  m.set("share.sim", shareSim);
  m.set("share.net", shareNet);
  m.set("share.stream", shareStream);
  m.set("share.checkpoint", shareCheckpoint);
  m.set("share.state", shareState);
  m.set("share.other", std::max(0.0, 1.0 - shareSim - shareNet - shareStream -
                                         shareCheckpoint - shareState));
}

WorkloadReport runWorkload(const Workload& w, const Options& opt) {
  const auto n = static_cast<std::size_t>(w.seedCount);
  std::vector<ScenarioParams> params;
  Digest inputDigest;
  inputDigest.add(w.name);
  for (std::size_t i = 0; i < n; ++i) {
    params.push_back(w.params(opt.seed + i, w.duration));
    inputDigest.add(std::to_string(params.back().seed));
    inputDigest.add(params.back().faults.describe());
  }

  SpanLog spans;
  SpanLog* spanLog = opt.traced ? &spans : nullptr;
  std::vector<SeedTimes> times(n);

  const auto start = Clock::now();
  Observed obs;
  std::vector<std::string> fingerprints(n);
  std::vector<std::string> problems;
  Digest fingerprint;
  std::size_t attempted = 0, failed = 0, failedSeeds = 0;
  double simSeconds = 0;
  const auto record = [&](std::size_t i, const Execution& e) {
    ++attempted;
    std::string problem = e.problem;
    if (problem.empty() && e.fingerprint != fingerprints[i]) {
      problem = "diverged from the first round's fingerprint";
    }
    if (!problem.empty()) {
      ++failed;
      problems.push_back("seed " + std::to_string(params[i].seed) + ": " +
                         problem);
    }
  };

  const int firstRound =
      spanLog != nullptr ? spans.open(opt.traced ? "traced_round" : "round", 0)
                         : -1;
  for (std::size_t i = 0; i < n; ++i) {
    const Execution e = execute(params[i], opt.traced, spanLog, &obs);
    fingerprints[i] = e.fingerprint;
    fingerprint.add(e.fingerprint);
    simSeconds += e.simS;
    if (!e.ok) ++failedSeeds;
    if (!opt.traced) times[i].add(e);
    record(i, e);
  }
  if (spanLog != nullptr) spans.close(firstRound);

  // Timing rounds: untraced, whole rounds, while one more (as long as the
  // last) still ends within the time. A traced run times at least one,
  // since its first round ran traced.
  std::size_t timingRounds = 0;
  double roundS = secondsSince(start);
  while (secondsSince(start) + roundS <= opt.seconds ||
         (opt.traced && timingRounds == 0)) {
    const auto roundStart = Clock::now();
    const int roundSpan = spanLog != nullptr ? spans.open("round", 0) : -1;
    for (std::size_t i = 0; i < n; ++i) {
      const Execution e = execute(params[i], false, spanLog, nullptr);
      times[i].add(e);
      record(i, e);
    }
    if (spanLog != nullptr) spans.close(roundSpan);
    roundS = secondsSince(roundStart);
    ++timingRounds;
  }

  WorkloadReport report{
      opt.traced ? MetricSet(kPerLayer) : MetricSet(kEndToEnd), false, {}};
  if (opt.traced) {
    setPerLayer(report.metrics, params.front(), obs, times, spans);
  } else {
    setEndToEnd(report.metrics, obs, times, simSeconds, failedSeeds);
  }
  for (const std::string& name : report.metrics.unset()) {
    problems.push_back("metric " + name + " was not reported");
  }
  report.correct = failed == 0 && report.metrics.unset().empty();

  if (opt.traced && !opt.traceDir.empty()) {
    std::filesystem::create_directories(opt.traceDir);
    const std::string path = opt.traceDir + "/" + w.name + ".trace.json";
    if (!spans.write(path)) {
      problems.push_back("cannot write " + path);
      report.correct = false;
    }
  }

  std::ostringstream json;
  json << "{\"workload\": " << jsonString(w.name) << ", \"seed\": " << opt.seed
       << ", \"seeds\": " << n << ", \"trace\": " << (opt.traced ? 1 : 0)
       << ", \"seconds\": " << jsonNumber(opt.seconds)
       << ", \"env\": " << environmentJson()
       << ", \"fingerprint\": " << jsonString(fingerprint.hex())
       << ", \"input_digest\": " << jsonString(inputDigest.hex())
       << ", \"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"wall_s\": " << jsonNumber(secondsSince(start))
       << ", \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    json << (i ? ", " : "") << jsonString(problems[i]);
  }
  json << "], \"metrics\": " << metricsJson(report.metrics.metrics()) << "}";
  report.json = json.str();
  return report;
}

void printReadable(const Workload& w, const WorkloadReport& r) {
  std::printf("%s:\n", w.name.c_str());
  for (const Metric& m : r.metrics.metrics()) {
    std::printf("  %-28s %14s %s", m.name.c_str(),
                m.value ? jsonNumber(*m.value).c_str() : "null",
                m.unit.c_str());
    if (m.samples >= 0) {
      std::printf("  (n=%lld)", static_cast<long long>(m.samples));
    }
    std::printf("\n");
  }
}

int smoke() {
  bool correct = true;
  for (const Workload& full : allWorkloads()) {
    const Workload w = smokeVariant(full);
    for (bool traced : {false, true}) {
      Options opt;
      opt.seconds = 0;
      opt.traced = traced;
      const WorkloadReport r = runWorkload(w, opt);
      std::printf("%s\n", r.json.c_str());
      correct = correct && r.correct;
    }
  }
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perf_report --workload NAME [--seed S] [--seconds T] "
               "[--trace 0|1] [--trace-dir DIR]\n"
               "       perf_report --smoke\nworkloads:");
  for (const Workload& w : allWorkloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace streamha::perf

int main(int argc, char** argv) {
  using namespace streamha::perf;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") return smoke();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      opt.traced = value == "1";
      if (value != "0" && value != "1") return usage();
    } else if (arg == "--trace-dir") {
      opt.traceDir = value;
    } else {
      return usage();
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return usage();
  }
  const Workload* w = findWorkload(opt.workload);
  if (w == nullptr) return usage();
  const WorkloadReport r = runWorkload(*w, opt);
  printReadable(*w, r);
  std::printf("%s\n", r.json.c_str());
  return r.correct ? 0 : 1;
}
