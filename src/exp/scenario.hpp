// The canonical paper experiment (Section V-A):
//
//   "The stream processing job used in our experiments consists of 8 PEs
//    connected in a chain topology. The entire job is then further divided
//    into 4 subjobs, each consisting of 2 PEs. Each subjob is assigned to a
//    separate primary machine. ... The PE selectivity is 1. ... We generate
//    transient failures on all primary machines except the first one in the
//    chain, since it is also where stream input is generated."
//
// Machine layout (for S subjobs, P protected):
//   0 .. S-1      : primary machines (source co-located on machine 0)
//   S             : sink machine
//   S+1 ..        : standby machine(s) -- one shared machine when
//                   `sharedSecondary`, else one per protected subjob
//   then          : spare machines (fail-stop replacements), one per
//                   protected subjob
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/load_generator.hpp"
#include "common/types.hpp"
#include "fault/injector.hpp"
#include "flow/flow_control.hpp"
#include "ha/active_standby.hpp"
#include "ha/hybrid.hpp"
#include "ha/passive_standby.hpp"
#include "membership/membership.hpp"
#include "metrics/counters.hpp"
#include "metrics/latency.hpp"
#include "place/planner.hpp"
#include "state/telemetry.hpp"
#include "metrics/recovery.hpp"
#include "stream/runtime.hpp"
#include "trace/recorder.hpp"

namespace streamha {

struct ScenarioParams {
  // -- Topology ---------------------------------------------------------------
  int numPes = 8;
  int pesPerSubjob = 2;
  double peWorkUs = 300.0;
  double selectivity = 1.0;
  /// "The PE's internal state is set to have a size of 20 data elements."
  std::size_t stateBytes = 20 * kBytesPerElement;
  /// When > 0, PEs run KeyedStateLogic with this per-key region size instead
  /// of SyntheticLogic: each element dirties one key region, which is the
  /// workload shape delta checkpointing (store.delta) exploits. 0 (default)
  /// keeps SyntheticLogic and bit-identical baseline runs.
  std::size_t stateKeyBytes = 0;

  // -- Workload ---------------------------------------------------------------
  double dataRatePerSec = 1000.0;
  Source::Pattern sourcePattern = Source::Pattern::kPoisson;
  /// When > 0, the source is traffic-shaped to this rate (the paper's other
  /// Section I alternative: smooths bursts, adds source-side delay, and does
  /// nothing about failures).
  double shapeRatePerSec = 0.0;

  // -- HA ---------------------------------------------------------------------
  HaMode mode = HaMode::kNone;
  /// Subjobs protected by `mode` (others run unprotected).
  std::vector<SubjobId> protectedSubjobs = {2};
  /// All protected subjobs share ONE standby machine (Fig 5 multiplexing).
  bool sharedSecondary = false;
  SimDuration checkpointInterval = 50 * kMillisecond;
  SimDuration heartbeatInterval = 100 * kMillisecond;
  SimDuration failStopAfter = 10 * kSecond;
  CheckpointKind checkpointKind = CheckpointKind::kSweeping;
  /// Optional custom failure detector for every coordinator (defaults to
  /// heartbeat with the intervals/thresholds above).
  DetectorFactory detectorFactory;
  /// Standby state-store parameters (in-memory by default; enable
  /// persistToDisk for the paper's both-machines-fail durability variant).
  StateStore::Params store;
  /// Spike ramp-up duration (0 = step spikes); prediction-style detectors
  /// exploit the ramp.
  SimDuration failureRamp = 0;
  bool provisionSpares = false;  ///< Add spare machines for fail-stop drills.
  // Hybrid optimization ablation toggles.
  bool predeploySecondary = true;
  bool earlyConnections = true;
  bool readStateOnRollback = true;

  // -- Gray-failure resilience (detect/accrual.hpp, ha/ FlapDamping) ----------
  /// Phi-accrual detection instead of miss counting. Ignored when an explicit
  /// `detectorFactory` is set. Off by default (bit-identical runs).
  struct AccrualConfig {
    bool enabled = false;
    double failPhi = 2.0;
  };
  AccrualConfig accrual;
  /// Switchover hysteresis + flap damping + quarantine (Hybrid only). Off by
  /// default.
  FlapDamping damping;

  // -- Failure-domain-aware placement (place/) --------------------------------
  /// When enabled, standby machines are not dedicated layout slots but are
  /// *selected* from a shared replacement pool of `poolMachines` machines
  /// (ids sink+1 .. sink+poolMachines) by a PlacementPlanner that maximizes
  /// failure-domain separation from each protected primary (or takes the
  /// pool in order when `domainAware` is false -- the oblivious baseline).
  /// Runtime replacement choices (fail-stop spare, fresh standby after a
  /// standby-only loss, domain-loss re-provision target) route through the
  /// same planner. Off by default: disabled placement changes no machine
  /// layout, consumes no RNG and stays bit-identical to pre-placement runs.
  struct PlacementConfig {
    bool enabled = false;
    /// Failure-domain shape; machines map to racks round-robin (id % racks).
    DomainTopology topology;
    bool domainAware = true;
    /// Replacement-pool size (standbys are drawn from this pool).
    int poolMachines = 0;
  };
  PlacementConfig placement;

  // -- Elastic membership (membership/) ---------------------------------------
  /// Lease-based runtime join/leave. When enabled, every layout machine is a
  /// founding member beaconing to a directory on the sink machine, and
  /// `latentMachines` extra machines exist powered-up but outside the roster
  /// until a churn action (FaultSchedule::churn kJoin) starts their beacon --
  /// on warm-up they enter the planner pool and balancer spare list, so
  /// replacements can be drafted onto mid-run-joined capacity. Graceful
  /// leaves (kRetire) drain standbys via the redeploy path; silenced beacons
  /// (kSilence, or a crash) evict by lease expiry. Off by default: no
  /// service, no beacons, no events, no RNG -- bit-identical runs.
  struct MembershipConfig {
    bool enabled = false;
    /// Extra machines appended after the pool/spare slots, latent at start.
    int latentMachines = 0;
  };
  MembershipConfig membership;

  // -- Transient failure load --------------------------------------------------
  /// Fraction of time each loaded machine spends in spikes; 0 disables.
  double failureFraction = 0.0;
  SimDuration failureDuration = 2 * kSecond;
  double failureMagnitude = 0.97;
  /// Which primary machines carry failure load: every primary but the first
  /// (the paper's general setup) or only the protected subjobs' primaries
  /// (the Fig 4 / Fig 5 policy-comparison setup).
  enum class FailurePlacement { kAllButFirst, kProtectedOnly };
  FailurePlacement failurePlacement = FailurePlacement::kProtectedOnly;
  bool failuresOnStandbys = false;   ///< Fig 4 loads the secondary too.

  // -- Tracing ----------------------------------------------------------------
  /// Structured event tracing (see trace/). Off by default: a null recorder
  /// pointer is never dereferenced, so untraced runs pay nothing and stay
  /// bit-identical to pre-tracing builds. Recording never schedules events or
  /// touches RNG, so *traced* runs produce the same results too.
  struct TraceConfig {
    bool enabled = false;
    /// Per-message events are high-volume; keep them off unless needed.
    bool messageEvents = false;
    bool queueTrim = true;
    std::size_t maxEvents = 0;  ///< 0 = unbounded.
  };
  TraceConfig trace;

  // -- Flow control (flow/) ----------------------------------------------------
  /// Credit-based flow control: ARQ send windows, end-to-end backpressure and
  /// accounted shedding, armed by any nonzero field. Disabled by default -- a
  /// default FlowParams arms nothing, so fault-free figure runs stay
  /// bit-identical.
  flow::FlowParams flow;

  // -- Fault injection --------------------------------------------------------
  /// Declarative fault schedule (see fault/schedule.hpp). When non-empty,
  /// build() arms a FaultInjector on the cluster before it builds the
  /// Runtime, which switches the Runtime's loss-recovery machinery on (see
  /// Runtime::kRetransmitTimeout), and enables the checkpoint
  /// confirm-timeout guard, so chaos runs converge to exactly-once delivery.
  FaultSchedule faults;
  /// Extra salt mixed into the injector's RNG stream (vary fault randomness
  /// without disturbing the rest of the run).
  std::uint64_t faultSeedSalt = 0;

  // -- Run --------------------------------------------------------------------
  SimDuration warmup = 2 * kSecond;
  SimDuration duration = 30 * kSecond;
  std::uint64_t seed = 1;
};

struct ScenarioResult {
  double avgDelayMs = 0.0;
  double p99DelayMs = 0.0;
  double maxDelayMs = 0.0;
  std::uint64_t sinkReceived = 0;
  std::uint64_t sourceGenerated = 0;
  /// Delay split by ground-truth failure windows ("8-fold during failure").
  DelaySplit delaySplit;
  /// Measured average CPU load over the loaded primary machines.
  double avgCpuLoad = 0.0;
  /// Traffic during the measurement window.
  Network::Counters traffic{};
  double measuredSeconds = 0.0;
  /// Recovery decomposition merged over all coordinators.
  RecoveryBreakdown recovery;
  std::uint64_t switchovers = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t promotions = 0;
  std::uint64_t elementsToStalledPrimary = 0;
  std::uint64_t stateReadElements = 0;
  /// Sequence gaps seen anywhere (must be 0 in a correct run).
  std::uint64_t gapsObserved = 0;
  std::uint64_t duplicatesDropped = 0;
  /// Out-of-order arrivals dropped pending retransmission (only non-zero in
  /// fault-injection runs; the NACK/retransmit path backfills them).
  std::uint64_t outOfOrderDropped = 0;
  /// Elements dropped by load shedding (0 unless flow.shedThreshold is set).
  std::uint64_t elementsShed = 0;
  /// Flow-control / ARQ-window telemetry (all zero with flow control off).
  FlowTelemetry flow;
  /// Gray-failure / flap-damping telemetry (all zero with damping and
  /// slowdown faults off).
  GrayFailureTelemetry gray;
  /// State-store telemetry (all zero with the delta/tiered backend off).
  StateTelemetry state;
  /// Placement / domain-loss recovery telemetry (all zero with placement off).
  PlacementTelemetry placement;
  /// Elastic-membership telemetry (all zero with membership off).
  MembershipTelemetry membership;
};

/// Result of Scenario::drainQuiescent(): how the run wound down.
struct QuiescenceReport {
  /// The sink stopped moving for the required window (clean or residual).
  bool quiescent = false;
  /// Strong form: sink stable AND no tracked ARQ messages AND no data-plane
  /// traffic or stall retransmissions in the window AND every live producer's
  /// unacked backlog fully drained. A healed run ends clean; a never-healing
  /// partition ends quiescent-but-residual (capped-backoff ARQ retries and
  /// stall retransmissions continue forever toward the unreachable island).
  bool clean = false;
  SimTime at = 0;                   ///< Simulated time the verdict was reached.
  std::uint64_t residualArq = 0;      ///< Tracked ARQ messages at the end.
  std::uint64_t residualBacklog = 0;  ///< Max live-peer unacked backlog left.
};

/// Machine layout implied by a ScenarioParams, computed without building
/// anything (fault-schedule generators need machine ids up front).
struct ScenarioLayout {
  int numSubjobs = 0;
  MachineId sinkMachine = kNoMachine;
  std::vector<MachineId> standbyOf;  ///< Indexed by subjob; kNoMachine if none.
  std::vector<MachineId> spareOf;
  /// Replacement-pool machines (placement enabled only); standbys above are
  /// drawn from this pool rather than occupying dedicated layout slots.
  std::vector<MachineId> poolMachines;
  /// Latent machines (membership enabled only): powered up but outside the
  /// roster until a churn join starts their beacon.
  std::vector<MachineId> latentMachines;
  std::size_t machineCount = 0;

  MachineId primaryOf(SubjobId subjob) const {
    return static_cast<MachineId>(subjob);
  }
};

class Scenario {
 public:
  explicit Scenario(ScenarioParams params);
  ~Scenario();

  /// The machine layout build() will create for `params`.
  static ScenarioLayout layoutFor(const ScenarioParams& params);
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Construct cluster, job, runtime, coordinators and load generators.
  void build();

  /// Start source, sink and ack timers (idempotent; warmup() calls it).
  void start();

  /// Run the warm-up period, then reset statistics and open the traffic
  /// window (does not start failures).
  void warmup();

  void startFailures();
  void stopFailures();

  /// Advance simulated time.
  void run(SimDuration duration);

  /// Stop the source and drain in-flight elements (for exactness checks).
  void drain(SimDuration grace = 5 * kSecond);

  /// Stop the source and run until the pipeline is *observably* quiescent
  /// instead of a fixed headroom: polls every `tick` until either the strong
  /// predicate (sink stable `stableTicks` ticks, zero tracked ARQ messages,
  /// zero data/retransmit traffic in the window, zero live-peer unacked
  /// backlog) holds -- a clean finish -- or the sink alone stays stable for
  /// 2 x `stableTicks` ticks while residual traffic persists, which is the
  /// honest verdict under a never-healing partition. Gives sweeps a
  /// convergence *proof* where drain()'s fixed grace was a guess.
  QuiescenceReport drainQuiescent(SimDuration maxGrace = 30 * kSecond,
                                  SimDuration tick = 500 * kMillisecond,
                                  int stableTicks = 8);

  /// Close the measurement window and gather results.
  ScenarioResult collect();

  /// build + warmup + failures + run + collect, per the params.
  ScenarioResult runAll();

  // -- Accessors for tests and specialized benches ----------------------------
  Cluster& cluster() { return *cluster_; }
  Runtime& runtime() { return *runtime_; }
  Source& source() { return *runtime_->source(); }
  Sink& sink() { return *runtime_->sink(); }
  const ScenarioParams& params() const { return params_; }
  std::vector<HaCoordinator*> coordinators();
  HaCoordinator* coordinatorFor(SubjobId subjob);
  LoadGenerator* loadGeneratorOn(MachineId machine);
  MachineId primaryMachineOf(SubjobId subjob) const;
  MachineId standbyMachineOf(SubjobId subjob) const;
  MachineId sinkMachine() const;
  std::size_t machineCount() const;

  /// The trace recorder; null when params.trace.enabled is false.
  TraceRecorder* trace() { return recorder_.get(); }

  /// The placement planner; null when params.placement.enabled is false.
  PlacementPlanner* planner() { return planner_.get(); }

  /// The membership service; null when params.membership.enabled is false.
  MembershipService* membership() { return membership_.get(); }

  /// Latent machines (membership): powered up, outside the roster at start.
  const std::vector<MachineId>& latentMachines() const {
    return layout_.latentMachines;
  }

  /// The armed fault injector; null when params.faults is empty.
  FaultInjector* faultInjector() { return injector_.get(); }

  /// The flow-control subsystem; null unless params.flow.armed().
  flow::FlowControl* flowControl() { return flow_.get(); }

  /// Every ground-truth spike window across all load generators, merged.
  std::vector<std::pair<SimTime, SimTime>> allFailureWindows() const;

  /// Fill RecoveryTimeline::failureStart from the ground-truth windows.
  void attributeFailureStarts();

 private:
  void createCoordinators();
  void createLoadGenerators();
  /// Open the measurement window at the current simulated time.
  void openWindow();

  ScenarioParams params_;
  std::unique_ptr<TraceRecorder> recorder_;  ///< Outlives the cluster below.
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<FaultInjector> injector_;  ///< Detaches before the cluster dies.
  std::unique_ptr<Runtime> runtime_;
  /// References the cluster; coordinators reference it. Reset after the
  /// coordinators and before the cluster in ~Scenario.
  std::unique_ptr<PlacementPlanner> planner_;
  /// References the cluster and (via listeners) the planner/coordinators;
  /// reset before both in ~Scenario.
  std::unique_ptr<MembershipService> membership_;
  std::vector<std::unique_ptr<HaCoordinator>> coordinators_;
  std::vector<std::unique_ptr<LoadGenerator>> load_generators_;
  /// References the runtime; reset before runtime_ in ~Scenario.
  std::unique_ptr<flow::FlowControl> flow_;
  std::vector<MachineId> loaded_machines_;
  ScenarioLayout layout_;  ///< Set by build().

  // Measurement window.
  SimTime window_start_ = 0;
  Network::Counters traffic_baseline_{};
  std::vector<double> load_integral_baseline_;
  bool failures_running_ = false;
  bool started_ = false;
};

}  // namespace streamha
