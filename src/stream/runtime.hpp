// Runtime: deploys physical subjob instances onto cluster machines and wires
// the replication-aware channels between them.
//
// One Runtime manages one job (plus its source and sink). Several Runtimes
// may share a Cluster to model independent jobs contending for machines.
//
// Channel wiring rules
// --------------------
//  * PEs in the same subjob connect only within the same physical instance
//    (a primary PE never feeds a secondary PE of its own subjob).
//  * PEs in different subjobs connect across every pair of live instances;
//    each connection carries `active` and `gatesTrim` flags chosen by the HA
//    coordinator (all-active for AS, inactive standby for Hybrid, ...).
//  * The source's output queue feeds every instance of the first subjob; the
//    last subjob's instances all feed the sink.
//
// Each channel is one Wire: a connection on the producer's OutputQueue plus
// the route (ack path and, under loss recovery, gap path) it registered in
// the consumer's InputQueue. Restored-copy activation, deactivation and
// isolation act on an instance's wires and are shared by every HA mode and
// the load balancer.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/types.hpp"
#include "sim/timer.hpp"
#include "stream/job.hpp"
#include "stream/sink.hpp"
#include "stream/source.hpp"
#include "stream/subjob.hpp"

namespace streamha {

class Runtime {
 public:
  // -- Control-plane costs (DESIGN.md §5) --------------------------------------
  // Calibrated against the paper's Section IV-B ratios: pre-deployment cuts
  // the redeploy phase by ~75% (resume = deploy / 4), early connection cuts
  // retransmission/reprocessing latency by ~50%.
  static constexpr double kDeployWorkUs = 480'000.0;  ///< On-demand deployment.
  static constexpr double kResumeWorkUs = 120'000.0;  ///< Resume a suspended copy.
  static constexpr double kConnectWorkUs = 80'000.0;  ///< Per connection.
  static constexpr std::size_t kControlMsgBytes = 128;
  static constexpr std::size_t kAckBytes = 64;

  // -- Loss recovery ------------------------------------------------------------
  // On when a fault hook is installed on the network at construction (Scenario
  // arms its FaultInjector before it builds the Runtime): receivers NACK
  // out-of-order arrivals back to the producer (go-back-N), senders
  // rewind-and-resend connections whose unacked backlog stalls (exponential
  // backoff on kRetransmitTimeout), and duplicate arrivals trigger ack
  // resends. Off otherwise, so faultless runs carry none of this traffic.
  static constexpr SimDuration kRetransmitTimeout = 250 * kMillisecond;
  static constexpr SimDuration kRetransmitScanInterval = 50 * kMillisecond;
  static constexpr SimDuration kNackMinGap = 20 * kMillisecond;  ///< Per wire.
  static constexpr std::size_t kNackBytes = 64;

  Runtime(Cluster& cluster, const JobSpec& spec);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  Cluster& cluster() { return cluster_; }
  const JobSpec& spec() const { return spec_; }

  // -- Source / sink ----------------------------------------------------------

  Source& addSource(MachineId machine, Source::Params params);
  Sink& addSink(MachineId machine);
  Source* source() { return source_.get(); }
  Sink* sink() { return sink_.get(); }

  // -- Instances --------------------------------------------------------------

  /// Create a physical copy of a subjob on `machine`. Object creation is
  /// immediate; deployment *cost* is imposed by the caller (HA coordinator)
  /// via machine work. The instance starts un-wired and running (callers
  /// suspend standby copies before wiring).
  Subjob& instantiate(SubjobId subjob, MachineId machine, Replica replica);

  std::vector<Subjob*> instancesOf(SubjobId subjob) const;
  Subjob* instanceOf(SubjobId subjob, Replica replica) const;
  const std::vector<std::unique_ptr<Subjob>>& allInstances() const {
    return instances_;
  }

  // -- Wiring -----------------------------------------------------------------

  struct WireOpts {
    bool active = true;
    bool gatesTrim = true;
  };

  /// One channel: a connection on a producer OutputQueue plus its ack and
  /// gap route in the consumer's InputQueue (connId and route are 0 while
  /// the wire is only planned).
  struct Wire {
    OutputQueue* oq = nullptr;
    int connId = 0;
    StreamId stream = kNoStream;
    Subjob* producer = nullptr;    ///< nullptr: the source.
    Subjob* consumer = nullptr;    ///< nullptr: the sink.
    PeInstance* consumerPe = nullptr;  ///< nullptr: the sink.
    bool local = false;            ///< Intra-instance channel.
    InputQueue* iq = nullptr;      ///< The consumer's queue.
    int route = 0;
  };

  /// Create every missing channel into and out of `instance`. Inbound flags
  /// apply to channels feeding this instance; outbound flags to channels it
  /// feeds. Local intra-instance channels are always active and gating.
  void wireInstance(Subjob& instance, WireOpts inbound, WireOpts outbound);

  /// Like wireInstance, but pays per-connection establishment costs
  /// (control round-trip + connectWorkUs on the producer machine) before
  /// creating each channel; `done` runs when all channels exist.
  void wireInstanceWithCost(Subjob& instance, WireOpts inbound,
                            WireOpts outbound, std::function<void()> done);

  /// Cross-instance wires whose consumer is `instance`.
  std::vector<Wire*> wiresInto(Subjob& instance);
  /// Cross-instance wires whose producer is `instance`.
  std::vector<Wire*> wiresOutOf(Subjob& instance);
  /// Intra-instance (local PE-to-PE) wires inside `instance`.
  std::vector<Wire*> localWiresInto(Subjob& instance);

  /// Remove every wire touching `instance` (termination): both the producer
  /// connection and the consumer's ack and gap route.
  void removeWiresOf(Subjob& instance);

  // -- Restored-copy activation -------------------------------------------------

  /// Watermark the state holds for (consumer PE, stream); 0 if unknown.
  /// Conventional checkpoints persisted the received backlog, so resumption
  /// starts after everything *received*; sweeping resumes after everything
  /// *processed*.
  static ElementSeq stateWatermark(const SubjobState& state,
                                   const PeInstance& consumerPe,
                                   StreamId stream);

  /// Position every inbound wire of `copy` at the state's watermark, then
  /// activate it and make it gate trimming; rewind and replay the local
  /// wires from the same watermarks; activate and gate all outbound wires.
  /// Restored output-queue contents flow downstream on activation.
  void activateRestoredInstance(Subjob& copy, const SubjobState& state);

  /// Deactivate the wires of a standby going back to suspension.
  void deactivateInstanceWires(Subjob& copy);

  /// Cut a dead/demoted copy loose: stop its inbound connections from gating
  /// upstream trimming and deactivate them.
  void isolateInstance(Subjob& copy);

  // -- Whole-job convenience ---------------------------------------------------

  /// Instantiate a primary copy of every subjob per `placement` (one machine
  /// per subjob, in subjob order) and wire everything active and gating.
  /// Requires source and sink to exist.
  void deployPrimaries(const std::vector<MachineId>& placement);

  /// Start source, sink and the ack timers of kOnProcess instances.
  void start();

  /// Invoked at the end of every instantiate(). The flow subsystem installs
  /// one to adopt mid-run copies (spares deployed by the scheduler, PS
  /// redeployments) into backpressure/shedding the moment they exist.
  using InstanceListener = std::function<void(Subjob&)>;
  void setInstanceListener(InstanceListener fn) {
    instance_listener_ = std::move(fn);
  }

 private:
  /// The missing wires into and out of `instance`, as plans (connId 0).
  std::vector<Wire> collectMissingWires(Subjob& instance);
  bool wireExists(const Wire& plan) const;
  void createWire(const Wire& plan, WireOpts opts);
  MachineId producerMachine(const Wire& plan) const;
  /// Wires with `instance` at the `end` side (producer or consumer).
  std::vector<Wire*> wiresAt(Subjob* Wire::*end, const Subjob& instance,
                             bool local);

  Cluster& cluster_;
  JobSpec spec_;
  const bool loss_recovery_;
  std::unique_ptr<Source> source_;
  std::unique_ptr<Sink> sink_;
  std::vector<std::unique_ptr<Subjob>> instances_;
  std::vector<std::unique_ptr<Wire>> wires_;
  /// Where each wire's acks land. An ack's closure holds a pointer to its
  /// record plus the watermark, 16 bytes, which fits std::function's inline
  /// buffer. Grow-only: an ack in flight after its wire is removed still
  /// finds its queue, which ignores the unknown connection id.
  struct AckRoute {
    OutputQueue* oq = nullptr;
    int connId = 0;
  };
  std::deque<AckRoute> ack_routes_;
  std::unique_ptr<PeriodicTimer> retransmit_timer_;
  InstanceListener instance_listener_;
};

}  // namespace streamha
