#include "sched/scheduler.hpp"

#include <cassert>

#include "common/logging.hpp"

namespace streamha {
namespace {

constexpr SimDuration kMonitorInterval = kSecond;  ///< Coarse load sampling.
constexpr double kOverloadThreshold = 0.9;

}  // namespace

LoadBalancer::LoadBalancer(Runtime& runtime,
                           std::vector<MachineId> spareMachines, Params params)
    : rt_(runtime),
      spares_(std::move(spareMachines)),
      params_(params),
      timer_(runtime.cluster().sim(), kMonitorInterval,
             [this] { poll(); }) {}

LoadBalancer::~LoadBalancer() { stop(); }

void LoadBalancer::start() { timer_.start(); }

void LoadBalancer::stop() { timer_.stop(); }

double LoadBalancer::windowedLoad(MachineId machine) {
  Machine& m = rt_.cluster().machine(machine);
  const double integral = m.loadIntegral();
  const SimTime now = rt_.cluster().sim().now();
  double load = 0.0;
  const auto it = last_sample_at_.find(machine);
  if (it != last_sample_at_.end() && now > it->second) {
    load = (integral - last_integral_[machine]) /
           static_cast<double>(now - it->second);
  }
  last_integral_[machine] = integral;
  last_sample_at_[machine] = now;
  return load;
}

MachineId LoadBalancer::coolestSpare() {
  MachineId best = kNoMachine;
  double best_load = 0.0;
  for (MachineId spare : spares_) {
    const Machine& m = rt_.cluster().machine(spare);
    if (!m.isUp()) continue;
    const double load = m.instantaneousLoad();
    if (best == kNoMachine || load < best_load) {
      best_load = load;
      best = spare;
    }
  }
  return best;
}

void LoadBalancer::poll() {
  if (migrating_) return;
  const SimTime now = rt_.cluster().sim().now();
  for (const auto& inst : rt_.allInstances()) {
    if (!inst->alive() || inst->suspended()) continue;
    const MachineId machine = inst->machine().id();
    const double load = windowedLoad(machine);
    if (load >= kOverloadThreshold) {
      ++hot_streak_[machine];
    } else {
      hot_streak_[machine] = 0;
    }
    const auto coolIt = cooldown_until_.find(machine);
    const bool cooled =
        coolIt == cooldown_until_.end() || now >= coolIt->second;
    if (hot_streak_[machine] >= params_.sustainedSamples && cooled) {
      const MachineId target = coolestSpare();
      if (target == kNoMachine || target == machine) continue;
      hot_streak_[machine] = 0;
      cooldown_until_[machine] = now + params_.cooldown;
      LOG_INFO(now, "sched") << "sustained overload on machine " << machine
                             << "; migrating subjob " << inst->logicalId()
                             << " to machine " << target;
      migrateSubjob(*inst, target, nullptr);
      return;  // One migration at a time.
    }
  }
}

void LoadBalancer::migrateSubjob(Subjob& instance, MachineId target,
                                 std::function<void()> done) {
  assert(!migrating_ && "one migration at a time");
  migrating_ = true;
  Machine& targetMachine = rt_.cluster().machine(target);
  Subjob* inst = &instance;
  auto doneShared = std::make_shared<std::function<void()>>(std::move(done));

  // 1. Deploy the new copy's process on the target (full deployment cost).
  targetMachine.submitData(Runtime::kDeployWorkUs, [this, inst, target,
                                                    doneShared] {
    // 2. Stop-and-copy: quiesce, capture everything (incl. input queues).
    quiescer_.quiesce(*inst, [this, inst, target, doneShared] {
      SubjobState state = inst->captureState(true, true);
      const MachineId from = inst->machine().id();
      Network& net = rt_.cluster().network();
      const std::uint64_t elements = state.sizeElements();
      net.sendReliable(from, target, MsgKind::kStateRead, state.sizeBytes(),
                       elements, [this, inst, target, state, doneShared] {
                 // 3. Instantiate and restore on the target.
                 Subjob& copy = rt_.instantiate(inst->logicalId(), target,
                                                Replica::kPrimary);
                 copy.applyState(state);
                 // 4. Connect (paying establishment costs), then cut over.
                 // The migration state carried the input backlog, so the
                 // copy resumes after everything *received*.
                 rt_.wireInstanceWithCost(
                     copy, Runtime::WireOpts{false, false},
                     Runtime::WireOpts{false, false},
                     [this, inst, &copy, state, doneShared] {
                       rt_.activateRestoredInstance(copy, state);
                       rt_.isolateInstance(*inst);
                       quiescer_.release();
                       inst->terminateAll();
                       rt_.removeWiresOf(*inst);
                       copy.startAckTimer();
                       ++migrations_;
                       migrating_ = false;
                       if (*doneShared) (*doneShared)();
                     });
               });
    });
  });
}

}  // namespace streamha
