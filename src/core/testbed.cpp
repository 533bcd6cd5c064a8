#include "core/testbed.hpp"

#include "core/system_activity.hpp"
#include "snapshot/digest.hpp"

namespace mvqoe::core {

Testbed::Testbed(DeviceProfile profile, std::uint64_t seed, mem::MemPolicySpec mem_policy,
                 net::NetSpec net, trace::TraceLevel trace_level)
    : tracer(trace_level),
      scheduler(engine, tracer, profile.scheduler),
      storage(engine, scheduler, profile.storage),
      memory(engine, profile.memory, scheduler, storage, tracer, mem_policy),
      link(engine, net::LinkConfig{}, std::move(net)),
      am(memory),
      profile_(std::move(profile)),
      seed_(seed) {
  // The six wired subsystems, in the canonical snapshot section order
  // (registry keys 0-5; see registry.hpp for the full key layout).
  components_.add(0, "ENGN", "engine", &engine);
  components_.add(1, "SCHD", "sched", &scheduler);
  components_.add(2, "MEMM", "mem", &memory);
  components_.add(3, "LINK", "link", &link);
  components_.add(4, "STOR", "storage", &storage);
  components_.add(5, "PROC", "proc", &am);
  // Policies with internal state beyond the mechanism's pools carry an
  // MPOL snapshot section (registry key 6); stateless policies don't, so
  // baseline blobs stay byte-identical to the pre-policy layout.
  if (memory.policy().has_state()) {
    components_.add(6, "MPOL", "mem-policy", &memory.policy());
  }
  // Congestion-controlled worlds carry a NETC section (registry key 7)
  // recording which controller drives the link's flows; fifo worlds
  // don't, so legacy blobs stay byte-identical. The flow engine's
  // dynamic state lives in the LINK section (v2).
  if (link.cc_mode()) {
    const net::NetSpec& spec = link.net();
    components_.add(
        7, snapshot::tag("NETC"), "net-cc",
        [&spec](snapshot::ByteWriter& w) { net::save_net_spec(w, spec); },
        [&spec] {
          snapshot::ByteWriter w;
          net::save_net_spec(w, spec);
          return snapshot::digest_bytes(w.view());
        });
  }
}

Testbed::~Testbed() = default;

void Testbed::add_background_duty(mem::ProcessId pid, sim::Time period) {
  if (system_activity_ != nullptr) system_activity_->add_process(pid, period);
}

Workload& Testbed::add_workload(std::unique_ptr<Workload> workload) {
  workloads_.push_back(std::move(workload));
  Workload& added = *workloads_.back();
  added.register_components(components_);
  return added;
}

void Testbed::boot() {
  am.boot(profile_.system_scale, profile_.baseline_cached);
  am.enable_respawn(engine, profile_.baseline_cached);
  system_activity_ = std::make_unique<SystemActivity>(*this);
  system_activity_->start();
  components_.add(100, "SYSA", "sysact", system_activity_.get());
  // Let launch allocations and any boot-time reclaim settle.
  engine.run_until(engine.now() + sim::sec(2));
}

}  // namespace mvqoe::core
