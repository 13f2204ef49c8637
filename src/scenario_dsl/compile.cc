#include "scenario_dsl/compile.h"

namespace greencc::dsl {

namespace {

app::FlowSpec to_spec(const FlowDoc& flow) {
  app::FlowSpec spec;
  spec.cca = flow.cca;
  spec.bytes = flow.bytes;
  spec.rate_limit = flow.rate_limit;
  spec.start_time = flow.start;
  spec.sender_host = flow.host;
  spec.start_after_flow = flow.start_after;
  spec.unlimit_after_flow = flow.unlimit_after;
  spec.weight = flow.weight;
  return spec;
}

/// [[flow]] entries with their "count" replication applied.
std::vector<app::FlowSpec> expand_counts(const ScenarioDoc& doc) {
  std::vector<app::FlowSpec> specs;
  for (const FlowDoc& flow : doc.flows) {
    for (int i = 0; i < flow.count; ++i) specs.push_back(to_spec(flow));
  }
  return specs;
}

std::vector<app::FlowSpec> lower_flows(const ScenarioDoc& doc) {
  const TopologyDoc& topo = doc.topology;
  switch (topo.kind) {
    case TopologyKind::kDumbbell:
      return expand_counts(doc);

    case TopologyKind::kIncast: {
      app::FlowSpec prototype = to_spec(doc.flows.front());
      if (topo.aggregate.count() > 0) {
        prototype.bytes = units::Bytes{topo.aggregate.count() / topo.fan_in};
        if (prototype.bytes.count() <= 0) {
          throw ParseError(0, "topology.aggregate splits to zero bytes per "
                              "incast sender");
        }
      }
      std::vector<app::FlowSpec> specs;
      for (int i = 0; i < topo.fan_in; ++i) {
        app::FlowSpec spec = prototype;
        spec.sender_host = i;  // one synchronized sender per host
        specs.push_back(spec);
      }
      return specs;
    }

    case TopologyKind::kParkingLot: {
      std::vector<app::FlowSpec> specs;
      specs.push_back(to_spec(doc.flows.front()));
      const FlowDoc& cross_template =
          doc.flows.size() > 1 ? doc.flows[1] : doc.flows.front();
      for (int hop = 0; hop < topo.hops; ++hop) {
        app::FlowSpec cross = to_spec(cross_template);
        cross.bytes = topo.cross_bytes;
        cross.start_time = cross.start_time + topo.stagger * (hop + 1);
        cross.sender_host = 1 + hop;
        specs.push_back(cross);
      }
      return specs;
    }

    case TopologyKind::kFatTreePod: {
      const int hosts = topo.racks * topo.hosts_per_rack;
      if (hosts < 1) {
        throw ParseError(0, "fat_tree_pod needs racks * hosts_per_rack >= 1");
      }
      std::vector<app::FlowSpec> specs = expand_counts(doc);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].sender_host < 0) {
          // Round-robin rack assignment: flow i lands on rack i%racks,
          // host i/racks within it — spreads load across racks first.
          const int rack = static_cast<int>(i) % topo.racks;
          const int slot =
              (static_cast<int>(i) / topo.racks) % topo.hosts_per_rack;
          specs[i].sender_host = rack * topo.hosts_per_rack + slot;
        } else if (specs[i].sender_host >= hosts) {
          throw ParseError(0, "flow.host " +
                                  std::to_string(specs[i].sender_host) +
                                  " outside the fat_tree_pod's " +
                                  std::to_string(hosts) + " hosts");
        }
      }
      return specs;
    }

    case TopologyKind::kWorkload:
      return {};
  }
  return {};
}

}  // namespace

CompiledCell compile_scenario(const ScenarioDoc& doc) {
  CompiledCell cell;
  const TopologyDoc& topo = doc.topology;

  if (topo.kind == TopologyKind::kWorkload) {
    cell.is_workload = true;
    cell.open_loop.cca(doc.workload.cca)
        .mtu(doc.tcp.mtu_bytes)
        .bottleneck(topo.bottleneck)
        .load(doc.workload.load)
        .sender_hosts(doc.workload.hosts)
        .horizon(doc.workload.horizon)
        .seed(doc.seed)
        .sizes(doc.workload.sizes);
    return cell;
  }

  app::ScenarioBuilder& b = cell.scenario;
  b.config().tcp = doc.tcp;
  b.bottleneck(topo.bottleneck)
      .link_delay(topo.link_delay)
      .switch_queue(topo.queue)
      .ecn_threshold(topo.ecn_threshold)
      .aqm(doc.aqm)
      .nic_ports(topo.nic_ports)
      .drr_bottleneck(topo.drr)
      .stress_cores(doc.stress_cores)
      .meter_receiver(doc.meter_receiver)
      .work_jitter(doc.work_jitter)
      .deadline(doc.deadline)
      .audit_interval(doc.audit_interval)
      .power(doc.energy.power)
      .work(doc.energy.work)
      .faults(doc.faults)
      .seed(doc.seed);

  for (app::FlowSpec& spec : lower_flows(doc)) {
    b.add_flow(std::move(spec));
  }
  if (b.flows().empty()) {
    throw ParseError(0, "scenario compiles to zero flows");
  }
  return cell;
}

}  // namespace greencc::dsl
