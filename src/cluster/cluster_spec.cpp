#include "cluster/cluster_spec.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace abg::cluster {

int ClusterSpec::total_processors() const {
  int total = 0;
  for (const sim::ClusterMachine& machine : machines) {
    total += machine.processors;
  }
  return total;
}

ClusterSpec ClusterSpec::resolve(const sim::SimConfig& config,
                                 const char* context) {
  const std::string prefix(context);
  if (config.cluster.machines < 1) {
    throw std::invalid_argument(prefix + ": cluster machines must be >= 1");
  }
  ClusterSpec spec;
  const auto count = static_cast<std::size_t>(config.cluster.machines);
  if (config.cluster.shapes.empty()) {
    sim::ClusterMachine uniform;
    uniform.processors = config.processors;
    spec.machines.assign(count, uniform);
    return spec;
  }
  if (config.cluster.shapes.size() != count) {
    throw std::invalid_argument(
        prefix + ": cluster shape list has " +
        std::to_string(config.cluster.shapes.size()) + " entries for " +
        std::to_string(config.cluster.machines) + " machines");
  }
  for (std::size_t m = 0; m < count; ++m) {
    const sim::ClusterMachine& machine = config.cluster.shapes[m];
    const std::string where = prefix + ": cluster machine " +
                              std::to_string(m);
    if (machine.processors < 1) {
      throw std::invalid_argument(where + ": processors must be >= 1");
    }
    int region_sum = 0;
    for (const sim::ClusterRegion& region : machine.regions) {
      if (region.processors < 1) {
        throw std::invalid_argument(where +
                                    ": region processors must be >= 1");
      }
      if (!(region.cost_multiplier > 0.0)) {
        throw std::invalid_argument(where +
                                    ": region cost multiplier must be > 0");
      }
      region_sum += region.processors;
    }
    if (!machine.regions.empty() && region_sum != machine.processors) {
      throw std::invalid_argument(
          where + ": regions cover " + std::to_string(region_sum) +
          " processors but the machine has " +
          std::to_string(machine.processors));
    }
  }
  spec.machines = config.cluster.shapes;
  return spec;
}

}  // namespace abg::cluster
