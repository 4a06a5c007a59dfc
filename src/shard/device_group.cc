#include "shard/device_group.h"

#include "engine/exec_options.h"

namespace gpl {
namespace shard {

DeviceGroup DeviceGroup::Homogeneous(const sim::DeviceSpec& spec, int n,
                                     sim::LinkSpec link) {
  DeviceGroup group;
  group.devices.assign(static_cast<size_t>(n < 1 ? 1 : n), spec);
  group.link = std::move(link);
  return group;
}

DeviceGroup DeviceGroup::ForExec(const ExecOptions& exec,
                                 const sim::DeviceSpec& default_device) {
  DeviceGroup group;
  group.devices = exec.device_list;
  if (group.devices.empty()) {
    group.devices.assign(static_cast<size_t>(exec.shards), default_device);
  }
  if (exec.link_gbps > 0.0) group.link.gbytes_per_sec = exec.link_gbps;
  return group;
}

std::string DeviceGroup::ToString() const {
  if (devices.empty()) return "(empty group)";
  bool homogeneous = true;
  for (const sim::DeviceSpec& d : devices) {
    if (d.name != devices.front().name) {
      homogeneous = false;
      break;
    }
  }
  std::string out;
  if (homogeneous) {
    out = devices.front().name + " x" + std::to_string(devices.size());
  } else {
    for (size_t i = 0; i < devices.size(); ++i) {
      if (i > 0) out += "+";
      out += devices[i].name;
    }
  }
  out += " over " + link.name;
  return out;
}

}  // namespace shard
}  // namespace gpl
