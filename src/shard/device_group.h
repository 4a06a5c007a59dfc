#ifndef GPL_SHARD_DEVICE_GROUP_H_
#define GPL_SHARD_DEVICE_GROUP_H_

#include <string>
#include <vector>

#include "sim/device.h"
#include "sim/link.h"

namespace gpl {

struct ExecOptions;

namespace shard {

/// A group of simulated devices executing one sharded query — homogeneous
/// (N copies of one DeviceSpec) or mixed — connected by one interconnect
/// link. Device i executes shard i; the link prices dimension broadcast and
/// partial-result shuffle (see model/exchange_model.h).
struct DeviceGroup {
  std::vector<sim::DeviceSpec> devices;
  sim::LinkSpec link;

  int size() const { return static_cast<int>(devices.size()); }

  /// N identical devices over `link`.
  static DeviceGroup Homogeneous(const sim::DeviceSpec& spec, int n,
                                 sim::LinkSpec link = {});

  /// The group a sharded `exec` runs on: `exec.device_list`, or
  /// `exec.shards` copies of `default_device`, over a link whose bandwidth
  /// is `exec.link_gbps` (0 keeps the sim::LinkSpec default). Engine and
  /// QueryService both derive their groups here, so they agree on the shape.
  static DeviceGroup ForExec(const ExecOptions& exec,
                             const sim::DeviceSpec& default_device);

  /// "amd x4 over pcie3" / "amd+nvidia over pcie3" (for banners and traces).
  std::string ToString() const;
};

}  // namespace shard
}  // namespace gpl

#endif  // GPL_SHARD_DEVICE_GROUP_H_
