#include "dgcf/argv.h"

#include <cstring>

#include "support/log.h"

namespace dgc::dgcf {

StatusOr<ArgvBlock> ArgvBlock::Build(
    sim::Device& device,
    const std::vector<std::vector<std::string>>& per_instance_args) {
  if (per_instance_args.empty()) {
    return Status(ErrorCode::kInvalidArgument, "no instances");
  }
  std::uint64_t total = 0;
  for (const auto& args : per_instance_args) {
    if (args.empty()) {
      return Status(ErrorCode::kInvalidArgument,
                    "an instance needs at least argv[0]");
    }
    for (const auto& arg : args) total += arg.size() + 1;
  }

  ArgvBlock block;
  block.device_ = &device;
  DGC_ASSIGN_OR_RETURN(block.cache_, device.Malloc(total));

  // Fill host-side, then charge one mapping transfer (map(to:) of the
  // cache), exactly like the loader's bulk argument mapping.
  std::uint64_t offset = 0;
  char* base = reinterpret_cast<char*>(block.cache_.host);
  for (const auto& args : per_instance_args) {
    auto& row = block.argv_.emplace_back();
    row.reserve(args.size());
    for (const auto& arg : args) {
      std::memcpy(base + offset, arg.c_str(), arg.size() + 1);
      row.push_back(sim::DevicePtr<char>{block.cache_.addr + offset,
                                         base + offset});
      offset += arg.size() + 1;
    }
    block.argc_.push_back(int(args.size()));
  }
  block.transfer_cycles_ = sim::TransferCycles(device.spec(), total);
  return block;
}

ArgvBlock::ArgvBlock(ArgvBlock&& o) noexcept
    : device_(std::exchange(o.device_, nullptr)),
      cache_(std::exchange(o.cache_, {})),
      argc_(std::move(o.argc_)),
      argv_(std::move(o.argv_)),
      transfer_cycles_(o.transfer_cycles_) {}

ArgvBlock::~ArgvBlock() {
  if (device_ != nullptr && cache_.host != nullptr) {
    const Status s = device_->Free(cache_.addr);
    if (!s.ok()) DGC_LOG(kError) << "ArgvBlock teardown: " << s.ToString();
  }
}

}  // namespace dgc::dgcf
