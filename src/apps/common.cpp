#include "apps/common.h"

#include "apps/amgmk.h"
#include "apps/pagerank.h"
#include "apps/rsbench.h"
#include "apps/xsbench.h"

namespace dgc::apps {

std::vector<std::string> ExtractOptionArgs(int argc, dgcf::DeviceArgv argv) {
  std::vector<std::string> out;
  out.reserve(argc > 0 ? std::size_t(argc) - 1 : 0);
  for (int i = 1; i < argc; ++i) {
    out.push_back(dgcf::DeviceLibc::ToString(argv[i]));
  }
  return out;
}

std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t SharedContentKey(std::string_view app,
                               std::initializer_list<std::uint64_t> fields) {
  std::uint64_t h = kFnvOffset;
  for (const char c : app) h = HashCombine(h, std::uint64_t(std::uint8_t(c)));
  for (const std::uint64_t f : fields) h = HashCombine(h, f);
  return h;
}

void RegisterAllApps() {
  RegisterXsbench();
  RegisterRsbench();
  RegisterAmgmk();
  RegisterPagerank();
}

}  // namespace dgc::apps
