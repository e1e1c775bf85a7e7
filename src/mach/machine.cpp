#include "mach/machine.h"

#include <algorithm>

namespace xhc::mach {

std::uint64_t AllocRegistry::insert(void* p, std::size_t bytes,
                                    int owner_rank) {
  std::lock_guard<std::mutex> lock(mu_);
  Block b;
  b.base = static_cast<std::byte*>(p);
  b.bytes = bytes;
  b.owner_rank = owner_rank;
  b.id = next_id_++;
  blocks_[p] = b;
  return b.id;
}

void AllocRegistry::erase(void* p) {
  std::lock_guard<std::mutex> lock(mu_);
  blocks_.erase(p);
}

const AllocRegistry::Block* AllocRegistry::find(const void* p) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.upper_bound(p);
  if (it == blocks_.begin()) return nullptr;
  --it;
  const Block& b = it->second;
  const auto* addr = static_cast<const std::byte*>(p);
  if (addr >= b.base && addr < b.base + b.bytes) return &b;
  return nullptr;
}

void Machine::attach(Probe* p) {
  if (std::count(probes_.begin(), probes_.end(), p) == 0) probes_.push_back(p);
}

void Machine::detach(Probe* p) {
  probes_.erase(std::remove(probes_.begin(), probes_.end(), p),
                probes_.end());
}

}  // namespace xhc::mach
