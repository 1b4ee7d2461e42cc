#include "serve/registry.h"

#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace fieldswap {
namespace serve {

std::string TenantQuota::Validate() const {
  if (queue_capacity < 1) {
    return "TenantQuota.queue_capacity is " + std::to_string(queue_capacity) +
           "; it must be >= 1 (default 64)";
  }
  if (batch_quantum < 1) {
    return "TenantQuota.batch_quantum is " + std::to_string(batch_quantum) +
           "; it must be >= 1 (default 16)";
  }
  return "";
}

uint64_t ModelRegistry::Publish(const std::string& tenant,
                                std::shared_ptr<const ModelSnapshot> snapshot) {
  FS_CHECK(snapshot != nullptr)
      << "ModelRegistry::Publish(" << tenant << ") needs a snapshot";
  std::lock_guard<util::OrderedMutex> lock(mu_);
  TenantState& state = tenants_[tenant];
  PublishedVersion entry;
  entry.version = state.next_version++;
  entry.snapshot = std::move(snapshot);
  state.lineage.push_back(std::move(entry));
  state.active_index = state.lineage.size() - 1;
  obs::CounterAdd("fieldswap.serve.tenant.publishes");
  obs::GaugeSet("fieldswap.serve.tenant.count",
                static_cast<double>(tenants_.size()));
  return state.lineage.back().version;
}

bool ModelRegistry::Rollback(const std::string& tenant, uint64_t version) {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return false;
  TenantState& state = it->second;
  for (size_t i = 0; i < state.lineage.size(); ++i) {
    if (state.lineage[i].version == version) {
      state.active_index = i;
      obs::CounterAdd("fieldswap.serve.tenant.rollbacks");
      return true;
    }
  }
  return false;
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Active(
    const std::string& tenant) const {
  return ActiveEntry(tenant).snapshot;
}

uint64_t ModelRegistry::ActiveVersion(const std::string& tenant) const {
  return ActiveEntry(tenant).version;
}

PublishedVersion ModelRegistry::ActiveEntry(const std::string& tenant) const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.lineage.empty()) return {};
  return it->second.lineage[it->second.active_index];
}

std::vector<PublishedVersion> ModelRegistry::Lineage(
    const std::string& tenant) const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return {};
  return it->second.lineage;
}

std::vector<std::string> ModelRegistry::Tenants() const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) {
    if (!state.lineage.empty()) names.push_back(name);
  }
  return names;
}

bool ModelRegistry::Has(const std::string& tenant) const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it != tenants_.end() && !it->second.lineage.empty();
}

void ModelRegistry::SetQuota(const std::string& tenant, TenantQuota quota) {
  std::string error = quota.Validate();
  FS_CHECK(error.empty()) << error;
  std::lock_guard<util::OrderedMutex> lock(mu_);
  tenants_[tenant].quota = quota;
}

TenantQuota ModelRegistry::Quota(const std::string& tenant) const {
  std::lock_guard<util::OrderedMutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return TenantQuota{};
  return it->second.quota;
}

}  // namespace serve
}  // namespace fieldswap
