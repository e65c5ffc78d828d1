#include "server/registry.h"

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <utility>

namespace idrepair {
namespace server {

namespace fs = std::filesystem;

Status GraphRegistry::ValidateName(const std::string& name) {
  if (name.empty() || name.size() > 128) {
    return Status::InvalidArgument(
        "registry name must be 1..128 characters");
  }
  if (name.front() == '.') {
    return Status::InvalidArgument("registry name must not start with '.'");
  }
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          "registry name '" + name +
          "' contains characters outside [A-Za-z0-9._-]");
    }
  }
  return Status::OK();
}

std::string GraphRegistry::SnapshotFileName(const std::string& name) {
  return name + ".idrs";
}

Result<uint64_t> GraphRegistry::Register(
    std::string name, TransitionGraph graph, RepairOptions options,
    std::vector<TrackingRecord> corpus_records) {
  IDREPAIR_RETURN_NOT_OK(ValidateName(name));
  std::unique_lock lock(mu_);
  uint64_t version = 1;
  auto it = entries_.find(name);
  if (it != entries_.end()) version = it->second->version + 1;
  auto bundle = MakeBundle(name, version, std::move(graph), options,
                           std::move(corpus_records));
  IDREPAIR_RETURN_NOT_OK(bundle.status());
  entries_[std::move(name)] = std::move(bundle).value();
  return version;
}

Status GraphRegistry::Insert(BundlePtr bundle) {
  if (bundle == nullptr) {
    return Status::InvalidArgument("cannot insert a null bundle");
  }
  IDREPAIR_RETURN_NOT_OK(ValidateName(bundle->name));
  std::unique_lock lock(mu_);
  auto it = entries_.find(bundle->name);
  if (it != entries_.end() && it->second->version >= bundle->version) {
    return Status::OK();  // keep-newest: stale snapshots never roll back
  }
  entries_[bundle->name] = std::move(bundle);
  return Status::OK();
}

Result<BundlePtr> GraphRegistry::Acquire(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no registered graph named '" + name + "'");
  }
  return it->second;
}

std::vector<GraphRegistry::EntryInfo> GraphRegistry::List() const {
  std::shared_lock lock(mu_);
  std::vector<EntryInfo> infos;
  infos.reserve(entries_.size());
  for (const auto& [name, bundle] : entries_) {
    EntryInfo info;
    info.name = name;
    info.version = bundle->version;
    info.num_locations = bundle->graph.num_locations();
    info.num_edges = bundle->graph.num_edges();
    info.corpus_trajectories =
        bundle->corpus != nullptr ? bundle->corpus->size() : 0;
    info.use_count = bundle.use_count() - 1;  // exclude the registry's own
    infos.push_back(std::move(info));
  }
  return infos;
}

size_t GraphRegistry::size() const {
  std::shared_lock lock(mu_);
  return entries_.size();
}

Result<size_t> GraphRegistry::SaveSnapshots(const std::string& dir) const {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create snapshot dir '" + dir +
                           "': " + ec.message());
  }
  // Pin the current epoch of every entry, then write off-lock: snapshot
  // I/O must never block Acquire().
  std::vector<BundlePtr> bundles;
  {
    std::shared_lock lock(mu_);
    bundles.reserve(entries_.size());
    for (const auto& [name, bundle] : entries_) bundles.push_back(bundle);
  }
  for (const BundlePtr& bundle : bundles) {
    fs::path path = fs::path(dir) / SnapshotFileName(bundle->name);
    IDREPAIR_RETURN_NOT_OK(WriteSnapshotFile(path.string(), *bundle));
  }
  return bundles.size();
}

Result<size_t> GraphRegistry::LoadDir(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::IoError("snapshot dir '" + dir + "' is not a directory");
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".idrs") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::IoError("cannot list snapshot dir '" + dir +
                           "': " + ec.message());
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    auto bundle = ReadSnapshotFile(path);
    IDREPAIR_RETURN_NOT_OK(bundle.status());
    IDREPAIR_RETURN_NOT_OK(Insert(std::move(bundle).value()));
  }
  return paths.size();
}

}  // namespace server
}  // namespace idrepair
