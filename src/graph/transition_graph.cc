#include "graph/transition_graph.h"

#include <algorithm>
#include <utility>

namespace idrepair {

LocationId TransitionGraph::AddLocation(std::string name) {
  auto it = name_to_id_.find(name);
  if (it != name_to_id_.end()) return it->second;
  LocationId id = static_cast<LocationId>(names_.size());
  name_to_id_.emplace(name, id);
  names_.push_back(std::move(name));
  out_.emplace_back();
  in_.emplace_back();
  is_entrance_.push_back(false);
  is_exit_.push_back(false);
  return id;
}

Status TransitionGraph::AddEdge(LocationId from, LocationId to) {
  if (from >= num_locations() || to >= num_locations()) {
    return Status::InvalidArgument("AddEdge: location id out of range");
  }
  if (HasEdge(from, to)) return Status::OK();  // idempotent
  out_[from].push_back(to);
  in_[to].push_back(from);
  ++num_edges_;
  return Status::OK();
}

Status TransitionGraph::AddEdge(std::string_view from, std::string_view to) {
  auto f = FindLocation(from);
  auto t = FindLocation(to);
  if (!f || !t) {
    return Status::NotFound("AddEdge: unknown location name");
  }
  return AddEdge(*f, *t);
}

Status TransitionGraph::MarkEntrance(LocationId loc) {
  if (loc >= num_locations()) {
    return Status::InvalidArgument("MarkEntrance: location id out of range");
  }
  if (!is_entrance_[loc]) {
    is_entrance_[loc] = true;
    entrances_.push_back(loc);
  }
  return Status::OK();
}

Status TransitionGraph::MarkExit(LocationId loc) {
  if (loc >= num_locations()) {
    return Status::InvalidArgument("MarkExit: location id out of range");
  }
  if (!is_exit_[loc]) {
    is_exit_[loc] = true;
    exits_.push_back(loc);
  }
  return Status::OK();
}

bool TransitionGraph::HasEdge(LocationId from, LocationId to) const {
  if (from >= num_locations() || to >= num_locations()) return false;
  const std::vector<LocationId>& row = out_[from];
  return std::find(row.begin(), row.end(), to) != row.end();
}

DynamicBitset TransitionGraph::EdgeMatrix() const {
  size_t n = num_locations();
  DynamicBitset matrix(n * n);
  for (size_t u = 0; u < n; ++u) {
    for (LocationId v : out_[u]) matrix.Set(u * n + v);
  }
  return matrix;
}

std::optional<LocationId> TransitionGraph::FindLocation(
    std::string_view name) const {
  auto it = name_to_id_.find(std::string(name));
  if (it == name_to_id_.end()) return std::nullopt;
  return it->second;
}

bool TransitionGraph::IsValidPath(std::span<const LocationId> path) const {
  if (path.empty()) return false;
  if (path.front() >= num_locations() || !is_entrance_[path.front()]) {
    return false;
  }
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    if (!HasEdge(path[i], path[i + 1])) return false;
  }
  return path.back() < num_locations() && is_exit_[path.back()];
}

Status TransitionGraph::Validate() const {
  if (num_locations() == 0) {
    return Status::InvalidArgument("transition graph has no locations");
  }
  if (entrances_.empty()) {
    return Status::InvalidArgument("transition graph has no entrance");
  }
  if (exits_.empty()) {
    return Status::InvalidArgument("transition graph has no exit");
  }
  return Status::OK();
}

}  // namespace idrepair
