#ifndef IDREPAIR_GRAPH_TRANSITION_GRAPH_H_
#define IDREPAIR_GRAPH_TRANSITION_GRAPH_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/span.h"
#include "common/status.h"
#include "graph/types.h"

namespace idrepair {

/// A transition graph Gt = (V, E, I, O): a directed graph whose vertices are
/// capture locations, whose edges are feasible direct moves, and whose
/// designated entrance (I) / exit (O) locations bound where entities may
/// enter or leave the area of interest (Definition 2.1 of the paper).
///
/// A location sequence is a *valid path* iff it starts at an entrance,
/// follows edges, and ends at an exit (Definition 2.2).
///
/// A plain value: it holds only the adjacency data, so it copies and moves
/// like one, and concurrent const readers need no preparation. State derived
/// from it (hop-bounded reachability, hops to an exit) lives with its
/// consumers — graph/reachability.h.
class TransitionGraph {
 public:
  TransitionGraph() = default;

  /// Adds a location with a unique display name and returns its dense id.
  /// Adding a name that already exists returns the existing id.
  LocationId AddLocation(std::string name);

  /// Adds the directed edge (from, to). Idempotent. Self-loops are permitted
  /// (a device may capture the same entity twice in place) but none of the
  /// bundled generators create them.
  Status AddEdge(LocationId from, LocationId to);

  /// Name-based convenience overload; both locations must already exist.
  Status AddEdge(std::string_view from, std::string_view to);

  /// Marks a location as an entrance (member of I).
  Status MarkEntrance(LocationId loc);
  /// Marks a location as an exit (member of O).
  Status MarkExit(LocationId loc);

  size_t num_locations() const { return out_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// True iff the directed edge (from, to) exists. Scans the out-neighbors
  /// of `from` (transition graphs are sparse: road networks have small
  /// out-degree).
  bool HasEdge(LocationId from, LocationId to) const;

  /// Out-neighbors of `loc` in insertion order. View into graph-owned
  /// storage; valid until the next AddLocation/AddEdge (DESIGN.md §9).
  Span<const LocationId> OutNeighbors(LocationId loc) const {
    return Span<const LocationId>(out_[loc]);
  }
  /// In-neighbors of `loc` in insertion order (same lifetime rule).
  Span<const LocationId> InNeighbors(LocationId loc) const {
    return Span<const LocationId>(in_[loc]);
  }

  bool IsEntrance(LocationId loc) const { return is_entrance_[loc]; }
  bool IsExit(LocationId loc) const { return is_exit_[loc]; }

  /// All entrance locations, in marking order.
  const std::vector<LocationId>& entrances() const { return entrances_; }
  /// All exit locations, in marking order.
  const std::vector<LocationId>& exits() const { return exits_; }

  /// Display name of a location id.
  const std::string& LocationName(LocationId loc) const {
    return names_[loc];
  }

  /// Looks up a location by display name.
  std::optional<LocationId> FindLocation(std::string_view name) const;

  /// True iff `path` is a valid path w.r.t. this graph: non-empty, starts at
  /// an entrance, every consecutive pair is an edge, ends at an exit
  /// (Definition 2.2).
  bool IsValidPath(std::span<const LocationId> path) const;

  /// Checks structural sanity: at least one location, entrance and exit sets
  /// non-empty.
  Status Validate() const;

  /// The dense edge-membership matrix, bit (from * n + to) set iff the edge
  /// exists. A pure function of the edge set — the snapshot format stores
  /// it as its own section and cross-checks it against the matrix rebuilt
  /// from the edge list on load, catching payload tampering that a file
  /// checksum alone cannot attribute. Built from the adjacency lists on
  /// every call, in O(n^2 / 64 + E).
  DynamicBitset EdgeMatrix() const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, LocationId> name_to_id_;
  std::vector<std::vector<LocationId>> out_;
  std::vector<std::vector<LocationId>> in_;
  std::vector<bool> is_entrance_;
  std::vector<bool> is_exit_;
  std::vector<LocationId> entrances_;
  std::vector<LocationId> exits_;
  size_t num_edges_ = 0;
};

}  // namespace idrepair

#endif  // IDREPAIR_GRAPH_TRANSITION_GRAPH_H_
