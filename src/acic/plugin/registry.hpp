// Substrate registries (DESIGN.md §14).
//
// Every substrate axis ACIC ranks configurations across — file system,
// learner, fault-model preset — is a fixed table built once from an
// explicit list of seeds (plugin/substrates.cpp), and every consumer
// constructs through a typed lookup instead of branching on an enum.
//
// Contracts:
//
//  * Deterministic enumeration — a table holds its entries in
//    lexicographic name order, whatever order the seed list gives, so
//    inventories and protocol responses are reproducible.
//  * One identity per plugin — names are unique, and so is the `type`
//    member of plugin kinds that have one (filesystems: the enum value
//    every IoConfig and RunKey carries), so one plugin can never take
//    over another's configs.
//  * Typed errors, never aborts — a duplicate name or type while the
//    table is built, or an unknown lookup, throws PluginError (carrying
//    the error code, the plugin kind, the offending name and the
//    registered names), which the serving path converts into a protocol
//    "error ..." line.
//  * Immutable — a table never changes after construction, so lookups
//    take no lock and allocate nothing (a miss allocates its error), and
//    the references they hand out live as long as the table.
//
// The concrete plugin types for the three axes (FilesystemPlugin,
// LearnerPlugin, FaultModelPlugin) and their process tables live in
// plugin/substrates.hpp.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "acic/common/check.hpp"

namespace acic::plugin {

/// The three substrate axes a plugin can extend.
enum class Kind {
  kFilesystem,
  kLearner,
  kFaultModel,
};

const char* to_string(Kind kind);

enum class ErrorCode {
  kDuplicateName,  ///< two seeds share a name
  kUnknownName,    ///< lookup() of a name no seed has
  kDuplicateType,  ///< two seeds claim the same `type`
};

/// Typed registry failure.  The what() message lists the registered
/// names so a protocol client (or an operator reading a log line) can
/// immediately see what this binary actually serves.
class PluginError : public Error {
 public:
  PluginError(ErrorCode code, Kind kind, std::string name,
              std::vector<std::string> registered);

  ErrorCode code() const { return code_; }
  Kind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  const std::vector<std::string>& registered() const { return registered_; }

 private:
  ErrorCode code_;
  Kind kind_;
  std::string name_;
  std::vector<std::string> registered_;
};

/// Immutable name-sorted table of one plugin kind.  See the file comment
/// for the determinism/error/immutability contracts.
template <class Plugin>
class Registry {
 public:
  /// Builds the table from `plugins`, taken in the given order.  Throws
  /// PluginError (kDuplicateName) when a name repeats, or
  /// (kDuplicateType) when the plugin kind has a `type` member and an
  /// earlier plugin already claims that type; the error lists the names
  /// accepted before the offending entry.
  Registry(Kind kind, std::vector<Plugin> plugins) : kind_(kind) {
    entries_.reserve(plugins.size());
    for (Plugin& plugin : plugins) insert(std::move(plugin));
  }
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The plugin named `name`.  Throws PluginError (kUnknownName) listing
  /// every registered name on a miss.
  const Plugin& lookup(std::string_view name) const {
    const auto it = lower_bound(name);
    if (it == entries_.end() || it->name != name) {
      throw PluginError(ErrorCode::kUnknownName, kind_, std::string(name),
                        names());
    }
    return *it;
  }

  /// Every plugin in name order.
  std::span<const Plugin> all() const { return entries_; }

  /// Registered names, lexicographically sorted.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Plugin& plugin : entries_) out.push_back(plugin.name);
    return out;
  }

  std::size_t size() const { return entries_.size(); }
  Kind kind() const { return kind_; }

 private:
  typename std::vector<Plugin>::const_iterator lower_bound(
      std::string_view name) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const Plugin& p, std::string_view n) { return p.name < n; });
  }

  void insert(Plugin plugin) {
    ACIC_EXPECTS(!plugin.name.empty(), "plugin needs a non-empty name");
    const auto at = lower_bound(plugin.name);
    if (at != entries_.end() && at->name == plugin.name) {
      throw PluginError(ErrorCode::kDuplicateName, kind_, plugin.name,
                        names());
    }
    if constexpr (requires { plugin.type; }) {
      for (const Plugin& existing : entries_) {
        if (existing.type == plugin.type) {
          throw PluginError(ErrorCode::kDuplicateType, kind_, plugin.name,
                            names());
        }
      }
    }
    entries_.insert(at, std::move(plugin));
  }

  const Kind kind_;
  std::vector<Plugin> entries_;  // sorted by name
};

}  // namespace acic::plugin
