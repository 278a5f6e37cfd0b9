#include "acic/plugin/substrates.hpp"

#include <algorithm>
#include <cmath>

namespace acic::plugin {

bool FilesystemPlugin::matches(std::string_view spelling) const {
  if (spelling == name) return true;
  return std::find(aliases.begin(), aliases.end(), spelling) != aliases.end();
}

void FilesystemPlugin::configure(cloud::IoConfig& config, int io_servers,
                                 Bytes stripe) const {
  config.fs = type;
  if (single_server) {
    config.io_servers = 1;
    config.stripe_size = 0.0;
  } else {
    config.io_servers = io_servers;
    config.stripe_size = stripe;
  }
}

const Registry<FilesystemPlugin>& filesystems() {
  static const Registry<FilesystemPlugin> table(
      Kind::kFilesystem,
      {nfs_filesystem(), pvfs2_filesystem(), lustre_filesystem()});
  return table;
}

const FilesystemPlugin& filesystem_for(cloud::FileSystemType type) {
  for (const FilesystemPlugin& p : filesystems().all()) {
    if (p.type == type) return p;
  }
  throw PluginError(ErrorCode::kUnknownName, Kind::kFilesystem,
                    "enum#" + std::to_string(static_cast<int>(type)),
                    filesystems().names());
}

const FilesystemPlugin& filesystem_for_level(double level) {
  const FilesystemPlugin* best = nullptr;
  double best_distance = 0.0;
  for (const FilesystemPlugin& p : filesystems().all()) {
    const double distance = std::abs(p.level() - level);
    if (best == nullptr || distance < best_distance) {
      best = &p;
      best_distance = distance;
    }
  }
  if (best == nullptr) {
    throw PluginError(ErrorCode::kUnknownName, Kind::kFilesystem,
                      "level#" + std::to_string(level), {});
  }
  return *best;
}

const FilesystemPlugin& filesystem_named(std::string_view spelling) {
  for (const FilesystemPlugin& p : filesystems().all()) {
    if (p.matches(spelling)) return p;
  }
  throw PluginError(ErrorCode::kUnknownName, Kind::kFilesystem,
                    std::string(spelling), filesystems().names());
}

const std::vector<const FilesystemPlugin*>& default_grid_filesystems() {
  static const std::vector<const FilesystemPlugin*> grid = [] {
    std::vector<const FilesystemPlugin*> out;
    for (const FilesystemPlugin& p : filesystems().all()) {
      if (p.in_default_grid) out.push_back(&p);
    }
    std::sort(out.begin(), out.end(),
              [](const FilesystemPlugin* a, const FilesystemPlugin* b) {
                return a->type < b->type;
              });
    return out;
  }();
  return grid;
}

const Registry<LearnerPlugin>& learners() {
  static const Registry<LearnerPlugin> table(
      Kind::kLearner,
      {cart_learner(), forest_learner(), knn_learner(), linear_learner()});
  return table;
}

std::unique_ptr<ml::Learner> make_learner(std::string_view name) {
  return learners().lookup(name).make();
}

const Registry<FaultModelPlugin>& fault_models() {
  static const Registry<FaultModelPlugin> table(Kind::kFaultModel,
                                                fault_presets());
  return table;
}

namespace {

template <class Plugin>
void append_inventory(const Registry<Plugin>& table,
                      std::vector<PluginInfo>& out) {
  for (const Plugin& p : table.all()) out.push_back({table.kind(), p.name});
}

}  // namespace

const std::vector<PluginInfo>& inventory() {
  static const std::vector<PluginInfo> rows = [] {
    std::vector<PluginInfo> out;
    append_inventory(filesystems(), out);
    append_inventory(learners(), out);
    append_inventory(fault_models(), out);
    return out;
  }();
  return rows;
}

}  // namespace acic::plugin
