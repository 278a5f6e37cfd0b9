#include "acic/plugin/substrates.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

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

Registry<FilesystemPlugin>& filesystems() {
  static Registry<FilesystemPlugin> registry(Kind::kFilesystem);
  return registry;
}

const FilesystemPlugin& filesystem_for(cloud::FileSystemType type) {
  for (const FilesystemPlugin* p : filesystems().all()) {
    if (p->type == type) return *p;
  }
  throw PluginError(ErrorCode::kUnknownName, Kind::kFilesystem,
                    "enum#" + std::to_string(static_cast<int>(type)),
                    filesystems().names());
}

const FilesystemPlugin& filesystem_for_level(double level) {
  const FilesystemPlugin* best = nullptr;
  double best_distance = 0.0;
  for (const FilesystemPlugin* p : filesystems().all()) {
    const double distance = std::abs(p->level() - level);
    if (best == nullptr || distance < best_distance) {
      best = p;
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
  detail::count_lookup();
  for (const FilesystemPlugin* p : filesystems().all()) {
    if (p->matches(spelling)) return *p;
  }
  detail::count_lookup_miss();
  throw PluginError(ErrorCode::kUnknownName, Kind::kFilesystem,
                    std::string(spelling), filesystems().names());
}

std::vector<const FilesystemPlugin*> default_grid_filesystems() {
  std::vector<const FilesystemPlugin*> grid;
  for (const FilesystemPlugin* p : filesystems().all()) {
    if (p->in_default_grid) grid.push_back(p);
  }
  std::sort(grid.begin(), grid.end(),
            [](const FilesystemPlugin* a, const FilesystemPlugin* b) {
              return a->type < b->type;
            });
  return grid;
}

Registry<LearnerPlugin>& learners() {
  static Registry<LearnerPlugin> registry(Kind::kLearner);
  return registry;
}

std::unique_ptr<ml::Learner> make_learner(std::string_view name) {
  return learners().lookup(name).make();
}

Registry<FaultModelPlugin>& fault_models() {
  static Registry<FaultModelPlugin> registry(Kind::kFaultModel);
  return registry;
}

Registry<PricingPlugin>& pricings() {
  static Registry<PricingPlugin> registry(Kind::kPricing);
  return registry;
}

namespace {

template <class Plugin>
void append_inventory(const Registry<Plugin>& registry,
                      std::vector<PluginInfo>& out) {
  for (const Plugin* p : registry.all()) {
    PluginInfo info;
    info.kind = registry.kind();
    info.name = p->name;
    info.knob_count = p->schema.knobs.size();
    info.schema_version = p->schema.version;
    std::ostringstream os;
    os << to_string(registry.kind()) << " " << p->name
       << " knobs=" << p->schema.knobs.size() << " schema=v"
       << p->schema.version;
    info.summary = os.str();
    out.push_back(std::move(info));
  }
}

}  // namespace

std::vector<PluginInfo> inventory() {
  std::vector<PluginInfo> out;
  append_inventory(filesystems(), out);
  append_inventory(learners(), out);
  append_inventory(fault_models(), out);
  append_inventory(pricings(), out);
  return out;
}

}  // namespace acic::plugin
