// The three substrate axes behind the plugin registry (DESIGN.md §14):
// concrete plugin types, the process-wide tables holding them, and the
// enum→plugin bridges from IoConfig::fs (cloud::FileSystemType).
//
// Each table is built once from the explicit seed list in
// substrates.cpp; each seed is a plain function beside its substrate
// (fs/nfs.cpp, ml/cart.cpp, cloud/failure.cpp, ...).  Adding a
// substrate is one such function plus its line in that list (see the
// README "Adding a substrate"): the candidate enumeration,
// parameter-space grid, service inventory and protocol name parsing all
// pick it up from the table.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "acic/cloud/failure.hpp"
#include "acic/cloud/ioconfig.hpp"
#include "acic/fs/filesystem.hpp"
#include "acic/ml/dataset.hpp"
#include "acic/plugin/registry.hpp"

namespace acic::plugin {

// ---------------------------------------------------------------------
// Filesystems
// ---------------------------------------------------------------------

/// A shared/parallel file-system substrate.  The structural flags
/// (single_server, in_default_grid) plus the server and stripe grids are
/// what used to be hard-wired `switch (config.fs)` logic in
/// ioconfig.cpp, paramspace.cpp and filesystem.cpp.
struct FilesystemPlugin {
  /// Canonical lowercase name ("nfs", "pvfs2", "lustre") — the table
  /// key and the protocol spelling.
  std::string name;
  /// Label prefix for IoConfig::label(), e.g. "pvfs" in "pvfs.4.D.eph".
  std::string label_stem;
  /// Additional accepted spellings for filesystem_named(), e.g. the
  /// display spelling "PVFS2".
  std::vector<std::string> aliases;
  /// The filesystem's one numeric identity: IoConfig::fs, the integer
  /// every RunKey hashes, and the kFileSystem paramspace level (the CART
  /// feature; 0 = NFS, 1 = PVFS2, 2 = Lustre for the seeds).  Unique per
  /// table: a second plugin claiming a type is rejected.
  cloud::FileSystemType type = cloud::FileSystemType::kNfs;
  /// NFS-style topology: exactly one server, no striping.  Drives the
  /// validity rules, label shape, and RunKey stripe canonicalization.
  bool single_server = false;
  /// Whether enumerate_candidates() includes this substrate (the
  /// paper's Table 1 grid is NFS + PVFS2; Lustre is the extension).
  bool in_default_grid = true;
  /// I/O server counts the substrate is sampled over (ascending).
  std::vector<int> io_servers;
  /// Stripe sizes it is sampled over (ascending; empty when single-server).
  std::vector<Bytes> stripe_sizes;
  /// Instantiate the simulation model for a provisioned cluster.
  std::unique_ptr<fs::FileSystem> (*make)(cloud::ClusterModel&,
                                          const fs::FsTuning&) = nullptr;

  /// True when `spelling` is the name or an alias.
  bool matches(std::string_view spelling) const;

  /// The kFileSystem paramspace level: `type`'s integer.
  double level() const { return static_cast<double>(type); }

  /// Point `config` at this substrate, applying the structural rules:
  /// a single-server system forces one server and no stripe; a striped
  /// one takes the given server count and stripe size.
  void configure(cloud::IoConfig& config, int io_servers = 1,
                 Bytes stripe = 4.0 * MiB) const;
};

/// Process-wide filesystem table.
const Registry<FilesystemPlugin>& filesystems();

/// Enum→plugin bridge: the plugin with this `type`.
const FilesystemPlugin& filesystem_for(cloud::FileSystemType type);

/// Paramspace-level→plugin bridge: nearest registered level() (the
/// same snapping rule ParamSpace::repaired applies to every dimension).
const FilesystemPlugin& filesystem_for_level(double level);

/// Name/alias→plugin parse; throws PluginError listing the registered
/// names on a miss (the typed error behind the service's fs= key).
const FilesystemPlugin& filesystem_named(std::string_view spelling);

/// Default-grid substrates in level() order — the iteration order of
/// IoConfig::enumerate_candidates(), which must stay byte-stable.
const std::vector<const FilesystemPlugin*>& default_grid_filesystems();

// ---------------------------------------------------------------------
// Learners
// ---------------------------------------------------------------------

struct LearnerPlugin {
  /// Canonical lowercase name: "cart", "forest", "knn", "linear".
  std::string name;
  /// Construct a fresh, unfitted learner.
  std::unique_ptr<ml::Learner> (*make)() = nullptr;
};

/// Process-wide learner table.
const Registry<LearnerPlugin>& learners();

/// Construct the named learner; throws PluginError listing registered
/// learner names on a miss.
std::unique_ptr<ml::Learner> make_learner(std::string_view name);

// ---------------------------------------------------------------------
// Fault-model presets
// ---------------------------------------------------------------------

/// A named chaos preset: a ready-to-use cloud::FaultModel.  Presets
/// are data, not factories — the injector consumes the model directly.
struct FaultModelPlugin {
  std::string name;
  cloud::FaultModel model;
};

/// Process-wide fault-preset table.
const Registry<FaultModelPlugin>& fault_models();

// ---------------------------------------------------------------------
// Seeds, each defined beside its substrate
// ---------------------------------------------------------------------

FilesystemPlugin nfs_filesystem();              // fs/nfs.cpp
FilesystemPlugin pvfs2_filesystem();            // fs/pvfs2.cpp
FilesystemPlugin lustre_filesystem();           // fs/lustre.cpp
LearnerPlugin cart_learner();                   // ml/cart.cpp
LearnerPlugin forest_learner();                 // ml/forest.cpp
LearnerPlugin knn_learner();                    // ml/knn.cpp
LearnerPlugin linear_learner();                 // ml/knn.cpp
std::vector<FaultModelPlugin> fault_presets();  // cloud/failure.cpp

// ---------------------------------------------------------------------
// Inventory
// ---------------------------------------------------------------------

/// One row of the cross-axis inventory (the `plugins` and `stats` verbs
/// and acic_serve --help), rendered as "<kind> <name>".
struct PluginInfo {
  Kind kind = Kind::kFilesystem;
  std::string name;
};

/// Every plugin across the three axes, kind-major then name-sorted.
const std::vector<PluginInfo>& inventory();

}  // namespace acic::plugin
