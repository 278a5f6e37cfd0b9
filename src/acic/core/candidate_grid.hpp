// The default candidate grid (cloud::IoConfig::enumerate_candidates(),
// 56 configurations) and everything a query derives from it, built
// once: each row's label, a label index, each row's encoded system
// columns, the rows of each filesystem, and the rows grouped by value
// per system dimension.  The filesystem table behind the grid is
// immutable, so the grid is too: built on first use, then read by any
// number of threads without a lock.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "acic/cloud/ioconfig.hpp"
#include "acic/core/paramspace.hpp"

namespace acic::core {

class CandidateGrid {
 public:
  static const CandidateGrid& get();

  CandidateGrid(const CandidateGrid&) = delete;
  CandidateGrid& operator=(const CandidateGrid&) = delete;

  /// The grid itself: the vector enumerate_candidates() returns.
  const std::vector<cloud::IoConfig>& configs() const { return configs_; }
  std::size_t size() const { return configs_.size(); }
  const std::string& label(std::size_t row) const { return labels_[row]; }

  /// Row of the first candidate labelled `label`.
  std::optional<std::size_t> find(std::string_view label) const;

  /// The row's kNumSystemDims encoded system columns
  /// (ParamSpace::encode_system).
  std::span<const double> system_columns(std::size_t row) const {
    return {system_columns_.data() + row * kNumSystemDims, kNumSystemDims};
  }

  /// Rows on filesystem `fs`, ascending; empty when the grid has none.
  std::span<const std::size_t> rows_on(cloud::FileSystemType fs) const;

  /// Rows grouped by their value of system dimension `dim`: groups in
  /// ascending value order, rows ascending within each group.
  const std::vector<std::vector<std::size_t>>& value_groups(Dim dim) const {
    return value_groups_[static_cast<std::size_t>(dim)];
  }

 private:
  CandidateGrid();

  const std::vector<cloud::IoConfig>& configs_;
  std::vector<std::string> labels_;
  std::unordered_map<std::string_view, std::size_t> row_of_label_;
  std::vector<double> system_columns_;  ///< size() x kNumSystemDims
  std::vector<std::pair<cloud::FileSystemType, std::vector<std::size_t>>>
      rows_by_fs_;
  std::vector<std::vector<std::size_t>> value_groups_[kNumSystemDims];
};

}  // namespace acic::core
