#include "acic/core/candidate_grid.hpp"

#include <algorithm>
#include <map>

namespace acic::core {

const CandidateGrid& CandidateGrid::get() {
  static const CandidateGrid grid;
  return grid;
}

CandidateGrid::CandidateGrid()
    : configs_(cloud::IoConfig::enumerate_candidates()) {
  labels_.reserve(size());
  system_columns_.resize(size() * kNumSystemDims);
  Point p{};
  for (std::size_t row = 0; row < size(); ++row) {
    const cloud::IoConfig& c = configs_[row];
    labels_.push_back(c.label());
    ParamSpace::encode_system(c, p.data());
    std::copy(p.begin(), p.begin() + kNumSystemDims,
              system_columns_.begin() +
                  static_cast<std::ptrdiff_t>(row * kNumSystemDims));
    auto fs = std::find_if(rows_by_fs_.begin(), rows_by_fs_.end(),
                           [&c](const auto& e) { return e.first == c.fs; });
    if (fs == rows_by_fs_.end()) {
      fs = rows_by_fs_.insert(rows_by_fs_.end(), {c.fs, {}});
    }
    fs->second.push_back(row);
  }
  // Labels are indexed after the loop: views into labels_ must not move.
  // emplace keeps the first row under a repeated label.
  for (std::size_t row = 0; row < size(); ++row) {
    row_of_label_.emplace(labels_[row], row);
  }
  for (int d = 0; d < kNumSystemDims; ++d) {
    std::map<double, std::vector<std::size_t>> by_value;
    for (std::size_t row = 0; row < size(); ++row) {
      by_value[system_columns(row)[static_cast<std::size_t>(d)]].push_back(
          row);
    }
    auto& groups = value_groups_[d];
    for (auto& [value, rows] : by_value) groups.push_back(std::move(rows));
  }
}

std::optional<std::size_t> CandidateGrid::find(std::string_view label) const {
  const auto it = row_of_label_.find(label);
  if (it == row_of_label_.end()) return std::nullopt;
  return it->second;
}

std::span<const std::size_t> CandidateGrid::rows_on(
    cloud::FileSystemType fs) const {
  for (const auto& [type, rows] : rows_by_fs_) {
    if (type == fs) return rows;
  }
  return {};
}

}  // namespace acic::core
