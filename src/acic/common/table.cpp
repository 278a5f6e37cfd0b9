#include "acic/common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "acic/common/error.hpp"

namespace acic {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  ACIC_CHECK(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> row) {
  ACIC_CHECK_MSG(row.size() == header_.size(),
                 "row arity " << row.size() << " != header " << header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << row[c];
      os << std::string(width[c] - row[c].size(), ' ');
    }
    os << " |\n";
  };
  emit(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << (c == 0 ? "|" : "|") << std::string(width[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace acic
