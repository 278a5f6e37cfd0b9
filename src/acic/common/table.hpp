// Fixed-width ASCII table printer used by the bench harnesses so that the
// regenerated paper tables/figures come out aligned and diff-friendly.
#pragma once

#include <string>
#include <vector>

namespace acic {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: format doubles with the given precision.
  static std::string num(double v, int precision = 2);

  /// Render with column alignment and a header separator.
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace acic
