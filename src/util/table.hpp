#pragma once
// Fixed-width ASCII table printer used by the bench harnesses to emit
// paper-style rows, plus a trivial CSV writer so results can be re-plotted.

#include <ostream>
#include <string>
#include <vector>

namespace mtcmos {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` significant digits.
  static std::string num(double v, int precision = 4);

  void print(std::ostream& os) const;
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mtcmos
