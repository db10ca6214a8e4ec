/**
 * @file
 * Plain-text table formatter used by the benchmark harnesses to print
 * paper-style tables and figure series.
 */

#ifndef COBRA_COMMON_TABLE_HPP
#define COBRA_COMMON_TABLE_HPP

#include <ostream>
#include <string>
#include <vector>

namespace cobra {

/**
 * Accumulates rows of string cells and prints them with aligned
 * columns. The first row added is treated as the header.
 */
class TextTable
{
  public:
    explicit TextTable(std::string title = "") : title_(std::move(title)) {}

    /** Add a full row of cells. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: begin a new row and append cells one at a time. */
    void beginRow();
    void cell(const std::string& s);
    void cell(double v, int precision = 3);
    void cell(std::uint64_t v);
    void cell(int v);

    /** Render with aligned columns and a rule under the header. */
    void print(std::ostream& os) const;

  private:
    std::string title_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision. */
std::string formatDouble(double v, int precision = 3);

/** Format a byte count as a human-readable KB string. */
std::string formatKiB(std::uint64_t bits);

} // namespace cobra

#endif // COBRA_COMMON_TABLE_HPP
