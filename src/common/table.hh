/**
 * @file
 * Text-table and CSV rendering used by the bench binaries to print
 * paper-style tables with aligned columns.
 */

#ifndef THERMCTL_COMMON_TABLE_HH
#define THERMCTL_COMMON_TABLE_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace thermctl
{

/**
 * A simple column-aligned text table. Columns are sized to the widest
 * cell; numeric cells should be pre-formatted by the caller (see
 * formatDouble / formatPercent helpers).
 */
class TextTable
{
  public:
    /** Set the header row. */
    void setHeader(std::vector<std::string> header);

    /** Append a data row (column count may differ from header; padded). */
    void addRow(std::vector<std::string> row);

    /** Append a horizontal-rule row. */
    void addRule();

    /** Render with aligned columns to the given stream. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> header_;
    struct Row
    {
        std::vector<std::string> cells;
        bool rule = false;
    };
    std::vector<Row> rows_;
};

/** Format a double with the given number of decimal places. */
std::string formatDouble(double v, int decimals = 2);

/** Format a fraction in [0,1] as a percentage string, e.g. "12.3%". */
std::string formatPercent(double fraction, int decimals = 1);

/** Format a double in scientific notation, e.g. "5.0e-06". */
std::string formatSci(double v, int decimals = 1);

} // namespace thermctl

#endif // THERMCTL_COMMON_TABLE_HH
