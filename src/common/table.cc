#include "common/table.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>

namespace thermctl
{

void
TextTable::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    rows_.push_back({std::move(row), false});
}

void
TextTable::addRule()
{
    rows_.push_back({{}, true});
}

void
TextTable::print(std::ostream &os) const
{
    std::size_t cols = header_.size();
    for (const auto &row : rows_)
        cols = std::max(cols, row.cells.size());

    std::vector<std::size_t> widths(cols, 0);
    auto widen = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            widths[c] = std::max(widths[c], cells[c].size());
    };
    widen(header_);
    for (const auto &row : rows_)
        if (!row.rule)
            widen(row.cells);

    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cols; ++c) {
            const std::string &cell =
                c < cells.size() ? cells[c] : std::string();
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << cell;
            if (c + 1 < cols)
                os << "  ";
        }
        os << '\n';
    };

    std::size_t rule_len = 0;
    for (std::size_t c = 0; c < cols; ++c)
        rule_len += widths[c] + (c + 1 < cols ? 2 : 0);

    if (!header_.empty()) {
        emit(header_);
        os << std::string(rule_len, '-') << '\n';
    }
    for (const auto &row : rows_) {
        if (row.rule)
            os << std::string(rule_len, '-') << '\n';
        else
            emit(row.cells);
    }
}

std::string
formatDouble(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
formatPercent(double fraction, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
    return buf;
}

std::string
formatSci(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*e", decimals, v);
    return buf;
}

} // namespace thermctl
