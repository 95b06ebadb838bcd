/**
 * @file
 * Paper Table 5: categories of thermal behaviour (extreme / high /
 * medium / low), derived by classifying the Table 4 characterization
 * runs and cross-checked against the intended per-profile labels.
 */

#include <iostream>
#include <map>

#include "bench_util.hh"
#include "common/table.hh"
#include "sim/config.hh"

using namespace thermctl;

int
main(int argc, char **argv)
{
    bench::Session session(argc, argv,
                           "Table 5: categories of thermal behaviour",
                           "Table 5");

    auto results = session.characterizeAll();

    std::map<ThermalCategory, std::vector<std::string>> groups;
    int mismatches = 0;
    for (const auto &r : results) {
        const ThermalCategory measured = classifyThermalBehaviour(r);
        groups[measured].push_back(r.benchmark);
        if (measured != r.category) {
            ++mismatches;
            std::cout << "note: " << r.benchmark << " measured as "
                      << thermalCategoryName(measured)
                      << " but profiled as "
                      << thermalCategoryName(r.category) << "\n";
        }
    }

    TextTable t;
    t.setHeader({"category", "benchmarks"});
    for (auto cat : {ThermalCategory::Extreme, ThermalCategory::High,
                     ThermalCategory::Medium, ThermalCategory::Low}) {
        std::string names;
        for (const auto &n : groups[cat])
            names += (names.empty() ? "" : ", ") + n;
        t.addRow({thermalCategoryName(cat), names});
    }
    t.print(std::cout);
    std::cout << "\nlabel/measurement mismatches: " << mismatches
              << " of " << results.size() << "\n";
    // Category boundaries are only meaningful under the full protocol;
    // THERMCTL_FAST runs are too short for the hottest excursions.
    if (session.fast())
        return 0;
    return mismatches > 2 ? 1 : 0;
}
