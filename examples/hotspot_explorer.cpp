/**
 * @file
 * Hot-spot explorer: run any benchmark without DTM and render the die
 * as an ASCII heat map, showing where it heats and how fast.
 *
 * This is the scenario the paper's introduction motivates: different
 * programs create different localized hot spots — FP codes cook the FP
 * unit, integer codes the integer core, branchy codes the predictor —
 * which chip-wide metrics cannot see.
 *
 *   ./build/examples/hotspot_explorer 191.fma3d
 */

#include <iomanip>
#include <iostream>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;

namespace
{

char
heatChar(Celsius t, const ThermalConfig &cfg)
{
    if (t > cfg.t_emergency)
        return '#';
    if (t > cfg.stressLevel())
        return '*';
    if (t > cfg.t_base + 1.5)
        return '+';
    if (t > cfg.t_base + 0.5)
        return '.';
    return ' ';
}

void
renderFloorplan(const Simulator &sim)
{
    const auto &fp = sim.floorplan();
    const auto &temps = sim.thermal().temperatures();
    const auto &cfg = sim.config().thermal;

    // 40 x 20 character canvas over the 10 x 10 mm die.
    const int w = 40, h = 20;
    std::vector<std::string> canvas(h, std::string(w, ' '));
    for (StructureId id : kAllStructures) {
        const auto &r = fp.rect(id);
        const char fill = heatChar(temps[id], cfg);
        const int x0 = static_cast<int>(r.x_mm / 10.0 * w);
        const int x1 = static_cast<int>((r.x_mm + r.w_mm) / 10.0 * w);
        const int y0 = static_cast<int>(r.y_mm / 10.0 * h);
        const int y1 = static_cast<int>((r.y_mm + r.h_mm) / 10.0 * h);
        for (int y = y0; y < y1 && y < h; ++y)
            for (int x = x0; x < x1 && x < w; ++x)
                canvas[y][x] = fill;
        // Label.
        const std::string label = structureName(id);
        for (std::size_t k = 0;
             k < label.size() && x0 + static_cast<int>(k) < x1 - 1; ++k)
            canvas[y0][x0 + 1 + k] = label[k];
    }
    std::cout << "+" << std::string(w, '-') << "+\n";
    for (const auto &row : canvas)
        std::cout << "|" << row << "|\n";
    std::cout << "+" << std::string(w, '-') << "+\n"
              << "legend: ' ' cool  '.' warm  '+' hot  '*' stress (>"
              << cfg.stressLevel() << ")  '#' EMERGENCY (>"
              << cfg.t_emergency << ")\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "191.fma3d";
    const char *usage =
        "usage: hotspot_explorer [BENCHMARK]  (a SPEC2000 profile such as "
        "186.crafty; default 191.fma3d)\n";
    if (bench == "--help" || bench == "-h") {
        std::cout << usage;
        return 0;
    }
    WorkloadProfile profile;
    try {
        profile = specProfile(bench);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n" << usage;
        return 2;
    }

    SimConfig cfg;
    cfg.workload = profile;
    cfg.policy.kind = DtmPolicyKind::None;
    Simulator sim(cfg);

    std::cout << "=== " << bench << " (no DTM) ===\n\n";
    std::cout << "heating from a cold (base-temperature) start:\n";
    const std::uint64_t step = 150000;
    for (int i = 1; i <= 6; ++i) {
        sim.run(step);
        std::cout << "\nafter " << i * step << " cycles ("
                  << std::fixed << std::setprecision(0)
                  << i * step / 1.5e3 << " us):\n";
        renderFloorplan(sim);
    }

    std::cout << "\nper-structure temperatures:\n";
    for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
        const auto id = static_cast<StructureId>(i);
        std::cout << "  " << std::left << std::setw(10)
                  << structureName(id) << std::setprecision(2)
                  << std::fixed << sim.thermal().temperatures()[id]
                  << " C  (steady power "
                  << sim.stats().avgStructurePower(id) << " W, R "
                  << sim.floorplan().block(id).resistance << " K/W, RC "
                  << sim.floorplan().block(id).rc() * 1e6 << " us)\n";
    }
    return 0;
}
