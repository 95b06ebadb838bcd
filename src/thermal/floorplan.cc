#include "thermal/floorplan.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "thermal/silicon.hh"

namespace thermctl
{

namespace
{

double
areaMm2(const BlockRect &r)
{
    return r.w_mm * r.h_mm;
}

/** Shared-edge length between two rectangles in millimetres (0 if not
 *  adjacent). */
double
sharedEdgeMm(const BlockRect &a, const BlockRect &b)
{
    constexpr double eps = 1e-9;
    // Vertical adjacency: a's right edge touches b's left edge (or vice
    // versa); overlap measured along y.
    const bool touch_x =
        std::abs((a.x_mm + a.w_mm) - b.x_mm) < eps
        || std::abs((b.x_mm + b.w_mm) - a.x_mm) < eps;
    if (touch_x) {
        const double lo = std::max(a.y_mm, b.y_mm);
        const double hi = std::min(a.y_mm + a.h_mm, b.y_mm + b.h_mm);
        if (hi - lo > eps)
            return hi - lo;
    }
    const bool touch_y =
        std::abs((a.y_mm + a.h_mm) - b.y_mm) < eps
        || std::abs((b.y_mm + b.h_mm) - a.y_mm) < eps;
    if (touch_y) {
        const double lo = std::max(a.x_mm, b.x_mm);
        const double hi = std::min(a.x_mm + a.w_mm, b.x_mm + b.w_mm);
        if (hi - lo > eps)
            return hi - lo;
    }
    return 0.0;
}

} // namespace

Floorplan::Floorplan(const FloorplanConfig &cfg) : cfg_(cfg)
{
    if (cfg.die_thickness_m <= 0.0 || cfg.active_layer_m <= 0.0)
        fatal("Floorplan: thicknesses must be positive");
    if (cfg.active_layer_m > cfg.die_thickness_m)
        fatal("Floorplan: active layer cannot exceed die thickness");

    if (!cfg.flp_path.empty()) {
        loadFlp(cfg.flp_path);
    } else {
        // Fixed 10 x 10 mm die with the paper's Table 3 block areas:
        // LSQ 5, window 9, regfile 2.5, bpred 3.5, D-cache 10,
        // IntExec 5, FPExec 5 mm^2; the remaining 60 mm^2 is the
        // RestOfChip aggregate.
        auto set = [&](StructureId id, double x, double y, double w,
                       double h) {
            rects_[static_cast<std::size_t>(id)] =
                BlockRect{.x_mm = x, .y_mm = y, .w_mm = w, .h_mm = h};
        };
        set(StructureId::DCache, 0.0, 0.0, 5.0, 2.0);   // 10 mm^2
        set(StructureId::Lsq, 5.0, 0.0, 2.5, 2.0);      // 5 mm^2
        set(StructureId::IntExec, 7.5, 0.0, 2.5, 2.0);  // 5 mm^2
        set(StructureId::Window, 0.0, 2.0, 4.5, 2.0);   // 9 mm^2
        set(StructureId::Regfile, 4.5, 2.0, 1.25, 2.0); // 2.5 mm^2
        set(StructureId::FpExec, 5.75, 2.0, 2.5, 2.0);  // 5 mm^2
        set(StructureId::Bpred, 8.25, 2.0, 1.75, 2.0);  // 3.5 mm^2
        set(StructureId::RestOfChip, 0.0, 4.0, 10.0, 6.0); // 60 mm^2
    }

    const Celsius t_ref = cfg.reference_temp;
    const double rho = silicon::thermalResistivity(t_ref);
    const double c_v = silicon::volumetricHeatCapacity(t_ref);

    for (StructureId id : kAllStructures) {
        const std::size_t i = static_cast<std::size_t>(id);
        const double area_m2 = units::mm2ToM2(areaMm2(rects_[i]));
        ThermalBlockParams &blk = blocks_[i];
        blk.id = id;
        blk.area_m2 = area_m2;
        // C = c_si * A * t_active  (paper Section 4.3)
        blk.capacitance = c_v * area_m2 * cfg.active_layer_m;
        // R = k_spread * rho_si * t_die / A  (see header comment)
        blk.resistance =
            cfg.k_spread[i] * rho * cfg.die_thickness_m / area_m2;
    }

    // Tangential resistances between blocks sharing an edge: lateral
    // conduction through the active silicon cross-section. The path
    // length is approximated by half the two block widths; the section is
    // shared_edge * die thickness. As the paper observes, these come out
    // orders of magnitude above the normal resistances.
    for (std::size_t i = 0; i < kNumStructures; ++i) {
        for (std::size_t j = i + 1; j < kNumStructures; ++j) {
            const double edge_mm = sharedEdgeMm(rects_[i], rects_[j]);
            if (edge_mm <= 0.0)
                continue;
            const double li = std::sqrt(areaMm2(rects_[i])) * 1e-3 / 2;
            const double lj = std::sqrt(areaMm2(rects_[j])) * 1e-3 / 2;
            const double section =
                edge_mm * 1e-3 * cfg.die_thickness_m;
            const double r_tan = rho * (li + lj) / section;
            tangential_.push_back({static_cast<StructureId>(i),
                                   static_cast<StructureId>(j), r_tan});
        }
    }
}

const ThermalBlockParams &
Floorplan::block(StructureId id) const
{
    return blocks_[static_cast<std::size_t>(id)];
}

const BlockRect &
Floorplan::rect(StructureId id) const
{
    return rects_[static_cast<std::size_t>(id)];
}

double
Floorplan::dieAreaMm2() const
{
    double total = 0.0;
    for (const auto &r : rects_)
        total += areaMm2(r);
    return total;
}

void
Floorplan::loadFlp(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open floorplan file: ", path);

    std::array<bool, kNumStructures> seen{};
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        // HotSpot comments and blank lines.
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::istringstream ls(line);
        std::string name;
        double w_m = 0, h_m = 0, x_m = 0, y_m = 0;
        if (!(ls >> name >> w_m >> h_m >> x_m >> y_m))
            fatal(path, ":", line_no, ": expected `name width height "
                  "left-x bottom-y` (meters)");
        bool matched = false;
        for (StructureId id : kAllStructures) {
            if (name == structureName(id)) {
                if (w_m <= 0.0 || h_m <= 0.0)
                    fatal(path, ":", line_no,
                          ": block dimensions must be positive");
                rects_[static_cast<std::size_t>(id)] =
                    BlockRect{.x_mm = x_m * 1e3, .y_mm = y_m * 1e3,
                              .w_mm = w_m * 1e3, .h_mm = h_m * 1e3};
                seen[static_cast<std::size_t>(id)] = true;
                matched = true;
                break;
            }
        }
        if (!matched)
            fatal(path, ":", line_no, ": unknown block '", name, "'");
    }
    for (StructureId id : kAllStructures) {
        if (!seen[static_cast<std::size_t>(id)])
            fatal(path, ": missing block '", structureName(id), "'");
    }
}

} // namespace thermctl
