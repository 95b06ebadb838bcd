#include "power/array.hh"

#include <cmath>

#include "common/logging.hh"

namespace thermctl
{

namespace
{

constexpr double kFemto = 1e-15;

/** log2 of the next power of two (decoder depth). */
double
decodeDepth(std::uint32_t rows)
{
    return rows > 1 ? std::ceil(std::log2(static_cast<double>(rows))) : 1.0;
}

} // namespace

ArrayEnergyModel::ArrayEnergyModel(const ArrayGeometry &geom,
                                   const Technology &tech)
{
    if (geom.rows == 0 || geom.cols_bits == 0)
        fatal("ArrayEnergyModel: geometry must be non-empty");

    const double ports =
        static_cast<double>(geom.read_ports + geom.write_ports);
    // Multi-ported cells grow in both dimensions.
    const double cell_w = tech.cell_width_um
        + tech.port_pitch_um * (ports - 1.0);
    const double cell_h = tech.cell_height_um
        + tech.port_pitch_um * (ports - 1.0);

    // Wordline: pass-gate load + wire across the row.
    const double c_wordline_ff = geom.cols_bits
        * (2.0 * tech.c_gate_ff + tech.c_wire_ff_per_um * cell_w);

    // Bitline (per column): drain load + wire down the column.
    const double c_bitline_ff = geom.rows
        * (tech.c_drain_ff + tech.c_wire_ff_per_um * cell_h);

    // Decoder: modeled as a chain of NAND/inverter stages; capacitance
    // grows with depth and rows (predecode wires).
    const double c_decode_ff = 40.0 * decodeDepth(geom.rows)
        + 0.05 * geom.rows;

    // H-tree routing across the full banked footprint: address/data wires
    // spanning ~sqrt(total area), charged on every access.
    double c_route_ff = 0.0;
    const double subarray_bits =
        static_cast<double>(geom.rows) * geom.cols_bits;
    if (geom.total_bits > subarray_bits) {
        const double cell_area_um2 = cell_w * cell_h;
        const double side_um = std::sqrt(
            static_cast<double>(geom.total_bits) * cell_area_um2);
        // 64 data wires plus address, out and back.
        c_route_ff = 80.0 * tech.c_wire_ff_per_um * side_um;
    }

    const double v = tech.vdd;
    const double e_decode = (c_decode_ff + c_route_ff) * kFemto * v * v;
    const double e_wordline = c_wordline_ff * kFemto * v * v;

    // Reads: differential bitline pairs swing by bitline_swing_v; every
    // column participates; sense amps fire per column.
    const double e_bitline_read = geom.cols_bits * 2.0 * c_bitline_ff
        * kFemto * v * tech.bitline_swing_v;
    const double e_sense = geom.cols_bits * tech.sense_amp_energy_fj
        * kFemto;

    // Writes: full-rail swing on the written columns (single-ended pair).
    const double e_bitline_write = geom.cols_bits * c_bitline_ff
        * kFemto * v * v;

    read_energy_j_ = tech.array_energy_scale
        * (e_decode + e_wordline + e_bitline_read + e_sense);
    write_energy_j_ = tech.array_energy_scale
        * (e_decode + e_wordline + e_bitline_write);
}

CamEnergyModel::CamEnergyModel(const CamGeometry &geom,
                               const Technology &tech)
{
    if (geom.entries == 0 || geom.tag_bits == 0)
        fatal("CamEnergyModel: geometry must be non-empty");

    const double ports =
        static_cast<double>(geom.search_ports + geom.write_ports);
    const double cell_h = tech.cell_height_um
        + tech.port_pitch_um * (ports - 1.0);

    // Tag lines run the full height of the CAM, loading every entry's
    // comparator gates.
    const double c_tagline_ff = geom.entries
        * (2.0 * tech.c_gate_ff + tech.c_wire_ff_per_um * cell_h);

    // Match lines: one per entry, precharged and (mostly) discharged
    // every search.
    const double c_matchline_ff = geom.tag_bits
        * (tech.c_drain_ff + tech.c_wire_ff_per_um * 1.0);

    const double v = tech.vdd;
    const double e_taglines = geom.tag_bits * 2.0 * c_tagline_ff
        * kFemto * v * v;
    const double e_matchlines = geom.entries * c_matchline_ff
        * kFemto * v * v;

    search_energy_j_ = tech.array_energy_scale
        * (e_taglines + e_matchlines);

    // Writing an entry is a small RAM write.
    ArrayGeometry ram{.rows = geom.entries, .cols_bits = geom.tag_bits,
                      .read_ports = 0, .write_ports = 1};
    // Guard: ArrayEnergyModel requires >= 1 read port only implicitly;
    // construct with 1 and take the write energy.
    ram.read_ports = 1;
    ArrayEnergyModel ram_model(ram, tech);
    write_energy_j_ = ram_model.writeEnergy();
}

} // namespace thermctl
