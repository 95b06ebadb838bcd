/**
 * @file
 * CACTI-lite energy models for SRAM arrays and CAMs, in the spirit of
 * Wattch's capacitance estimation: energy per access is derived from the
 * array geometry (rows, columns, ports) and per-element capacitances,
 * scaled by Vdd and the bitline swing.
 */

#ifndef THERMCTL_POWER_ARRAY_HH
#define THERMCTL_POWER_ARRAY_HH

#include <cstdint>

#include "power/technology.hh"

namespace thermctl
{

/** Geometry of a RAM array structure. */
struct ArrayGeometry
{
    std::uint32_t rows = 0;       ///< rows of the *active* subarray
    std::uint32_t cols_bits = 0;  ///< columns of the *active* subarray
    std::uint32_t read_ports = 1;
    std::uint32_t write_ports = 1;

    /**
     * Total bits of the whole structure when it is larger than one
     * subarray (CACTI-style banking: only one subarray fires per access,
     * plus H-tree routing across the full footprint). 0 means the
     * structure is a single subarray.
     */
    std::uint64_t total_bits = 0;
};

/** Geometry of a CAM (associative search) structure. */
struct CamGeometry
{
    std::uint32_t entries = 0;
    std::uint32_t tag_bits = 0;
    std::uint32_t search_ports = 1;
    std::uint32_t write_ports = 1;
};

/**
 * Energy model of an SRAM array.
 *
 * Per read access: row decode + wordline swing + bitline swing on every
 * column + sense amps. Per write: full-rail bitline swing. Multi-ported
 * cells grow linearly in both dimensions (port pitch), increasing wire
 * capacitance exactly as in CACTI.
 */
class ArrayEnergyModel
{
  public:
    ArrayEnergyModel(const ArrayGeometry &geom, const Technology &tech);

    /** @return energy of one read access in Joules. */
    double readEnergy() const { return read_energy_j_; }

    /** @return energy of one write access in Joules. */
    double writeEnergy() const { return write_energy_j_; }

  private:
    double read_energy_j_ = 0.0;
    double write_energy_j_ = 0.0;
};

/**
 * Energy model of a CAM: a search drives the tag lines across every entry
 * and every entry's comparator evaluates; a write behaves like a small
 * RAM write.
 */
class CamEnergyModel
{
  public:
    CamEnergyModel(const CamGeometry &geom, const Technology &tech);

    /** @return energy of one associative search in Joules. */
    double searchEnergy() const { return search_energy_j_; }

    /** @return energy of one entry write in Joules. */
    double writeEnergy() const { return write_energy_j_; }

  private:
    double search_energy_j_ = 0.0;
    double write_energy_j_ = 0.0;
};

} // namespace thermctl

#endif // THERMCTL_POWER_ARRAY_HH
