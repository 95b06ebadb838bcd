#include "power/model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace thermctl
{

namespace
{

/**
 * Fold a logical (entries x bits) structure into a roughly square
 * physical array, as CACTI does, to balance wordline and bitline lengths.
 */
ArrayGeometry
folded(std::uint64_t entries, std::uint32_t bits, std::uint32_t read_ports,
       std::uint32_t write_ports)
{
    const double total_bits = static_cast<double>(entries) * bits;
    double rows = std::pow(2.0, std::round(std::log2(std::sqrt(
        std::max(total_bits, 4.0)))));
    // Subarray limits: structures beyond 512x512 are banked and only one
    // subarray fires per access (plus H-tree routing).
    rows = std::clamp(rows, 4.0, 512.0);
    const double cols =
        std::clamp(total_bits / rows, 4.0, 512.0);
    ArrayGeometry geom{
        .rows = static_cast<std::uint32_t>(rows),
        .cols_bits = static_cast<std::uint32_t>(std::ceil(cols)),
        .read_ports = read_ports,
        .write_ports = write_ports,
    };
    if (total_bits > rows * cols)
        geom.total_bits = static_cast<std::uint64_t>(total_bits);
    return geom;
}

} // namespace

const char *
structureName(StructureId id)
{
    switch (id) {
      case StructureId::Lsq: return "LSQ";
      case StructureId::Window: return "window";
      case StructureId::Regfile: return "regfile";
      case StructureId::Bpred: return "bpred";
      case StructureId::DCache: return "dcache";
      case StructureId::IntExec: return "int-exec";
      case StructureId::FpExec: return "fp-exec";
      case StructureId::RestOfChip: return "rest";
      default: return "?";
    }
}

PowerModel::PowerModel(const PowerConfig &cfg, const CpuConfig &cpu,
                       const MemoryHierarchyConfig &mem)
    : cfg_(cfg), cpu_(cpu), mem_(mem)
{
    const Technology &tech = cfg.tech;
    if (tech.freq_hz <= 0.0 || tech.vdd <= 0.0)
        fatal("PowerModel: frequency and Vdd must be positive");
    if (cfg.idle_fraction < 0.0 || cfg.idle_fraction > 1.0)
        fatal("PowerModel: idle_fraction must be in [0, 1]");

    // ------------------------------------------------------------- LSQ
    // Address CAM searched by loads plus a payload RAM.
    CamEnergyModel lsq_cam(
        CamGeometry{.entries = cpu.lsq_size, .tag_bits = 40,
                    .search_ports = cpu.num_mem_ports,
                    .write_ports = cpu.dispatch_width},
        tech);
    ArrayEnergyModel lsq_ram(
        ArrayGeometry{.rows = cpu.lsq_size, .cols_bits = 80,
                      .read_ports = cpu.num_mem_ports,
                      .write_ports = cpu.dispatch_width},
        tech);
    e_lsq_search_ = lsq_cam.searchEnergy() + lsq_ram.readEnergy();
    e_lsq_insert_ = lsq_cam.writeEnergy() + lsq_ram.writeEnergy();

    // ---------------------------------------------------------- window
    // RUU payload RAM + wakeup CAM + selection logic.
    const std::uint32_t issue_width =
        cpu.int_issue_width + cpu.fp_issue_width;
    ArrayEnergyModel window_ram(
        ArrayGeometry{.rows = cpu.window_size, .cols_bits = 200,
                      .read_ports = issue_width,
                      .write_ports = cpu.dispatch_width},
        tech);
    CamEnergyModel window_cam(
        CamGeometry{.entries = cpu.window_size, .tag_bits = 8,
                    .search_ports = issue_width,
                    .write_ports = cpu.dispatch_width},
        tech);
    e_window_dispatch_ = window_ram.writeEnergy()
        + window_cam.writeEnergy();
    e_window_issue_ = window_ram.readEnergy();
    e_window_wakeup_ = 2.0 * window_cam.searchEnergy();

    // --------------------------------------------------------- regfile
    ArrayEnergyModel regfile(
        ArrayGeometry{.rows = 64, .cols_bits = 64,
                      .read_ports = 2 * issue_width,
                      .write_ports = issue_width},
        tech);
    e_regfile_read_ = regfile.readEnergy();
    e_regfile_write_ = regfile.writeEnergy();

    // ----------------------------------------------------------- bpred
    const auto &bp = cpu.bpred;
    ArrayEnergyModel bimod(folded(bp.bimod_entries, 2, 1, 1), tech);
    ArrayEnergyModel gag(folded(bp.gag_entries, 2, 1, 1), tech);
    ArrayEnergyModel chooser(folded(bp.chooser_entries, 2, 1, 1), tech);
    ArrayEnergyModel btb(folded(bp.btb_entries, 52, 1, 1), tech);
    e_bpred_lookup_ = bimod.readEnergy() + gag.readEnergy()
        + chooser.readEnergy() + btb.readEnergy();
    e_bpred_update_ = bimod.writeEnergy() + gag.writeEnergy()
        + chooser.writeEnergy() + btb.writeEnergy();

    // ---------------------------------------------------------- caches
    ArrayEnergyModel dcache(
        folded(mem.l1d.size_bytes, 8, cpu.num_mem_ports, 1), tech);
    ArrayEnergyModel dcache_tags(
        folded(mem.l1d.size_bytes / mem.l1d.block_bytes, 25,
               cpu.num_mem_ports, 1),
        tech);
    e_dcache_access_ = dcache.readEnergy() + dcache_tags.readEnergy();

    ArrayEnergyModel icache(folded(mem.l1i.size_bytes, 8, 1, 1), tech);
    e_icache_access_ = icache.readEnergy();

    ArrayEnergyModel l2(folded(mem.l2.size_bytes, 8, 1, 1), tech);
    e_l2_access_ = l2.readEnergy();

    // --------------------------------------- per-structure calibration
    auto scale_of = [&](StructureId id) {
        return cfg.structure_scale[static_cast<std::size_t>(id)];
    };
    e_lsq_search_ *= scale_of(StructureId::Lsq);
    e_lsq_insert_ *= scale_of(StructureId::Lsq);
    e_window_dispatch_ *= scale_of(StructureId::Window);
    e_window_issue_ *= scale_of(StructureId::Window);
    e_window_wakeup_ *= scale_of(StructureId::Window);
    e_regfile_read_ *= scale_of(StructureId::Regfile);
    e_regfile_write_ *= scale_of(StructureId::Regfile);
    e_bpred_lookup_ *= scale_of(StructureId::Bpred);
    e_bpred_update_ *= scale_of(StructureId::Bpred);
    e_dcache_access_ *= scale_of(StructureId::DCache);
    cfg_.e_int_alu_op *= scale_of(StructureId::IntExec);
    cfg_.e_int_mult_op *= scale_of(StructureId::IntExec);
    cfg_.e_fp_alu_op *= scale_of(StructureId::FpExec);
    cfg_.e_fp_mult_op *= scale_of(StructureId::FpExec);
    e_icache_access_ *= scale_of(StructureId::RestOfChip);
    e_l2_access_ *= scale_of(StructureId::RestOfChip);
    cfg_.e_decode_op *= scale_of(StructureId::RestOfChip);

    // ------------------------------------------------ per-cycle peaks
    auto &pk = peak_energy_;
    pk[static_cast<std::size_t>(StructureId::Lsq)] =
        cpu.num_mem_ports * e_lsq_search_
        + cpu.dispatch_width * e_lsq_insert_;
    pk[static_cast<std::size_t>(StructureId::Window)] =
        cpu.dispatch_width * e_window_dispatch_
        + issue_width * (e_window_issue_ + e_window_wakeup_);
    pk[static_cast<std::size_t>(StructureId::Regfile)] =
        2.0 * issue_width * e_regfile_read_
        + issue_width * e_regfile_write_;
    pk[static_cast<std::size_t>(StructureId::Bpred)] =
        2.0 * (e_bpred_lookup_ + e_bpred_update_);
    pk[static_cast<std::size_t>(StructureId::DCache)] =
        cpu.num_mem_ports * e_dcache_access_;
    pk[static_cast<std::size_t>(StructureId::IntExec)] =
        cpu.num_int_alu * cfg_.e_int_alu_op
        + cpu.num_int_mult * cfg_.e_int_mult_op;
    pk[static_cast<std::size_t>(StructureId::FpExec)] =
        cpu.num_fp_alu * cfg_.e_fp_alu_op
        + cpu.num_fp_mult * cfg_.e_fp_mult_op;
    pk[static_cast<std::size_t>(StructureId::RestOfChip)] =
        cfg_.rest_base_watts * tech.cycleSeconds()
        + e_icache_access_
        + 2.0 * e_l2_access_
        + cpu.dispatch_width * cfg_.e_decode_op;

    for (StructureId id : kAllStructures) {
        peak_[id] = peak_energy_[static_cast<std::size_t>(id)]
            * tech.freq_hz;
    }
}

double
PowerModel::activeEnergy(StructureId id, const CpuActivity &act) const
{
    switch (id) {
      case StructureId::Lsq:
        // lsq_accesses mixes inserts and searches; charge the mean.
        return act.lsq_accesses * 0.5 * (e_lsq_search_ + e_lsq_insert_);
      case StructureId::Window:
        return act.dispatched_ops * e_window_dispatch_
            + (act.issued_int + act.issued_fp + act.issued_mem)
                  * e_window_issue_
            + act.wakeup_broadcasts * e_window_wakeup_;
      case StructureId::Regfile:
        return act.regfile_reads * e_regfile_read_
            + act.regfile_writes * e_regfile_write_;
      case StructureId::Bpred:
        return act.bpred_lookups * e_bpred_lookup_
            + act.bpred_updates * e_bpred_update_;
      case StructureId::DCache:
        return act.l1d_accesses * e_dcache_access_;
      case StructureId::IntExec:
        return act.int_alu_ops * cfg_.e_int_alu_op
            + act.int_mult_ops * cfg_.e_int_mult_op;
      case StructureId::FpExec:
        return act.fp_alu_ops * cfg_.e_fp_alu_op
            + act.fp_mult_ops * cfg_.e_fp_mult_op;
      case StructureId::RestOfChip:
        return cfg_.rest_base_watts * cfg_.tech.cycleSeconds()
            + act.l1i_accesses * e_icache_access_
            + act.l2_accesses * e_l2_access_
            + act.decoded_ops * cfg_.e_decode_op;
      default:
        panic("unknown structure id");
    }
}

double
PowerModel::gate(double active_j, double peak_j) const
{
    active_j = std::min(active_j, peak_j);
    switch (cfg_.gating) {
      case ClockGatingStyle::Cc0:
        return peak_j;
      case ClockGatingStyle::Cc1:
        return active_j > 0.0 ? peak_j : 0.0;
      case ClockGatingStyle::Cc2:
        return active_j;
      case ClockGatingStyle::Cc3:
        return std::max(active_j, cfg_.idle_fraction * peak_j);
      default:
        panic("unknown gating style");
    }
}

PowerVector
PowerModel::leakagePower(
    const std::array<Celsius, kNumStructures> &temps_c) const
{
    PowerVector out;
    if (!cfg_.leakage_enabled)
        return out;
    for (StructureId id : kAllStructures) {
        const std::size_t i = static_cast<std::size_t>(id);
        const double exponent =
            (temps_c[i] - cfg_.leakage_ref_temp)
            / cfg_.leakage_doubling_c;
        // Saturate at the structure's peak dynamic power: beyond that
        // the exponential model leaves its validity range (and the
        // simulation would otherwise run away numerically).
        out[id] = std::min(cfg_.leakage_fraction_at_ref * peak_[id]
                               * std::exp2(exponent),
                           peak_[id]);
    }
    return out;
}

PowerVector
PowerModel::cyclePower(const CpuActivity &act) const
{
    PowerVector out;
    for (StructureId id : kAllStructures) {
        const double peak_j =
            peak_energy_[static_cast<std::size_t>(id)];
        double joules;
        if (id == StructureId::RestOfChip) {
            // The base clock/misc component of RestOfChip is not
            // gateable; only the activity part is.
            const double base_j =
                cfg_.rest_base_watts * cfg_.tech.cycleSeconds();
            const double active_j =
                activeEnergy(id, act) - base_j;
            joules = base_j + gate(active_j, peak_j - base_j);
        } else {
            joules = gate(activeEnergy(id, act), peak_j);
        }
        out[id] = joules * cfg_.tech.freq_hz;
    }
    return out;
}

} // namespace thermctl
