/**
 * @file
 * Ablation (paper Figures 2-3 / Section 4.3): the simplified per-block
 * RC network (Fig. 3C) against the detailed model with tangential
 * resistances and an explicit heatsink node (Fig. 3B).
 *
 * Both models are driven by the identical per-cycle power trace of a
 * live simulation. Expected shape: per-block temperature differences of
 * at most a few tenths of a degree — the paper's justification for
 * dropping the tangential paths (R_tan orders of magnitude above
 * R_normal) and freezing the heatsink temperature over short spans.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "multicore/chip_model.hh"
#include "sim/simulator.hh"
#include "workload/spec_profiles.hh"

using namespace thermctl;

int
main(int argc, char **argv)
{
    bench::Session session(
        argc, argv,
        "Ablation: simplified (Fig 3C) vs full tangential (Fig 3B) "
        "thermal model",
        "Section 4.3 model simplification");

    const RunProtocol proto = session.protocol();

    TextTable t;
    t.setHeader({"benchmark", "block", "avg |dT| (C)", "max |dT| (C)",
                 "emerg cyc 3C", "emerg cyc 3B"});

    for (const char *name : {"186.crafty", "191.fma3d", "179.art"}) {
        SimConfig cfg;
        cfg.workload = specProfile(name);
        Simulator sim(cfg);
        // One core, no coupling: the Fig. 3B network.
        multicore::ChipModel full(sim.floorplan(), cfg.thermal,
                                  cfg.power.tech.cycleSeconds(),
                                  MulticoreConfig{});
        std::vector<PowerVector> power(1);

        sim.warmUp(proto.warmup_cycles);
        // Align the full model with the warmed simplified state so the
        // measured differences are purely structural (tangential paths
        // and heatsink dynamics), not initialization artifacts. The
        // sink is still at t_base.
        full.setTemperatures(0, sim.thermal().temperatures());

        std::array<Accumulator, kNumHotspotStructures> diff;
        std::array<std::uint64_t, kNumHotspotStructures> emerg_3c{};
        std::array<std::uint64_t, kNumHotspotStructures> emerg_3b{};

        for (std::uint64_t c = 0; c < proto.measure_cycles; ++c) {
            sim.tick();
            power[0] = sim.lastPower();
            full.step(power);
            const auto &ts = sim.thermal().temperatures();
            const auto &tf = full.temperatures(0);
            for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
                diff[i].add(std::abs(ts.value[i] - tf.value[i]));
                if (ts.value[i] > cfg.thermal.t_emergency)
                    ++emerg_3c[i];
                if (tf.value[i] > cfg.thermal.t_emergency)
                    ++emerg_3b[i];
            }
        }

        for (std::size_t i = 0; i < kNumHotspotStructures; ++i) {
            t.addRow({name, structureName(static_cast<StructureId>(i)),
                      formatDouble(diff[i].mean(), 3),
                      formatDouble(diff[i].max(), 3),
                      std::to_string(emerg_3c[i]),
                      std::to_string(emerg_3b[i])});
        }
        t.addRule();
    }
    t.print(std::cout);
    std::cout << "\nReading guide: with our tangential resistances 20-150x"
                 " the normal paths, the\nsimplified model tracks the "
                 "full network to within ~10-15% of the temperature\n"
                 "rise. It errs on the conservative side for the hot "
                 "block itself (lateral bleed\nmakes the true hot spot "
                 "slightly cooler), while neighbours of a hot block "
                 "run\nslightly warmer than the simplified model "
                 "predicts — both consistent with the\npaper's 'very "
                 "little loss of accuracy' argument for Fig. 3C.\n";
    return 0;
}
