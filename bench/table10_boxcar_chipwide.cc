/**
 * @file
 * Paper Table 10 / Section 6: chip-wide boxcar power average (the prior
 * work's 47 W-class trigger) vs. the localized RC model.
 *
 * Expected shape: the chip-wide treatment misses almost all localized
 * thermal emergencies — localized heating is orders of magnitude faster
 * than anything visible in chip-wide power — which is the paper's
 * motivation for per-structure thermal modeling.
 */

#include "bench_util.hh"

using namespace thermctl;

int
main(int argc, char **argv)
{
    const bench::Session session(
        argc, argv,
        "Table 10: chip-wide boxcar power proxy vs. localized RC model",
        "Table 10 / Section 6");
    session.printBoxcarTable(
        BoxcarProxyKind::Chip, "overall chip-wide missed-emergency rate: ",
        " (paper: almost all localized emergencies missed)");
    return 0;
}
