/**
 * @file
 * Paper Table 9 / Section 6: per-structure boxcar power averages as a
 * temperature proxy vs. the RC thermal model.
 *
 * For every benchmark, the same simulation drives the RC reference and
 * two per-structure boxcar proxies (10 K-cycle and 500 K-cycle windows,
 * trigger = the power that would sustain the emergency temperature).
 * The table reports, per window, the fraction of true emergency
 * structure-cycles the proxy misses and the spurious triggers it fires.
 * Expected shape: both windows show substantial misses and/or false
 * triggers for the thermally active benchmarks, because heating is an
 * exponential RC effect a boxcar average cannot capture.
 */

#include "bench_util.hh"

using namespace thermctl;

int
main(int argc, char **argv)
{
    const bench::Session session(
        argc, argv,
        "Table 9: per-structure boxcar power proxy vs. RC model",
        "Table 9 / Section 6");
    session.printBoxcarTable(BoxcarProxyKind::Structure,
                             "overall missed-emergency rate: ", "");
    return 0;
}
