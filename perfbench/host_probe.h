// perfbench/host_probe.h — reads how fast the shared host runs right now.
//
// On a shared VM, neighbours' load slows the whole process by tens of
// percent for seconds to minutes at a time, far more than the changes the
// benchmark has to resolve. The benchmark times a fixed piece of work
// between its rounds and scales its host-time metrics by it (see README.md,
// "Steadiness").
#pragma once

namespace perfbench {

/// Times the fixed probe work once and returns its cost in ns: the
/// geometric mean of three timings that each slow under a different kind of
/// contention — a dependent random-read chain over a table that fits a
/// core's L2, one over a table that only fits the shared last-level cache,
/// and independent lanes of integer hashing that compete for execution
/// ports. The work shares no code with the program under test, allocates
/// nothing after its first call, and takes a few ms.
double host_probe_ns();

/// The probe's cost on the reference host (ns). Host-time metrics are
/// scaled to the speed at which the probe takes this long.
inline constexpr double kHostProbeNominalNs = 3.0e6;

}  // namespace perfbench
