// The shared host's speed, measured with a fixed piece of work the benchmark
// owns (no simulator code), so slow phases of the host can be divided out
// of the simulator's host times.
//
// The host's other tenants slow memory-heavy work by up to 1.7x, in bursts
// of a second and in phases of minutes. Within a run, the fastest repeat of
// each short timing segment removes the bursts but not a phase that covers
// the whole run. The set-up of a network (allocation, initialisation,
// hashing) slows in step with the run loop, so the reference work does the
// same kinds of things on about 12 MB: it allocates and fills blocks,
// builds a hash map and reads both at random. Timed between trials, its
// slow bursts coincide with the simulator's and are about as deep.
#pragma once

namespace perfbench {

// Wall seconds one pass of the reference work takes now.
double ReferenceWorkSeconds();

// Wall seconds a pass takes on an undisturbed 4-vCPU Intel Xeon
// (RelWithDebInfo). Host times are reported scaled to that speed:
// measured x kReferenceWorkS / (the run's fastest pass).
inline constexpr double kReferenceWorkS = 0.02;

}  // namespace perfbench
