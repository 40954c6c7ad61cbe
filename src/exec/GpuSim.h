//===- exec/GpuSim.h - SIMT device simulator --------------------*- C++ -*-===//
///
/// \file
/// The GPU execution engine. This environment has no CUDA hardware, so
/// GPU execution is *simulated*: procedures are lowered through the full
/// backend (Low-- size inference, Blk-IL parallelization with the
/// Section 5.4 optimizations), executed block-by-block on the host for
/// bit-exact results, and *costed* with a SIMT device model:
///
///   parBlk n {body}  ->  launch + ceil(n / lanes) * perThreadCycles
///                        + serialization of contended atomics
///   sumBlk n {body}  ->  launch + ceil(n / lanes) * perThreadCycles
///                        + log2(n) tree-reduction cycles
///   seqBlk {body}    ->  launch + totalCycles (one thread)
///
/// The default DeviceModel is shaped after the paper's Nvidia Titan
/// Black (15 SMX x 192 lanes, ~0.89 GHz). The model reproduces the
/// evaluation's *qualitative* GPU behaviour: speedups that grow with
/// data/topic counts (Fig. 12), losses on small data (HLR, Section 7.2),
/// and the benefit of summation-block conversion over contended atomics.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_EXEC_GPUSIM_H
#define AUGUR_EXEC_GPUSIM_H

#include "blk/Passes.h"
#include "exec/Engine.h"
#include "lowmm/SizeInference.h"

namespace augur {

/// SIMT cost-model parameters.
struct DeviceModel {
  int64_t Sms = 15;          ///< streaming multiprocessors
  int64_t LanesPerSm = 192;  ///< lanes per SM (Titan Black SMX)
  double ClockGhz = 0.889;
  double KernelLaunchUs = 6.0;
  double OpCycles = 1.0;      ///< per scalar statement
  double DistOpCycles = 24.0; ///< per distribution operation
  double LoopIterCycles = 1.0;
  double AtomicSerializeCycles = 48.0; ///< per conflicting atomic, serialized
  double ReduceCyclesPerLevel = 64.0;  ///< per tree-reduction level
  /// Clock of the host CPU used for the modeled *serial* time (the
  /// same work on one core) that the Fig. 12-style speedup columns
  /// compare against.
  double HostClockGhz = 3.2;

  int64_t lanes() const { return Sms * LanesPerSm; }
};

/// Per-procedure lowering artifacts and accumulated modeled time.
struct GpuProcInfo {
  BlkProc Blk;
  MemPlan Plan;
  double ModeledSeconds = 0.0;
  uint64_t Launches = 0;
};

/// Engine that executes on the device simulator.
class GpuSimEngine : public Engine {
public:
  explicit GpuSimEngine(uint64_t Seed, DeviceModel DM = DeviceModel(),
                        BlkOptions BO = BlkOptions())
      : Model(DM), Opts(BO), Rng(Seed), I(Globals, Rng) {
    I.setTrackAtomics(true);
  }

  void runProc(const std::string &Name) override;
  Env &env() override { return Globals; }
  RNG &rng() override { return Rng; }
  void addProc(LowppProc P) override;

  /// Total modeled device seconds since the last reset.
  double modeledSeconds() const { return TotalSeconds; }
  /// The same work costed on one host core (no parallelism, no launch
  /// overhead): the apples-to-apples CPU side of the speedup model.
  double modeledSerialSeconds() const { return TotalSerialSeconds; }
  void resetModeledTime();

  /// Lowering artifacts (lazily built at first run, when the data
  /// shapes are bound).
  const GpuProcInfo &procInfo(const std::string &Name);

  const DeviceModel &deviceModel() const { return Model; }

private:
  GpuProcInfo &getOrLower(const std::string &Name);
  double costBlock(const Block &B, double &SerialSeconds);

  DeviceModel Model;
  BlkOptions Opts;
  Env Globals;
  RNG Rng;
  Interp I;
  std::map<std::string, LowppProc> Procs;
  std::map<std::string, GpuProcInfo> Lowered;
  double TotalSeconds = 0.0;
  double TotalSerialSeconds = 0.0;
};

} // namespace augur

#endif // AUGUR_EXEC_GPUSIM_H
