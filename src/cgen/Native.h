//===- cgen/Native.h - Native CPU engine (compile + dlopen) ----*- C++ -*-===//
///
/// \file
/// The native CPU execution path: emitted C is compiled with the host C
/// compiler into a shared library and loaded with dlopen, exactly the
/// paper's deployment ("compiled using ... Clang into a shared library",
/// Section 2.3). Procedures outside the native subset (sampling
/// statements, matrix runtime) transparently fall back to the
/// interpreter, which keeps the hot likelihood/gradient primitives
/// native while library sampling stays in the engine. A compiled
/// artifact shares its NativeModules with every chain engine built from
/// it; each engine brings its own module contexts (cgen/CEmit.h).
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_CGEN_NATIVE_H
#define AUGUR_CGEN_NATIVE_H

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cgen/CEmit.h"
#include "exec/Engine.h"

namespace augur {

/// Creates the output globals of \p P that \p E lacks (adjoints shaped
/// like their variable, everything else a real scalar). Outputs must
/// exist before a native frame layout is fixed.
void allocateOutputs(const LowppProc &P, Env &E);

/// Native modules, each built by host cc at most once. Thread-safe; a
/// module is never rebuilt or unloaded while the set lives.
class NativeModules {
public:
  struct Module {
    void (*Entry)(void *Frame) = nullptr;
    /// Reads and resets a context's profile table (8 slots; see
    /// cgen/CEmit.cpp ContextPrelude for the layout).
    void (*Profile)(void *Ctx, long long *Out) = nullptr;
    void *(*CtxNew)() = nullptr;
    void (*CtxFree)(void *Ctx) = nullptr;
    std::vector<FrameField> Fields;
    void *Handle = nullptr;
    std::string Reason; ///< fallback reason if Entry is null
  };

  NativeModules(const ParallelConfig &Par, bool Simd) : Par(Par), Simd(Simd) {}
  ~NativeModules();

  /// The module of \p P, built on the first request for its name.
  /// \p Shapes supplies the kinds of the globals \p P references and
  /// must hold its outputs (allocateOutputs).
  const Module &get(const LowppProc &P, const Env &Shapes);

  /// The module built for \p Name, or nullptr if none was requested.
  const Module *find(const std::string &Name) const;

private:
  Module build(const LowppProc &P, const Env &Shapes) const;

  ParallelConfig Par;
  bool Simd;
  mutable std::mutex Mu;
  std::map<std::string, Module> Built; ///< node-stable: engines keep pointers
};

/// Engine that runs native-emittable procedures as compiled C and
/// interprets the rest.
class NativeEngine : public InterpEngine {
public:
  /// A standalone engine: its modules are built on first run, with the
  /// parallel and SIMD settings in force then.
  explicit NativeEngine(uint64_t Seed) : InterpEngine(Seed) {}
  /// A chain engine over an artifact's shared module set.
  NativeEngine(uint64_t Seed, std::shared_ptr<NativeModules> Mods)
      : InterpEngine(Seed), Mods(std::move(Mods)) {}
  ~NativeEngine() override;

  void runProc(const std::string &Name) override;

  /// Parallel mode: the interpreter (fallback path) runs pooled loops
  /// on \p Pool, and a standalone engine's modules carry the pthread
  /// pool runtime sized to the config. Must be set before the first
  /// runProc.
  void setParallel(ThreadPool *Pool, const ParallelConfig &Cfg) override {
    InterpEngine::setParallel(Pool, Cfg);
    Par = Cfg;
  }

  /// True if \p Name is built as native code.
  bool isNative(const std::string &Name) const {
    const NativeModules::Module *M = Mods ? Mods->find(Name) : nullptr;
    return M && M->Entry;
  }

  /// Why a procedure falls back to interpretation (empty if native).
  std::string fallbackReason(const std::string &Name) const;

private:
  /// A module plus this engine's context for it.
  struct Bound {
    const NativeModules::Module *M = nullptr;
    void *Ctx = nullptr;
  };

  Bound &bind(const std::string &Name);
  void buildFrame(const Bound &B, std::vector<char> &Buf);

  ParallelConfig Par;
  std::shared_ptr<NativeModules> Mods;
  std::map<std::string, Bound> Binds;
};

} // namespace augur

#endif // AUGUR_CGEN_NATIVE_H
