//===- cgen/CEmit.h - C source emission -------------------------*- C++ -*-===//
///
/// \file
/// The final backend step for the CPU target (paper Section 2.3): the
/// compiler "generates Cuda/C code ... further compiled using Nvcc or
/// Clang into a shared library". This module emits a self-contained C
/// translation unit for a Low-- procedure. All state is passed through
/// a generated frame struct whose layout is described by FrameField
/// metadata, so the host engine can populate it from Values and call
/// the compiled procedure through one fixed signature:
///
///   void <proc>(augur_frame *f);
///
/// The frame's trailing member points at the caller's context (struct
/// augur_ctx: the profile table and any map-reduce partial buffers),
/// which the module allocates through its exported augur_ctx_new /
/// augur_ctx_free, so one loaded module serves concurrent callers.
///
/// Statements that need the matrix runtime or library sampling
/// (MvNormal/InvWishart operations, conjugate posterior draws) are not
/// emitted; emitC fails for such procedures and the engine falls back
/// to interpretation — native compilation targets the hot likelihood /
/// gradient primitives.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_CGEN_CEMIT_H
#define AUGUR_CGEN_CEMIT_H

#include <string>
#include <vector>

#include "density/Eval.h"
#include "lowpp/LowppIR.h"

namespace augur {

/// One field of the generated frame struct, in declaration order.
struct FrameField {
  enum class Kind {
    RealPtr,    ///< double*: scalar slot or flat payload
    IntPtr,     ///< long long*: scalar slot or flat payload
    OffsetsPtr, ///< long long*: ragged row offsets
    Length,     ///< long long by value: flat vector length
  };
  Kind K;
  std::string Var;    ///< source variable this field belongs to
  std::string CName;  ///< member name in the struct
};

/// An emitted C module.
struct CModule {
  std::string ProcName;
  std::string Source;
  std::vector<FrameField> Fields;
  bool Parallel = false; ///< module carries the pthread pool runtime
};

/// Parallel emission options. The default (NumThreads == 1) emits the
/// plain sequential module. With NumThreads != 1 the module carries a
/// persistent pthread pool; top-level Par/AtmPar loops are outlined
/// into chunk functions dispatched through augur_parallel_for, and
/// AtmPar accumulations become atomic adds. The emitted module exports
/// `void augur_set_threads(i64 n, i64 grain)` so the host can size the
/// pool after dlopen (NumThreads here only selects the code shape).
struct CEmitOptions {
  int NumThreads = 1;
  int64_t Grain = 16;
  /// Annotate Par loop bodies for host-compiler vectorization
  /// (`#pragma GCC ivdep` — Par loops are independent across
  /// iterations by construction, so the no-alias promise is sound).
  /// AtmPar loops are never annotated: their atomic read-modify-write
  /// accumulations carry loop-carried dependences by design.
  bool Simd = false;
};

/// Emits C for \p P. \p E supplies the shapes/kinds of the globals the
/// procedure references. Fails (with a reason) on constructs outside
/// the native subset.
Result<CModule> emitC(const LowppProc &P, const Env &E,
                      const CEmitOptions &Opts = CEmitOptions());

} // namespace augur

#endif // AUGUR_CGEN_CEMIT_H
