//===- cgen/Native.cpp ----------------------------------------*- C++ -*-===//

#include "cgen/Native.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dlfcn.h>
#include <fstream>
#include <unistd.h>

#include "math/Simd.h"
#include "robust/FaultInject.h"
#include "support/Format.h"

using namespace augur;

void augur::allocateOutputs(const LowppProc &P, Env &E) {
  for (const auto &Out : P.Outputs) {
    if (E.count(Out))
      continue;
    if (startsWith(Out, "adj_") && E.count(Out.substr(4)))
      E[Out] = zerosLike(E.at(Out.substr(4)));
    else
      E[Out] = Value::realScalar(0.0);
  }
}

NativeModules::~NativeModules() {
  for (auto &KV : Built)
    if (KV.second.Handle)
      dlclose(KV.second.Handle);
}

const NativeModules::Module *
NativeModules::find(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Built.find(Name);
  return It == Built.end() ? nullptr : &It->second;
}

const NativeModules::Module &NativeModules::get(const LowppProc &P,
                                                const Env &Shapes) {
  // Held across the host-cc call, so a procedure two chains reach at
  // once is still built exactly once.
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Built.find(P.Name);
  if (It == Built.end())
    It = Built.emplace(P.Name, build(P, Shapes)).first;
  return It->second;
}

NativeModules::Module NativeModules::build(const LowppProc &P,
                                           const Env &Shapes) const {
  Module NP;
  const std::string &Name = P.Name;

  // The Low-- / C-emission / host-cc phase of the pipeline; spans land
  // next to the compile/* phases in the trace.
  ScopedSpan CgenSpan(Recorder::global(), "compile/cgen/" + Name,
                      "compile");

  // Fault-injection probe: a native toolchain failure (missing cc,
  // emit bug, dlopen error). Must degrade to the interpreter with a
  // structured reason, never crash or abort the run.
  if (robust::faultFire(robust::FaultClass::NativeCompileFail)) {
    NP.Reason = "fault-injected native compile failure";
    return NP;
  }

  CEmitOptions EmitOpts;
  EmitOpts.NumThreads = Par.NumThreads == 1 ? 1 : Par.resolvedThreads();
  EmitOpts.Grain = Par.Grain;
  EmitOpts.Simd = Simd;
  Result<CModule> Mod = emitC(P, Shapes, EmitOpts);
  if (!Mod.ok()) {
    NP.Reason = Mod.message();
    return NP;
  }
  CgenSpan.arg("source_bytes", double(Mod->Source.size()));

  char Dir[] = "/tmp/augur_native_XXXXXX";
  if (!mkdtemp(Dir)) {
    NP.Reason = "mkdtemp failed";
    return NP;
  }
  std::string CPath = std::string(Dir) + "/" + Name + ".c";
  std::string SoPath = std::string(Dir) + "/" + Name + ".so";
  {
    std::ofstream Out(CPath);
    Out << Mod->Source;
  }
  std::string Cmd = "cc -O2 -fPIC -shared";
  if (Simd) {
    // Vector codegen for the annotated Par loops. No -ffast-math: the
    // emitted arithmetic must stay bit-compatible with the interpreter
    // (the differential harness compares streams exactly), so only
    // reorderings that preserve IEEE semantics are allowed.
    Cmd += " -ftree-vectorize -ffp-contract=off";
    if (simd::cpuHasAvx2())
      Cmd += " -mavx2";
  }
  if (Mod->Parallel)
    Cmd += " -pthread -fno-strict-aliasing";
  Cmd += " -o " + SoPath + " " + CPath + " -lm 2>/dev/null";
  if (std::system(Cmd.c_str()) != 0) {
    NP.Reason = "host C compiler failed";
    return NP;
  }
  // A parallel module spawns detached pool workers whose code lives in
  // the module; RTLD_NODELETE keeps it mapped after dlclose so a worker
  // parked in pthread_cond_wait never resumes into unmapped memory.
  int Flags = RTLD_NOW | RTLD_LOCAL;
  if (Mod->Parallel)
    Flags |= RTLD_NODELETE;
  NP.Handle = dlopen(SoPath.c_str(), Flags);
  if (!NP.Handle) {
    NP.Reason = strFormat("dlopen failed: %s", dlerror());
    return NP;
  }
  NP.Entry = reinterpret_cast<decltype(NP.Entry)>(
      dlsym(NP.Handle, Name.c_str()));
  NP.CtxNew = reinterpret_cast<decltype(NP.CtxNew)>(
      dlsym(NP.Handle, "augur_ctx_new"));
  NP.CtxFree = reinterpret_cast<decltype(NP.CtxFree)>(
      dlsym(NP.Handle, "augur_ctx_free"));
  NP.Profile = reinterpret_cast<decltype(NP.Profile)>(
      dlsym(NP.Handle, "augur_get_profile"));
  if (!NP.Entry || !NP.CtxNew || !NP.CtxFree || !NP.Profile) {
    NP.Entry = nullptr;
    NP.Reason = "symbol not found in compiled library";
    dlclose(NP.Handle);
    NP.Handle = nullptr;
    return NP;
  }
  if (Mod->Parallel) {
    using SetThreadsTy = void (*)(int64_t, int64_t);
    if (auto *Set = reinterpret_cast<SetThreadsTy>(
            dlsym(NP.Handle, "augur_set_threads")))
      Set(Par.resolvedThreads(), Par.Grain);
  }
  NP.Fields = Mod->Fields;
  CgenSpan.arg("native", 1.0);
  return NP;
}

NativeEngine::~NativeEngine() {
  for (auto &KV : Binds)
    if (KV.second.Ctx)
      KV.second.M->CtxFree(KV.second.Ctx);
}

std::string NativeEngine::fallbackReason(const std::string &Name) const {
  const NativeModules::Module *M = Mods ? Mods->find(Name) : nullptr;
  return M ? M->Reason : "not yet compiled";
}

NativeEngine::Bound &NativeEngine::bind(const std::string &Name) {
  auto It = Binds.find(Name);
  if (It != Binds.end())
    return It->second;
  if (!Mods)
    Mods = std::make_shared<NativeModules>(Par, simdEnabled());
  const LowppProc &P = proc(Name);
  allocateOutputs(P, env());
  Bound B;
  B.M = &Mods->get(P, env());
  if (B.M->Entry)
    B.Ctx = B.M->CtxNew();
  return Binds.emplace(Name, B).first->second;
}

void NativeEngine::buildFrame(const Bound &B, std::vector<char> &Buf) {
  Buf.clear();
  auto Push = [&Buf](const void *P, size_t N) {
    size_t Off = Buf.size();
    Buf.resize(Off + N);
    std::memcpy(Buf.data() + Off, P, N);
  };
  for (const auto &F : B.M->Fields) {
    Value &V = env()[F.Var];
    switch (F.K) {
    case FrameField::Kind::RealPtr: {
      double *P = nullptr;
      if (V.isRealScalar())
        P = &V.realRef();
      else
        P = V.realVec().flat().data();
      Push(&P, sizeof(P));
      break;
    }
    case FrameField::Kind::IntPtr: {
      int64_t *P = nullptr;
      if (V.isIntScalar())
        P = &V.intRef();
      else
        P = V.intVec().flat().data();
      Push(&P, sizeof(P));
      break;
    }
    case FrameField::Kind::OffsetsPtr: {
      const int64_t *P = V.isRealVec() ? V.realVec().offsets().data()
                                       : V.intVec().offsets().data();
      Push(&P, sizeof(P));
      break;
    }
    case FrameField::Kind::Length: {
      int64_t Len =
          V.isRealVec() ? V.realVec().flatSize() : V.intVec().flatSize();
      Push(&Len, sizeof(Len));
      break;
    }
    }
  }
  // The trailing member of every frame: this engine's context.
  Push(&B.Ctx, sizeof(B.Ctx));
}

void NativeEngine::runProc(const std::string &Name) {
  Bound &B = bind(Name);
  if (!B.M->Entry) {
    InterpEngine::runProc(Name);
    return;
  }
  std::vector<char> Frame;
  buildFrame(B, Frame);
  B.M->Entry(Frame.data());

  // Fold this engine's occupancy profile into the attached recorder
  // under the same keys the interpreter records, so a native run
  // exports the exact interpreter schema. Only nonzero slots are
  // folded: a sequential module reports zeros, matching the
  // interpreter's silence for sequential execution.
  Recorder *T = telemetry();
  // A natively-executed proc under an armed SIMD policy is the native
  // backend's vector path (ivdep-annotated, host-vectorized module);
  // record the same three vec_* keys the interpreter engine exports so
  // both backends keep an identical metric schema.
  if (simdEnabled() && T && T->enabled()) {
    const ExecTelemetryKeys &K = telemetryKeys();
    T->count(K.VecRuns, 1);
    T->count(K.VecFallback, 0);
    T->count(K.VecAlias, 0);
  }
  if (T && T->enabled()) {
    long long Prof[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    B.M->Profile(B.Ctx, Prof);
    const ExecTelemetryKeys &K = telemetryKeys();
    const std::string *Keys[8] = {&K.Loops,  &K.Iters, &K.Chunks,
                                  &K.Steals, &K.Busy,  &K.Thread,
                                  &K.ReduceRegions, &K.ReduceBytes};
    for (int I = 0; I < 8; ++I)
      if (Prof[I] > 0)
        T->count(*Keys[I], uint64_t(Prof[I]));
  }
}
