// The unit of CGM computation: a Program is the per-virtual-processor code,
// executed once per compound superstep. Its per-processor state must
// round-trip through the byte archives, because the EM engine destroys the
// in-memory state after every superstep and reloads it from disk — exactly
// the context swapping of the paper's Algorithm 2.
#pragma once

#include <memory>
#include <string>

#include "util/archive.h"

namespace emcgm::cgm {

class ProcCtx;

/// Serializable per-virtual-processor state.
class ProcState {
 public:
  virtual ~ProcState() = default;
  virtual void save(WriteArchive& ar) const = 0;
  virtual void load(ReadArchive& ar) = 0;
  /// The bytes save() writes, without writing them.
  virtual std::size_t saved_bytes() const = 0;
};

/// A CGM algorithm (or one stage of a pipeline of them). The object itself
/// is immutable during a run and shared by all virtual processors; all
/// mutable data lives in the ProcState.
class Program {
 public:
  virtual ~Program() = default;

  virtual std::string name() const = 0;

  virtual std::unique_ptr<ProcState> make_state() const = 0;

  /// One compound superstep: read the inbox through the ProcCtx readers
  /// (recv_concat, recv_from, prim::recv_by_src), compute, ctx.send(...).
  /// At superstep 0 the inbox is empty and ctx.input(k) is available; the
  /// program must absorb inputs into its state during round 0.
  virtual void round(ProcCtx& ctx, ProcState& state) const = 0;

  /// Queried after each round. Must return the same value on every virtual
  /// processor of a superstep (CGM termination is globally synchronous); the
  /// engines verify this. A round in which done() becomes true must not
  /// have sent messages.
  virtual bool done(const ProcCtx& ctx, const ProcState& state) const = 0;
};

/// Convenience adaptor: programs with a concrete state type S providing
/// default construction plus `auto fields()`, a std::tie of its members in
/// archive order. Both directions of the context encoding derive from that
/// one list (WriteArchive::put_fields / ReadArchive::get_fields), and so
/// does the saved size (WriteArchive::fields_bytes).
template <typename S>
class ProgramT : public Program {
 public:
  std::unique_ptr<ProcState> make_state() const final {
    return std::make_unique<Wrap>();
  }

  void round(ProcCtx& ctx, ProcState& state) const final {
    round(ctx, static_cast<Wrap&>(state).s);
  }

  bool done(const ProcCtx& ctx, const ProcState& state) const final {
    return done(ctx, static_cast<const Wrap&>(state).s);
  }

  virtual void round(ProcCtx& ctx, S& state) const = 0;
  virtual bool done(const ProcCtx& ctx, const S& state) const = 0;

 private:
  struct Wrap final : ProcState {
    S s{};
    // A Wrap is never a const object, so reading through the mutable
    // field list is sound.
    void save(WriteArchive& ar) const override {
      ar.put_fields(const_cast<S&>(s).fields());
    }
    void load(ReadArchive& ar) override { ar.get_fields(s.fields()); }
    std::size_t saved_bytes() const override {
      return WriteArchive::fields_bytes(const_cast<S&>(s).fields());
    }
  };
};

}  // namespace emcgm::cgm
