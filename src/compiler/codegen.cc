#include "src/compiler/codegen.h"

#include <algorithm>
#include <vector>

#include "src/common/strings.h"
#include "src/mcu/hostio.h"
#include "src/mcu/memory_map.h"
#include "src/mcu/multiplier.h"

namespace amulet {

namespace {

class FunctionCodegen {
 public:
  FunctionCodegen(const IrFunction& fn, const CodegenOptions& options,
                  std::string gate_prefix, std::string* out)
      : fn_(fn),
        gate_prefix_(std::move(gate_prefix)),
        shadow_ret_stack_(options.shadow_ret_stack),
        out_(out),
        forward_values_(options.forward_values),
        use_hw_multiplier_(options.use_hw_multiplier) {}

  Result<int> Run();  // returns stack bytes per activation

 private:
  void Line(const std::string& text) {
    out_->append("  ");
    out_->append(text);
    out_->push_back('\n');
  }
  void Label(const std::string& name) {
    out_->append(name);
    out_->append(":\n");
  }
  std::string LocalLabel(int id) const {
    return StrFormat("%s_L%d", fn_.name.c_str(), id);
  }
  std::string UniqueLabel() { return StrFormat("%s_T%d", fn_.name.c_str(), temp_label_++); }

  // Paired zero-size labels bracketing compiler-inserted check sequences.
  // The scope profiler (src/scope/region_map.h) parses them back out of the
  // image's symbol table to attribute cycles; they assemble to no bytes, so
  // the generated code is bit-identical whether or not anyone is profiling.
  std::string ScopeBegin(const char* tag) {
    std::string id = StrFormat("%s_S%d", fn_.name.c_str(), scope_id_++);
    Label(StrFormat("__scope_b_%s_%s", tag, id.c_str()));
    return id;
  }
  void ScopeEnd(const char* tag, const std::string& id) {
    Label(StrFormat("__scope_e_%s_%s", tag, id.c_str()));
  }

  // Frame slot addressing: "-6(r4)".
  std::string Slot(int offset) const { return StrFormat("%d(r4)", offset); }
  int VregOffset(int vr) const { return vreg_offsets_[vr]; }
  std::string Vreg(int vr) const { return Slot(VregOffset(vr)); }
  // High word of a 4-byte vreg.
  std::string VregHi(int vr) const { return Slot(VregOffset(vr) + 2); }
  int VregWidth(int vr) const { return fn_.vreg_width[vr]; }
  int LocalOffset(int slot) const { return local_offsets_[slot]; }

  // Value forwarding: r12/r13 each remember which vreg's value they hold.
  // Valid only along straight-line code; InvalidateRegs() at control merges
  // and after calls.
  int* HoldsSlot(const char* reg) {
    if (reg[1] == '1' && reg[2] == '2' && reg[3] == '\0') {
      return &holds_r12_;
    }
    if (reg[1] == '1' && reg[2] == '3' && reg[3] == '\0') {
      return &holds_r13_;
    }
    return nullptr;
  }
  void InvalidateRegs() {
    holds_r12_ = -1;
    holds_r13_ = -1;
  }
  // 32-bit values travel in the r12(lo):r13(hi) pair; the forwarding map
  // only understands 16-bit values, so pair traffic just invalidates it.
  void Load32(int vr) {
    Line(StrFormat("mov %s, r12", Vreg(vr).c_str()));
    Line(StrFormat("mov %s, r13", VregHi(vr).c_str()));
    InvalidateRegs();
  }
  void Store32(int vr) {
    Line(StrFormat("mov r12, %s", Vreg(vr).c_str()));
    Line(StrFormat("mov r13, %s", VregHi(vr).c_str()));
    InvalidateRegs();
  }
  void LoadVreg(int vr, const char* reg) {
    int* holds = forward_values_ ? HoldsSlot(reg) : nullptr;
    if (holds != nullptr && *holds == vr) {
      return;  // the register already carries this vreg's value
    }
    Line(StrFormat("mov %s, %s", Vreg(vr).c_str(), reg));
    if (holds != nullptr) {
      *holds = vr;
    }
  }
  void StoreVreg(const char* reg, int vr) {
    Line(StrFormat("mov %s, %s", reg, Vreg(vr).c_str()));
    // Any other register caching this vreg is now stale.
    int* holds = HoldsSlot(reg);
    if (&holds_r12_ != holds && holds_r12_ == vr) {
      holds_r12_ = -1;
    }
    if (&holds_r13_ != holds && holds_r13_ == vr) {
      holds_r13_ = -1;
    }
    if (holds != nullptr) {
      *holds = vr;
    }
  }

  // Condition-code mapping after "cmp b, a" (flags = a - b).
  struct JumpSpec {
    const char* insn;
    bool swap;  // emit cmp a, b instead (canonicalize Gt/Le)
  };
  static JumpSpec JumpFor(IrRel rel) {
    switch (rel) {
      case IrRel::kEq: return {"jeq", false};
      case IrRel::kNe: return {"jne", false};
      case IrRel::kLtS: return {"jl", false};
      case IrRel::kGeS: return {"jge", false};
      case IrRel::kLtU: return {"jlo", false};
      case IrRel::kGeU: return {"jhs", false};
      case IrRel::kGtS: return {"jl", true};    // a > b  ==  b < a
      case IrRel::kLeS: return {"jge", true};   // a <= b ==  b >= a
      case IrRel::kGtU: return {"jlo", true};
      case IrRel::kLeU: return {"jhs", true};
    }
    return {"jeq", false};
  }
  static IrRel Inverse(IrRel rel) {
    switch (rel) {
      case IrRel::kEq: return IrRel::kNe;
      case IrRel::kNe: return IrRel::kEq;
      case IrRel::kLtS: return IrRel::kGeS;
      case IrRel::kGeS: return IrRel::kLtS;
      case IrRel::kLtU: return IrRel::kGeU;
      case IrRel::kGeU: return IrRel::kLtU;
      case IrRel::kGtS: return IrRel::kLeS;
      case IrRel::kLeS: return IrRel::kGtS;
      case IrRel::kGtU: return IrRel::kLeU;
      case IrRel::kLeU: return IrRel::kGtU;
    }
    return IrRel::kNe;
  }

  void EmitCompare(const IrInst& cmp, IrRel rel, const std::string& target);
  void EmitCompare32(const IrInst& cmp, IrRel rel, const std::string& target);
  Status EmitInst(size_t index, bool* consumed_next);
  void EmitEpilogue();

  const IrFunction& fn_;
  std::string gate_prefix_;  // "__gate_<app>_": per-app syscall gates
  bool shadow_ret_stack_ = false;
  std::string* out_;
  std::vector<int> local_offsets_;
  std::vector<int> vreg_offsets_;
  int frame_size_ = 0;
  int temp_label_ = 0;
  int scope_id_ = 0;
  int last_check_vr_ = -1;  // address vreg currently staged in r11
  bool forward_values_ = true;
  bool use_hw_multiplier_ = false;
  int holds_r12_ = -1;
  int holds_r13_ = -1;
  std::string epilogue_label_;
};

void FunctionCodegen::EmitCompare(const IrInst& cmp, IrRel rel, const std::string& target) {
  if (cmp.width == 4) {
    EmitCompare32(cmp, rel, target);
    return;
  }
  JumpSpec spec = JumpFor(rel);
  int lhs = cmp.a;
  int rhs = cmp.b;
  if (spec.swap) {
    std::swap(lhs, rhs);
  }
  LoadVreg(lhs, "r12");
  Line(StrFormat("cmp %s, r12", Vreg(rhs).c_str()));
  Line(StrFormat("%s %s", spec.insn, target.c_str()));
}

// 32-bit comparison: decide on the high words when they differ (signedness
// applies there), otherwise on an unsigned comparison of the low words.
void FunctionCodegen::EmitCompare32(const IrInst& cmp, IrRel rel, const std::string& target) {
  // Canonicalize Gt/Le into Lt/Ge with swapped operands.
  int lhs = cmp.a;
  int rhs = cmp.b;
  switch (rel) {
    case IrRel::kGtS: rel = IrRel::kLtS; std::swap(lhs, rhs); break;
    case IrRel::kLeS: rel = IrRel::kGeS; std::swap(lhs, rhs); break;
    case IrRel::kGtU: rel = IrRel::kLtU; std::swap(lhs, rhs); break;
    case IrRel::kLeU: rel = IrRel::kGeU; std::swap(lhs, rhs); break;
    default: break;
  }
  const char* low_jump = nullptr;   // unsigned low-word decision
  const char* high_jump = nullptr;  // high-word decision when highs differ
  switch (rel) {
    case IrRel::kEq:  low_jump = "jeq"; high_jump = nullptr; break;  // differ -> false
    case IrRel::kNe:  low_jump = "jne"; high_jump = "jmp"; break;    // differ -> true
    case IrRel::kLtS: low_jump = "jlo"; high_jump = "jl"; break;
    case IrRel::kGeS: low_jump = "jhs"; high_jump = "jge"; break;
    case IrRel::kLtU: low_jump = "jlo"; high_jump = "jlo"; break;
    case IrRel::kGeU: low_jump = "jhs"; high_jump = "jhs"; break;
    default: low_jump = "jeq"; high_jump = nullptr; break;
  }
  std::string high_differs = UniqueLabel();
  std::string done = UniqueLabel();
  InvalidateRegs();
  Line(StrFormat("mov %s, r13", VregHi(lhs).c_str()));
  Line(StrFormat("cmp %s, r13", VregHi(rhs).c_str()));
  Line(StrFormat("jne %s", high_differs.c_str()));
  Line(StrFormat("mov %s, r12", Vreg(lhs).c_str()));
  Line(StrFormat("cmp %s, r12", Vreg(rhs).c_str()));
  Line(StrFormat("%s %s", low_jump, target.c_str()));
  Line(StrFormat("jmp %s", done.c_str()));
  Label(high_differs);
  if (high_jump != nullptr) {
    Line(StrFormat("%s %s", high_jump, target.c_str()));
  }
  Label(done);
}

Status FunctionCodegen::EmitInst(size_t index, bool* consumed_next) {
  const IrInst& inst = fn_.insts[index];
  *consumed_next = false;
  switch (inst.op) {
    case IrOp::kConst:
      if (inst.width == 4) {
        Line(StrFormat("mov #%d, %s", static_cast<int16_t>(inst.imm & 0xFFFF),
                       Vreg(inst.dst).c_str()));
        Line(StrFormat("mov #%d, %s",
                       static_cast<int16_t>((static_cast<uint32_t>(inst.imm) >> 16) & 0xFFFF),
                       VregHi(inst.dst).c_str()));
      } else {
        Line(StrFormat("mov #%d, %s", inst.imm, Vreg(inst.dst).c_str()));
      }
      if (holds_r12_ == inst.dst) {
        holds_r12_ = -1;
      }
      if (holds_r13_ == inst.dst) {
        holds_r13_ = -1;
      }
      return OkStatus();

    case IrOp::kCopy:
      if (inst.width == 4) {
        Load32(inst.a);
        Store32(inst.dst);
        return OkStatus();
      }
      LoadVreg(inst.a, "r12");
      StoreVreg("r12", inst.dst);
      return OkStatus();

    case IrOp::kBin: {
      switch (inst.bin) {
        case IrBin::kAdd:
        case IrBin::kSub:
        case IrBin::kAnd:
        case IrBin::kOr:
        case IrBin::kXor: {
          const char* op = "add";
          const char* op_hi = "addc";
          if (inst.bin == IrBin::kSub) {
            op = "sub";
            op_hi = "subc";
          } else if (inst.bin == IrBin::kAnd) {
            op = "and";
            op_hi = "and";
          } else if (inst.bin == IrBin::kOr) {
            op = "bis";
            op_hi = "bis";
          } else if (inst.bin == IrBin::kXor) {
            op = "xor";
            op_hi = "xor";
          }
          if (inst.width == 4) {
            Load32(inst.a);
            Line(StrFormat("%s %s, r12", op, Vreg(inst.b).c_str()));
            Line(StrFormat("%s %s, r13", op_hi, VregHi(inst.b).c_str()));
            Store32(inst.dst);
            return OkStatus();
          }
          LoadVreg(inst.a, "r12");
          holds_r12_ = -1;
          Line(StrFormat("%s %s, r12", op, Vreg(inst.b).c_str()));
          StoreVreg("r12", inst.dst);
          return OkStatus();
        }
        case IrBin::kMul:
          if (use_hw_multiplier_ && inst.width == 2) {
            // Low 16 bits of a 16x16 product are sign-agnostic: the unsigned
            // MPY path serves signed multiplies too.
            Line(StrFormat("mov %s, &%d", Vreg(inst.a).c_str(), kMpyRegBase + kMpyOp1Unsigned));
            Line(StrFormat("mov %s, &%d", Vreg(inst.b).c_str(), kMpyRegBase + kMpyOp2));
            holds_r12_ = -1;
            Line(StrFormat("mov &%d, r12", kMpyRegBase + kMpyResLo));
            StoreVreg("r12", inst.dst);
            return OkStatus();
          }
          [[fallthrough]];
        case IrBin::kDivS:
        case IrBin::kDivU:
        case IrBin::kModS:
        case IrBin::kModU:
        case IrBin::kShl:
        case IrBin::kShr:
        case IrBin::kSar: {
          if (inst.width == 4) {
            const char* routine = "__rt_mul32";
            switch (inst.bin) {
              case IrBin::kMul: routine = "__rt_mul32"; break;
              case IrBin::kDivS: routine = "__rt_divs32"; break;
              case IrBin::kDivU: routine = "__rt_divu32"; break;
              case IrBin::kModS: routine = "__rt_mods32"; break;
              case IrBin::kModU: routine = "__rt_modu32"; break;
              case IrBin::kShl: routine = "__rt_shl32"; break;
              case IrBin::kShr: routine = "__rt_shr32"; break;
              case IrBin::kSar: routine = "__rt_sar32"; break;
              default: break;
            }
            Load32(inst.a);
            Line(StrFormat("mov %s, r14", Vreg(inst.b).c_str()));
            Line(StrFormat("mov %s, r15", VregHi(inst.b).c_str()));
            Line(StrFormat("call #%s", routine));
            InvalidateRegs();
            Store32(inst.dst);
            return OkStatus();
          }
          const char* routine = "__rt_mul";
          switch (inst.bin) {
            case IrBin::kMul: routine = "__rt_mul"; break;
            case IrBin::kDivS: routine = "__rt_divs"; break;
            case IrBin::kDivU: routine = "__rt_divu"; break;
            case IrBin::kModS: routine = "__rt_mods"; break;
            case IrBin::kModU: routine = "__rt_modu"; break;
            case IrBin::kShl: routine = "__rt_shl"; break;
            case IrBin::kShr: routine = "__rt_shr"; break;
            case IrBin::kSar: routine = "__rt_sar"; break;
            default: break;
          }
          LoadVreg(inst.a, "r12");
          LoadVreg(inst.b, "r13");
          Line(StrFormat("call #%s", routine));
          InvalidateRegs();
          StoreVreg("r12", inst.dst);
          return OkStatus();
        }
      }
      return InternalError("unhandled IR binary op");
    }

    case IrOp::kShiftImm: {
      if (inst.width == 4) {
        Load32(inst.a);
        for (int i = 0; i < inst.imm; ++i) {
          if (inst.bin == IrBin::kShl) {
            Line("rla r12");
            Line("rlc r13");
          } else if (inst.bin == IrBin::kSar) {
            Line("rra r13");
            Line("rrc r12");
          } else {
            Line("clrc");
            Line("rrc r13");
            Line("rrc r12");
          }
        }
        Store32(inst.dst);
        return OkStatus();
      }
      LoadVreg(inst.a, "r12");
      holds_r12_ = -1;
      for (int i = 0; i < inst.imm; ++i) {
        if (inst.bin == IrBin::kShl) {
          Line("rla r12");
        } else if (inst.bin == IrBin::kSar) {
          Line("rra r12");
        } else {
          Line("clrc");
          Line("rrc r12");
        }
      }
      StoreVreg("r12", inst.dst);
      return OkStatus();
    }

    case IrOp::kCmp: {
      // Fuse with an immediately following branch on this result.
      if (index + 1 < fn_.insts.size()) {
        const IrInst& next = fn_.insts[index + 1];
        if ((next.op == IrOp::kBranchNonZero || next.op == IrOp::kBranchZero) &&
            next.a == inst.dst) {
          IrRel rel = next.op == IrOp::kBranchNonZero ? inst.rel : Inverse(inst.rel);
          EmitCompare(inst, rel, LocalLabel(next.imm));
          *consumed_next = true;
          return OkStatus();
        }
      }
      // Materialize 0/1.
      if (inst.width == 4) {
        std::string take32 = UniqueLabel();
        std::string end32 = UniqueLabel();
        EmitCompare32(inst, inst.rel, take32);
        Line("mov #0, r12");
        Line(StrFormat("jmp %s", end32.c_str()));
        Label(take32);
        Line("mov #1, r12");
        Label(end32);
        InvalidateRegs();
        StoreVreg("r12", inst.dst);
        return OkStatus();
      }
      std::string take = UniqueLabel();
      JumpSpec spec = JumpFor(inst.rel);
      int lhs = inst.a;
      int rhs = inst.b;
      if (spec.swap) {
        std::swap(lhs, rhs);
      }
      LoadVreg(lhs, "r12");
      holds_r12_ = -1;
      Line(StrFormat("cmp %s, r12", Vreg(rhs).c_str()));
      Line("mov #1, r12");
      Line(StrFormat("%s %s", spec.insn, take.c_str()));
      Line("mov #0, r12");
      Label(take);
      StoreVreg("r12", inst.dst);
      return OkStatus();
    }

    case IrOp::kNeg:
      if (inst.width == 4) {
        Load32(inst.a);
        Line("inv r12");
        Line("inv r13");
        Line("inc r12");
        Line("adc r13");
        Store32(inst.dst);
        return OkStatus();
      }
      LoadVreg(inst.a, "r12");
      holds_r12_ = -1;
      Line("inv r12");
      Line("inc r12");
      StoreVreg("r12", inst.dst);
      return OkStatus();

    case IrOp::kNot:
      if (inst.width == 4) {
        Load32(inst.a);
        Line("inv r12");
        Line("inv r13");
        Store32(inst.dst);
        return OkStatus();
      }
      LoadVreg(inst.a, "r12");
      holds_r12_ = -1;
      Line("inv r12");
      StoreVreg("r12", inst.dst);
      return OkStatus();

    case IrOp::kLoadLocal: {
      int off = LocalOffset(inst.a) + inst.imm;
      holds_r12_ = -1;
      if (inst.width == 4) {
        Line(StrFormat("mov %s, r12", Slot(off).c_str()));
        Line(StrFormat("mov %s, r13", Slot(off + 2).c_str()));
        Store32(inst.dst);
        return OkStatus();
      }
      if (inst.width == 1) {
        Line(StrFormat("mov.b %s, r12", Slot(off).c_str()));
        if (inst.signed_load) {
          Line("sxt r12");
        }
      } else {
        Line(StrFormat("mov %s, r12", Slot(off).c_str()));
      }
      StoreVreg("r12", inst.dst);
      return OkStatus();
    }

    case IrOp::kStoreLocal: {
      int off = LocalOffset(inst.a) + inst.imm;
      if (inst.width == 4) {
        Load32(inst.b);
        Line(StrFormat("mov r12, %s", Slot(off).c_str()));
        Line(StrFormat("mov r13, %s", Slot(off + 2).c_str()));
        return OkStatus();
      }
      LoadVreg(inst.b, "r12");
      Line(StrFormat("mov%s r12, %s", inst.width == 1 ? ".b" : "", Slot(off).c_str()));
      return OkStatus();
    }

    case IrOp::kLoadGlobal: {
      std::string addr = inst.imm != 0 ? StrFormat("&%s + %d", inst.symbol.c_str(), inst.imm)
                                       : StrFormat("&%s", inst.symbol.c_str());
      holds_r12_ = -1;
      if (inst.width == 4) {
        Line(StrFormat("mov %s, r12", addr.c_str()));
        Line(StrFormat("mov &%s + %d, r13", inst.symbol.c_str(), inst.imm + 2));
        Store32(inst.dst);
        return OkStatus();
      }
      if (inst.width == 1) {
        Line(StrFormat("mov.b %s, r12", addr.c_str()));
        if (inst.signed_load) {
          Line("sxt r12");
        }
      } else {
        Line(StrFormat("mov %s, r12", addr.c_str()));
      }
      StoreVreg("r12", inst.dst);
      return OkStatus();
    }

    case IrOp::kStoreGlobal: {
      std::string addr = inst.imm != 0 ? StrFormat("&%s + %d", inst.symbol.c_str(), inst.imm)
                                       : StrFormat("&%s", inst.symbol.c_str());
      if (inst.width == 4) {
        Load32(inst.b);
        Line(StrFormat("mov r12, %s", addr.c_str()));
        Line(StrFormat("mov r13, &%s + %d", inst.symbol.c_str(), inst.imm + 2));
        return OkStatus();
      }
      LoadVreg(inst.b, "r12");
      Line(StrFormat("mov%s r12, %s", inst.width == 1 ? ".b" : "", addr.c_str()));
      return OkStatus();
    }

    case IrOp::kLoad:
      if (inst.width == 4) {
        if (last_check_vr_ != inst.a) {
          LoadVreg(inst.a, "r11");
          last_check_vr_ = inst.a;
        }
        Line("mov @r11, r12");
        Line("mov 2(r11), r13");
        Store32(inst.dst);
        return OkStatus();
      }
      LoadVreg(inst.a, "r12");
      holds_r12_ = -1;
      if (inst.width == 1) {
        Line("mov.b @r12, r12");
        if (inst.signed_load) {
          Line("sxt r12");
        }
      } else {
        Line("mov @r12, r12");
      }
      StoreVreg("r12", inst.dst);
      return OkStatus();

    case IrOp::kStore:
      if (inst.width == 4) {
        if (last_check_vr_ != inst.a) {
          LoadVreg(inst.a, "r11");
          last_check_vr_ = inst.a;
        }
        Load32(inst.b);
        Line("mov r12, 0(r11)");
        Line("mov r13, 2(r11)");
        return OkStatus();
      }
      LoadVreg(inst.a, "r12");
      LoadVreg(inst.b, "r13");
      Line(StrFormat("mov%s r13, 0(r12)", inst.width == 1 ? ".b" : ""));
      return OkStatus();

    case IrOp::kAddrLocal: {
      int off = LocalOffset(inst.a) + inst.imm;
      holds_r12_ = -1;
      Line("mov r4, r12");
      if (off != 0) {
        Line(StrFormat("add #%d, r12", off));
      }
      StoreVreg("r12", inst.dst);
      return OkStatus();
    }

    case IrOp::kAddrGlobal: {
      if (inst.imm != 0) {
        Line(StrFormat("mov #%s + %d, %s", inst.symbol.c_str(), inst.imm,
                       Vreg(inst.dst).c_str()));
      } else {
        Line(StrFormat("mov #%s, %s", inst.symbol.c_str(), Vreg(inst.dst).c_str()));
      }
      if (holds_r12_ == inst.dst) {
        holds_r12_ = -1;
      }
      if (holds_r13_ == inst.dst) {
        holds_r13_ = -1;
      }
      return OkStatus();
    }

    case IrOp::kCall:
    case IrOp::kCallApi:
    case IrOp::kCallInd: {
      static const char* kArgRegs[4] = {"r12", "r13", "r14", "r15"};
      if (inst.op == IrOp::kCallInd) {
        LoadVreg(inst.a, "r11");
      }
      int reg_cursor = 0;
      for (size_t i = 0; i < inst.args.size(); ++i) {
        const int words = VregWidth(inst.args[i]) / 2;
        if (reg_cursor + words > 4) {
          return InternalError("call arguments exceed 4 register words in codegen");
        }
        if (words == 2) {
          Line(StrFormat("mov %s, %s", Vreg(inst.args[i]).c_str(), kArgRegs[reg_cursor]));
          Line(StrFormat("mov %s, %s", VregHi(inst.args[i]).c_str(),
                         kArgRegs[reg_cursor + 1]));
          InvalidateRegs();  // raw pair load may have clobbered tracked regs
        } else {
          LoadVreg(inst.args[i], kArgRegs[reg_cursor]);
        }
        reg_cursor += words;
      }
      if (inst.op == IrOp::kCall) {
        Line(StrFormat("call #%s", inst.symbol.c_str()));
      } else if (inst.op == IrOp::kCallApi) {
        Line(StrFormat("call #%s%s", gate_prefix_.c_str(), inst.symbol.c_str()));
      } else {
        Line("call r11");
      }
      InvalidateRegs();
      if (inst.dst >= 0) {
        if (VregWidth(inst.dst) == 4) {
          Store32(inst.dst);
        } else {
          StoreVreg("r12", inst.dst);
        }
      }
      return OkStatus();
    }

    case IrOp::kRet:
      if (inst.a >= 0) {
        if (inst.width == 4) {
          Load32(inst.a);
        } else {
          LoadVreg(inst.a, "r12");
        }
      }
      // Fall to the shared epilogue (last kRet elides the jump).
      if (index + 1 < fn_.insts.size()) {
        Line(StrFormat("jmp %s", epilogue_label_.c_str()));
      }
      return OkStatus();

    case IrOp::kJump:
      Line(StrFormat("jmp %s", LocalLabel(inst.imm).c_str()));
      return OkStatus();

    case IrOp::kBranchZero:
      if (VregWidth(inst.a) == 4) {
        Load32(inst.a);
        Line("bis r13, r12");
        Line("tst r12");
      } else {
        LoadVreg(inst.a, "r12");
        Line("tst r12");
      }
      Line(StrFormat("jz %s", LocalLabel(inst.imm).c_str()));
      return OkStatus();

    case IrOp::kBranchNonZero:
      if (VregWidth(inst.a) == 4) {
        Load32(inst.a);
        Line("bis r13, r12");
        Line("tst r12");
      } else {
        LoadVreg(inst.a, "r12");
        Line("tst r12");
      }
      Line(StrFormat("jnz %s", LocalLabel(inst.imm).c_str()));
      return OkStatus();

    case IrOp::kLabel:
      Label(LocalLabel(inst.imm));
      return OkStatus();

    case IrOp::kCheckMarker:
      return InternalError(
          "kCheckMarker reached codegen: run AFT phase 2 (InsertChecks) first");

    case IrOp::kWiden: {
      LoadVreg(inst.a, "r12");
      if (inst.signed_load) {
        // Branch-free sign extension: C = sign bit, then r13 = C ? 0xFFFF : 0
        // inverted (see the subc identity).
        Line("mov r12, r13");
        Line("rla r13");
        Line("subc r13, r13");
        Line("inv r13");
      } else {
        Line("clr r13");
      }
      Store32(inst.dst);
      return OkStatus();
    }

    case IrOp::kNarrow:
      holds_r12_ = -1;
      Line(StrFormat("mov %s, r12", Vreg(inst.a).c_str()));
      StoreVreg("r12", inst.dst);
      return OkStatus();

    case IrOp::kCheckLow: {
      // Keep r11 loaded across consecutive checks of the same address.
      std::string ok = UniqueLabel();
      std::string scope = ScopeBegin("cklo");
      if (last_check_vr_ != inst.a) {
        LoadVreg(inst.a, "r11");
        last_check_vr_ = inst.a;
      }
      Line(StrFormat("cmp #%s, r11", inst.symbol.c_str()));
      Line(StrFormat("jhs %s", ok.c_str()));
      Line("call #__rt_fault_mem");
      Label(ok);
      ScopeEnd("cklo", scope);
      return OkStatus();
    }

    case IrOp::kCheckHigh: {
      std::string ok = UniqueLabel();
      std::string scope = ScopeBegin("ckhi");
      if (last_check_vr_ != inst.a) {
        LoadVreg(inst.a, "r11");
        last_check_vr_ = inst.a;
      }
      Line(StrFormat("cmp #%s, r11", inst.symbol.c_str()));
      Line(StrFormat("jlo %s", ok.c_str()));
      Line("call #__rt_fault_mem");
      Label(ok);
      ScopeEnd("ckhi", scope);
      return OkStatus();
    }

    case IrOp::kCheckIndex: {
      // The feature-limited model's routine-call bounds check (mirrors the
      // original AmuletC implementation, which is why Table 1 shows it as
      // the slowest per-access scheme).
      std::string scope = ScopeBegin("ckix");
      LoadVreg(inst.a, "r14");
      Line(StrFormat("mov #%d, r15", inst.imm));
      Line("call #__rt_check_index");
      ScopeEnd("ckix", scope);
      return OkStatus();
    }
  }
  return InternalError("unhandled IR instruction");
}

void FunctionCodegen::EmitEpilogue() {
  Label(epilogue_label_);
  Line("mov r4, sp");
  Line("pop r4");
  if (shadow_ret_stack_) {
    // Pop the shadow copy and verify it matches the architectural return
    // address; any corruption (overflow, targeted overwrite) faults.
    std::string ok = UniqueLabel();
    std::string scope = ScopeBegin("ckret");
    Line("mov &__shadow_sp, r11");
    Line("decd r11");
    Line("mov r11, &__shadow_sp");
    Line("mov @r11, r11");
    Line("cmp @sp, r11");
    Line(StrFormat("jeq %s", ok.c_str()));
    Line("call #__rt_fault_ret");
    Label(ok);
    ScopeEnd("ckret", scope);
  }
  if (fn_.ret_check != RetCheckKind::kNone) {
    std::string ok1 = UniqueLabel();
    std::string scope = ScopeBegin("ckret");
    Line("mov @sp, r11");
    Line(StrFormat("cmp #%s, r11", fn_.ret_check_low_sym.c_str()));
    Line(StrFormat("jhs %s", ok1.c_str()));
    Line("call #__rt_fault_ret");
    Label(ok1);
    if (fn_.ret_check == RetCheckKind::kLowHigh) {
      std::string ok2 = UniqueLabel();
      Line(StrFormat("cmp #%s, r11", fn_.ret_check_high_sym.c_str()));
      Line(StrFormat("jlo %s", ok2.c_str()));
      Line("call #__rt_fault_ret");
      Label(ok2);
    }
    ScopeEnd("ckret", scope);
  }
  Line("ret");
}

Result<int> FunctionCodegen::Run() {
  // Frame layout: locals first (below FP), then the vreg slots (one or two
  // words each, per vreg_width).
  int offset = 0;
  local_offsets_.resize(fn_.locals.size());
  for (size_t i = 0; i < fn_.locals.size(); ++i) {
    int size = (fn_.locals[i].size + 1) & ~1;
    offset -= size;
    local_offsets_[i] = offset;
  }
  vreg_offsets_.resize(fn_.num_vregs);
  for (int vr = 0; vr < fn_.num_vregs; ++vr) {
    offset -= VregWidth(vr);
    vreg_offsets_[vr] = offset;
  }
  frame_size_ = -offset;

  epilogue_label_ = fn_.name + "_epilogue";

  Label(fn_.name);
  Line("push r4");
  Line("mov sp, r4");
  if (shadow_ret_stack_) {
    // Mirror the return address (now at FP+2) onto the InfoMem shadow stack.
    std::string scope = ScopeBegin("ckret");
    Line("mov &__shadow_sp, r11");
    Line("mov 2(r4), 0(r11)");
    Line("incd r11");
    Line("mov r11, &__shadow_sp");
    ScopeEnd("ckret", scope);
  }
  if (frame_size_ > 0) {
    Line(StrFormat("sub #%d, sp", frame_size_));
  }
  // Park incoming register arguments in their parameter slots; a long
  // parameter arrives in two consecutive registers (lo then hi).
  static const char* kArgRegs[4] = {"r12", "r13", "r14", "r15"};
  std::vector<std::pair<int, size_t>> params;  // (param_index, slot)
  for (size_t i = 0; i < fn_.locals.size(); ++i) {
    if (fn_.locals[i].is_param && fn_.locals[i].param_index >= 0) {
      params.push_back({fn_.locals[i].param_index, i});
    }
  }
  std::sort(params.begin(), params.end());
  int park_cursor = 0;
  for (const auto& [param_index, slot_index] : params) {
    const LocalSlot& slot = fn_.locals[slot_index];
    const int words = slot.size >= 4 ? 2 : 1;
    if (park_cursor + words > 4) {
      break;  // lowering rejects this; defensive only
    }
    Line(StrFormat("mov %s, %s", kArgRegs[park_cursor],
                   Slot(local_offsets_[slot_index]).c_str()));
    if (words == 2) {
      Line(StrFormat("mov %s, %s", kArgRegs[park_cursor + 1],
                     Slot(local_offsets_[slot_index] + 2).c_str()));
    }
    park_cursor += words;
  }

  for (size_t i = 0; i < fn_.insts.size(); ++i) {
    // Any label / branch boundary invalidates the checked-address cache.
    const IrOp op = fn_.insts[i].op;
    if (op == IrOp::kLabel || op == IrOp::kJump || op == IrOp::kBranchZero ||
        op == IrOp::kBranchNonZero || op == IrOp::kCall || op == IrOp::kCallApi ||
        op == IrOp::kCallInd) {
      last_check_vr_ = -1;
      InvalidateRegs();
    }
    bool consumed_next = false;
    RETURN_IF_ERROR(EmitInst(i, &consumed_next));
    if (consumed_next) {
      ++i;
    }
  }
  EmitEpilogue();
  // Activation cost: frame + pushed FP + return address.
  return frame_size_ + 4;
}

}  // namespace

Result<CodegenResult> GenerateAssembly(const IrProgram& program, const CodegenOptions& options) {
  CodegenResult result;
  std::string& out = result.assembly;
  out += StrFormat("; ---- app '%s' (generated) ----\n", program.app_name.c_str());
  out += StrFormat(".section %s\n", options.text_section.c_str());
  const std::string gate_prefix = "__gate_" + program.app_name + "_";
  for (const IrFunction& fn : program.functions) {
    FunctionCodegen gen(fn, options, gate_prefix, &out);
    ASSIGN_OR_RETURN(int stack_bytes, gen.Run());
    result.stack_bytes[fn.name] = stack_bytes;
  }
  out += StrFormat(".section %s\n", options.data_section.c_str());
  for (const auto& blob : program.globals) {
    out += ".align\n";
    out += blob.symbol + ":\n";
    // Emit bytes, substituting relocated words with .word symbol.
    std::map<int, std::string> reloc_at;
    for (const auto& r : blob.relocs) {
      reloc_at[r.offset] = r.symbol;
    }
    size_t i = 0;
    while (i < blob.bytes.size()) {
      auto it = reloc_at.find(static_cast<int>(i));
      if (it != reloc_at.end()) {
        out += StrFormat("  .word %s\n", it->second.c_str());
        i += 2;
        continue;
      }
      out += StrFormat("  .byte %d\n", blob.bytes[i]);
      ++i;
    }
    if (blob.bytes.empty()) {
      out += "  .space 2\n";
    }
  }
  for (size_t i = 0; i < program.strings.size(); ++i) {
    out += ".align\n";
    out += StrFormat("%s_s_%zu:\n", program.app_name.c_str(), i);
    for (char c : program.strings[i]) {
      out += StrFormat("  .byte %d\n", static_cast<uint8_t>(c));
    }
    out += "  .byte 0\n";
  }
  return result;
}

std::string RuntimeAssembly() {
  std::string out;
  out += StrFormat(".equ __HOSTIO_FAULTCODE, %d\n", kHostIoRegBase + kHostIoFaultCode);
  out += StrFormat(".equ __HOSTIO_FAULTADDR, %d\n", kHostIoRegBase + kHostIoFaultAddr);
  out += StrFormat(".equ __HOSTIO_STOP, %d\n", kHostIoRegBase + kHostIoStop);
  out += StrFormat(".equ __STOP_SW_FAULT, %d\n", kStopSoftwareFault);
  out += R"(
; ---- shared compiler runtime (lives in OS text) ----
; The __scope_* labels assemble to zero bytes; they let the cycle profiler
; attribute runtime-helper cycles to "runtime" (and the feature-limited bounds
; routine to "check-index") instead of lumping them in with OS code.
__scope_b_rt_rtlib:
; 16x16 -> 16 unsigned/two's-complement multiply: r12 * r13 -> r12.
__rt_mul:
  mov r12, r11
  clr r12
__rt_mul_loop:
  tst r13
  jz __rt_mul_done
  bit #1, r13
  jz __rt_mul_skip
  add r11, r12
__rt_mul_skip:
  rla r11
  clrc
  rrc r13
  jmp __rt_mul_loop
__rt_mul_done:
  ret

; Unsigned divide: r12 / r13 -> quotient r12, remainder r14.
__rt_divu:
  mov #1, r15        ; bit mask
  clr r14            ; remainder accumulates in r14 via shifted divisor
  tst r13
  jz __rt_divu_by0
__rt_divu_norm:      ; shift divisor left until >= dividend or MSB set
  cmp r12, r13       ; r13 - r12... stop when divisor >= dividend
  jhs __rt_divu_loop
  bit #0x8000, r13
  jnz __rt_divu_loop
  rla r13
  rla r15
  jmp __rt_divu_norm
__rt_divu_loop:
  clr r11            ; r11 = quotient
__rt_divu_step:
  cmp r13, r12
  jlo __rt_divu_next
  sub r13, r12
  bis r15, r11
__rt_divu_next:
  clrc
  rrc r13
  clrc
  rrc r15
  jnz __rt_divu_step
  mov r12, r14       ; remainder
  mov r11, r12       ; quotient
  ret
__rt_divu_by0:
  clr r12
  clr r14
  ret

; Signed divide: r12 / r13 -> r12 (C truncation semantics).
__rt_divs:
  clr r10            ; sign flags (bit0: negate result)
  tst r12
  jge __rt_divs_a_ok
  inv r12
  inc r12
  xor #1, r10
__rt_divs_a_ok:
  tst r13
  jge __rt_divs_b_ok
  inv r13
  inc r13
  xor #1, r10
__rt_divs_b_ok:
  push r10
  call #__rt_divu
  pop r10
  bit #1, r10
  jz __rt_divs_done
  inv r12
  inc r12
__rt_divs_done:
  ret

; Unsigned modulo: r12 % r13 -> r12.
__rt_modu:
  call #__rt_divu
  mov r14, r12
  ret

; Signed modulo (sign of the dividend, C semantics).
__rt_mods:
  clr r10
  tst r12
  jge __rt_mods_a_ok
  inv r12
  inc r12
  xor #1, r10
__rt_mods_a_ok:
  tst r13
  jge __rt_mods_b_ok
  inv r13
  inc r13
__rt_mods_b_ok:
  push r10
  call #__rt_divu
  pop r10
  mov r14, r12
  bit #1, r10
  jz __rt_mods_done
  inv r12
  inc r12
__rt_mods_done:
  ret

; Variable shifts: value r12, count r13.
__rt_shl:
  and #15, r13
  jz __rt_shl_done
__rt_shl_loop:
  rla r12
  dec r13
  jnz __rt_shl_loop
__rt_shl_done:
  ret

__rt_shr:
  and #15, r13
  jz __rt_shr_done
__rt_shr_loop:
  clrc
  rrc r12
  dec r13
  jnz __rt_shr_loop
__rt_shr_done:
  ret

__rt_sar:
  and #15, r13
  jz __rt_sar_done
__rt_sar_loop:
  rra r12
  dec r13
  jnz __rt_sar_loop
__rt_sar_done:
  ret

; Feature-limited array bounds check: index r14, limit r15.
; Faults (never returns) when index >= limit (unsigned covers index < 0).
__scope_b_ckix_rtcheckindex:
__rt_check_index:
  cmp r15, r14
  jlo __rt_ci_ok
  mov #1, &__HOSTIO_FAULTCODE
  mov r14, &__HOSTIO_FAULTADDR
  mov #__STOP_SW_FAULT, &__HOSTIO_STOP
__rt_ci_spin:
  jmp __rt_ci_spin
__rt_ci_ok:
  ret
__scope_e_ckix_rtcheckindex:

; Software-check failures. r11 holds the offending address.
__rt_fault_mem:
  mov #2, &__HOSTIO_FAULTCODE
  mov r11, &__HOSTIO_FAULTADDR
  mov #__STOP_SW_FAULT, &__HOSTIO_STOP
__rt_fm_spin:
  jmp __rt_fm_spin

__rt_fault_ret:
  mov #3, &__HOSTIO_FAULTCODE
  mov r11, &__HOSTIO_FAULTADDR
  mov #__STOP_SW_FAULT, &__HOSTIO_STOP
__rt_fr_spin:
  jmp __rt_fr_spin

; ---- 32-bit runtime (long support) ----
; Convention: a in r12(lo):r13(hi), b in r14(lo):r15(hi), result r12:r13.
; r8-r11 are scratch.

; 32x32 -> low 32 multiply (shift-add, early exit when b is exhausted).
__rt_mul32:
  clr r10
  clr r11
__rt_mul32_loop:
  bit #1, r14
  jz __rt_mul32_skip
  add r12, r10
  addc r13, r11
__rt_mul32_skip:
  rla r12
  rlc r13
  clrc
  rrc r15
  rrc r14
  tst r14
  jnz __rt_mul32_loop
  tst r15
  jnz __rt_mul32_loop
  mov r10, r12
  mov r11, r13
  ret

; Unsigned 32/32 divide: quotient r12:r13, remainder r10:r11.
__rt_divu32:
  clr r10
  clr r11
  tst r14
  jnz __rt_divu32_go
  tst r15
  jz __rt_divu32_by0
__rt_divu32_go:
  mov #32, r9
__rt_divu32_loop:
  ; shift the dividend left, MSB into the remainder
  rla r12
  rlc r13
  rlc r10
  rlc r11
  ; remainder >= divisor?
  cmp r15, r11
  jlo __rt_divu32_next
  jne __rt_divu32_sub
  cmp r14, r10
  jlo __rt_divu32_next
__rt_divu32_sub:
  sub r14, r10
  subc r15, r11
  bis #1, r12
__rt_divu32_next:
  dec r9
  jnz __rt_divu32_loop
  ret
__rt_divu32_by0:
  clr r12
  clr r13
  ret

__rt_modu32:
  call #__rt_divu32
  mov r10, r12
  mov r11, r13
  ret

; Signed divide/modulo via magnitude division (C truncation semantics).
__rt_divs32:
  clr r8
  tst r13
  jge __rt_divs32_a_ok
  inv r12
  inv r13
  inc r12
  adc r13
  xor #1, r8
__rt_divs32_a_ok:
  tst r15
  jge __rt_divs32_b_ok
  inv r14
  inv r15
  inc r14
  adc r15
  xor #1, r8
__rt_divs32_b_ok:
  push r8
  call #__rt_divu32
  pop r8
  bit #1, r8
  jz __rt_divs32_done
  inv r12
  inv r13
  inc r12
  adc r13
__rt_divs32_done:
  ret

__rt_mods32:
  clr r8
  tst r13
  jge __rt_mods32_a_ok
  inv r12
  inv r13
  inc r12
  adc r13
  xor #1, r8
__rt_mods32_a_ok:
  tst r15
  jge __rt_mods32_b_ok
  inv r14
  inv r15
  inc r14
  adc r15
__rt_mods32_b_ok:
  push r8
  call #__rt_divu32
  pop r8
  mov r10, r12
  mov r11, r13
  bit #1, r8
  jz __rt_mods32_done
  inv r12
  inv r13
  inc r12
  adc r13
__rt_mods32_done:
  ret

; 32-bit shifts: value r12:r13, count r14 (mod 32).
__rt_shl32:
  and #31, r14
  jz __rt_shl32_done
__rt_shl32_loop:
  rla r12
  rlc r13
  dec r14
  jnz __rt_shl32_loop
__rt_shl32_done:
  ret

__rt_shr32:
  and #31, r14
  jz __rt_shr32_done
__rt_shr32_loop:
  clrc
  rrc r13
  rrc r12
  dec r14
  jnz __rt_shr32_loop
__rt_shr32_done:
  ret

__rt_sar32:
  and #31, r14
  jz __rt_sar32_done
__rt_sar32_loop:
  rra r13
  rrc r12
  dec r14
  jnz __rt_sar32_loop
__rt_sar32_done:
  ret
__scope_e_rt_rtlib:
)";
  return out;
}

}  // namespace amulet
