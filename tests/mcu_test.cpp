#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <vector>

#include "src/common/strings.h"
#include "src/mcu/machine.h"
#include "src/mcu/memory_map.h"
#include "src/mcu/trace.h"
#include "tests/sim_test_util.h"

namespace amulet {
namespace {

// Stop helper used by nearly every program below.
constexpr char kStop[] =
    "  mov #4, &0x0710\n";  // kHostIoStop with kStopMainDone

// ---------------------------------------------------------------------------
// CPU arithmetic / flags
// ---------------------------------------------------------------------------

TEST(CpuTest, ResetLoadsPcFromVector) {
  Machine m;
  m.bus().PokeWord(kResetVector, 0x4400);
  m.cpu().Reset();
  EXPECT_EQ(m.cpu().pc(), 0x4400);
}

TEST(CpuTest, MovAndAdd) {
  Machine m;
  auto out = RunAsm(&m,
                    "start:\n"
                    "  mov #100, r4\n"
                    "  mov #23, r5\n"
                    "  add r5, r4\n" +
                        std::string(kStop));
  EXPECT_EQ(out.result, StepResult::kStopped);
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 123);
}

TEST(CpuTest, AddSetsCarryAndOverflow) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #0xFFFF, r4\n"
         "  add #1, r4\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 0);
  EXPECT_TRUE(m.cpu().sr() & kSrCarry);
  EXPECT_TRUE(m.cpu().sr() & kSrZero);
  EXPECT_FALSE(m.cpu().sr() & kSrOverflow);
}

TEST(CpuTest, SignedOverflow) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #0x7FFF, r4\n"
         "  add #1, r4\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 0x8000);
  EXPECT_TRUE(m.cpu().sr() & kSrOverflow);
  EXPECT_TRUE(m.cpu().sr() & kSrNegative);
}

TEST(CpuTest, SubAndCarryAsNoBorrow) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #5, r4\n"
         "  sub #3, r4\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 2);
  EXPECT_TRUE(m.cpu().sr() & kSrCarry) << "no borrow -> C set";
}

TEST(CpuTest, SubBorrowClearsCarry) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #3, r4\n"
         "  sub #5, r4\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 0xFFFE);
  EXPECT_FALSE(m.cpu().sr() & kSrCarry);
  EXPECT_TRUE(m.cpu().sr() & kSrNegative);
}

TEST(CpuTest, CmpDoesNotWrite) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #7, r4\n"
         "  cmp #7, r4\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 7);
  EXPECT_TRUE(m.cpu().sr() & kSrZero);
}

TEST(CpuTest, ByteOpClearsHighByteOfRegister) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #0x1234, r4\n"
         "  mov.b #0x56, r4\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 0x0056);
}

TEST(CpuTest, XorAndBitFlags) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #0xFF00, r4\n"
         "  xor #0x00FF, r4\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 0xFFFF);
  EXPECT_TRUE(m.cpu().sr() & kSrCarry);  // C = not Z
  EXPECT_TRUE(m.cpu().sr() & kSrNegative);
}

TEST(CpuTest, DaddBcdArithmetic) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  clrc\n"
         "  mov #0x0199, r4\n"
         "  mov #0x0001, r5\n"
         "  dadd r5, r4\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 0x0200) << "BCD 199 + 1 = 200";
}

TEST(CpuTest, RraRrcShifts) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #0x8003, r4\n"
         "  rra r4\n"  // arithmetic: keeps sign, C = old bit0
         "  mov #0x0001, r5\n"
         "  clrc\n"
         "  rrc r5\n" +  // C<-1, result 0
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 0xC001);
  EXPECT_EQ(m.cpu().reg(Reg::kR5), 0x0000);
  EXPECT_TRUE(m.cpu().sr() & kSrCarry);
}

TEST(CpuTest, SwpbAndSxt) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #0x1234, r4\n"
         "  swpb r4\n"
         "  mov #0x0080, r5\n"
         "  sxt r5\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 0x3412);
  EXPECT_EQ(m.cpu().reg(Reg::kR5), 0xFF80);
}

// ---------------------------------------------------------------------------
// Control flow, stack, addressing
// ---------------------------------------------------------------------------

TEST(CpuTest, CallAndRet) {
  Machine m;
  auto out = RunAsm(&m,
                    "start:\n"
                    "  mov #0x2400, sp\n"
                    "  call #func\n"
                    "  mov #1, r10\n" +
                        std::string(kStop) +
                        "func:\n"
                        "  mov #42, r4\n"
                        "  ret\n");
  EXPECT_EQ(out.result, StepResult::kStopped);
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 42);
  EXPECT_EQ(m.cpu().reg(Reg::kR10), 1);
  EXPECT_EQ(m.cpu().sp(), 0x2400) << "stack balanced";
}

TEST(CpuTest, PushPop) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #0x2400, sp\n"
         "  mov #0xBEEF, r4\n"
         "  push r4\n"
         "  clr r4\n"
         "  pop r5\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR5), 0xBEEF);
  EXPECT_EQ(m.cpu().sp(), 0x2400);
}

TEST(CpuTest, ConditionalJumps) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #5, r4\n"
         "  cmp #5, r4\n"
         "  jeq equal\n"
         "  mov #0, r10\n"
         "  jmp done\n"
         "equal:\n"
         "  mov #1, r10\n"
         "done:\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR10), 1);
}

TEST(CpuTest, SignedComparisonJlJge) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #0xFFFE, r4\n"  // -2
         "  cmp #1, r4\n"       // -2 < 1 signed
         "  jl less\n"
         "  mov #0, r10\n"
         "  jmp done\n"
         "less:\n"
         "  mov #1, r10\n"
         "done:\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR10), 1);
}

TEST(CpuTest, UnsignedComparisonJloJhs) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #0xFFFE, r4\n"  // 65534 unsigned
         "  cmp #1, r4\n"       // 65534 >= 1 unsigned
         "  jhs higher\n"
         "  mov #0, r10\n"
         "  jmp done\n"
         "higher:\n"
         "  mov #1, r10\n"
         "done:\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR10), 1);
}

TEST(CpuTest, LoopWithAutoIncrement) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #table, r4\n"
         "  clr r5\n"
         "  mov #4, r6\n"
         "loop:\n"
         "  add @r4+, r5\n"
         "  dec r6\n"
         "  jnz loop\n" +
             std::string(kStop) +
             ".data\n"
             "table:\n"
             "  .word 10, 20, 30, 40\n");
  EXPECT_EQ(m.cpu().reg(Reg::kR5), 100);
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 0x7000 + 8);
}

TEST(CpuTest, ByteAutoIncrementAdvancesByOne) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #bytes, r4\n"
         "  clr r5\n"
         "  mov.b @r4+, r5\n"
         "  mov.b @r4+, r6\n" +
             std::string(kStop) +
             ".data\n"
             "bytes:\n"
             "  .byte 7, 9\n");
  EXPECT_EQ(m.cpu().reg(Reg::kR5), 7);
  EXPECT_EQ(m.cpu().reg(Reg::kR6), 9);
}

TEST(CpuTest, IndexedAddressing) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #table, r4\n"
         "  mov 2(r4), r5\n"
         "  mov #0x55AA, 4(r4)\n" +
             std::string(kStop) +
             ".data\n"
             "table:\n"
             "  .word 1, 2, 3\n");
  EXPECT_EQ(m.cpu().reg(Reg::kR5), 2);
  EXPECT_EQ(m.bus().PeekWord(0x7004), 0x55AA);
}

TEST(CpuTest, AbsoluteAddressing) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #0x1234, &0x1C00\n"
         "  mov &0x1C00, r5\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR5), 0x1234);
  EXPECT_EQ(m.bus().PeekWord(0x1C00), 0x1234);
}

TEST(CpuTest, SymbolicAddressing) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov var, r5\n"
         "  mov #99, var\n" +
             std::string(kStop) +
             ".data\n"
             "var:\n"
             "  .word 55\n");
  EXPECT_EQ(m.cpu().reg(Reg::kR5), 55);
  EXPECT_EQ(m.bus().PeekWord(0x7000), 99);
}

// ---------------------------------------------------------------------------
// Cycle accounting
// ---------------------------------------------------------------------------

TEST(CpuTest, CycleCountMatchesTable) {
  Machine m;
  AssembleAndLoad(&m,
                  "start:\n"
                  "  mov #100, r4\n"   // #N->Rm: 2
                  "  add r4, r5\n"     // Rn->Rm: 1
                  "  mov r5, &0x1C00\n"  // Rn->&EDE: 4
                  "  jmp next\n"       // 2
                  "next:\n" +
                      std::string(kStop));
  // Run exactly 4 instructions.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(m.cpu().Step(), StepResult::kOk);
  }
  EXPECT_EQ(m.cpu().cycle_count(), 2u + 1 + 4 + 2);
}

TEST(CpuTest, FramWaitStatesAddPenalty) {
  Machine m0;
  AssembleAndLoad(&m0,
                  "start:\n"
                  "  mov #1, r4\n" +
                      std::string(kStop));
  m0.cpu().Step();
  const uint64_t no_wait = m0.cpu().cycle_count();

  Machine m1;
  m1.bus().set_fram_wait_states(1);
  AssembleAndLoad(&m1,
                  "start:\n"
                  "  mov #1, r4\n" +
                      std::string(kStop));
  m1.cpu().Step();
  // mov #1, r4 with CG: single word fetched from FRAM -> +1 penalty.
  EXPECT_EQ(m1.cpu().cycle_count(), no_wait + 1);
}

// ---------------------------------------------------------------------------
// Interrupts
// ---------------------------------------------------------------------------

TEST(CpuTest, TimerInterruptAndReti) {
  Machine m;
  RunAsm(&m,
         ".equ TACTL, 0x0340\n"
         ".equ TACCR0, 0x0346\n"
         "start:\n"
         "  mov #0x2400, sp\n"
         "  mov #isr, &0xFFF0\n"    // timer vector
         "  mov #200, &TACCR0\n"
         "  mov #1, &TACTL\n"       // IE
         "  eint\n"
         "wait:\n"
         "  cmp #1, r10\n"
         "  jnz wait\n" +
             std::string(kStop) +
             "isr:\n"
             "  mov #1, r10\n"
             "  mov #2, &TACTL\n"   // clear IFG
             "  reti\n",
         50000);
  EXPECT_EQ(m.cpu().reg(Reg::kR10), 1);
}

TEST(CpuTest, InterruptIgnoredWithoutGie) {
  Machine m;
  auto out = RunAsm(&m,
                    ".equ TACTL, 0x0340\n"
                    ".equ TACCR0, 0x0346\n"
                    "start:\n"
                    "  mov #0x2400, sp\n"
                    "  mov #isr, &0xFFF0\n"
                    "  mov #50, &TACCR0\n"
                    "  mov #1, &TACTL\n"
                    "  mov #300, r6\n"  // spin well past the compare point
                    "spin:\n"
                    "  dec r6\n"
                    "  jnz spin\n" +
                        std::string(kStop) +
                        "isr:\n"
                        "  mov #1, r10\n"
                        "  reti\n",
                    50000);
  EXPECT_EQ(out.result, StepResult::kStopped);
  EXPECT_EQ(m.cpu().reg(Reg::kR10), 0) << "ISR must not run with GIE clear";
}

TEST(CpuTest, CpuOffIdlesUntilInterrupt) {
  Machine m;
  RunAsm(&m,
         ".equ TACTL, 0x0340\n"
         ".equ TACCR0, 0x0346\n"
         "start:\n"
         "  mov #0x2400, sp\n"
         "  mov #isr, &0xFFF0\n"
         "  mov #500, &TACCR0\n"
         "  mov #1, &TACTL\n"
         "  bis #0x18, sr\n"  // CPUOFF | GIE
         "  mov #7, r11\n"    // runs only after wake-up
         + std::string(kStop) +
             "isr:\n"
             "  mov #1, r10\n"
             "  mov #2, &TACTL\n"
             "  bic #0x10, 0(sp)\n"  // clear CPUOFF in saved SR
             "  reti\n",
         50000);
  EXPECT_EQ(m.cpu().reg(Reg::kR10), 1);
  EXPECT_EQ(m.cpu().reg(Reg::kR11), 7);
  EXPECT_GT(m.cpu().cycle_count(), 400u) << "should have idled until the compare fired";
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

TEST(CpuTest, UnmappedAccessHalts) {
  Machine m;
  auto out = RunAsm(&m,
                    "start:\n"
                    "  mov &0x3000, r4\n" +  // hole between SRAM and FRAM
                        std::string(kStop));
  EXPECT_EQ(out.result, StepResult::kHalted);
  EXPECT_EQ(m.cpu().halt_reason(), HaltReason::kBusFault);
}

TEST(CpuTest, WritesToPcClearBitZero) {
  // Architectural behaviour: the PC's bit 0 always reads 0, so a "jump to an
  // odd address" silently lands on the preceding even address.
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #target + 1, r4\n"
         "  mov r4, pc\n"
         "  mov #0, r10\n" +  // skipped
             std::string(kStop) +
             "target:\n"
             "  mov #1, r10\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR10), 1);
}

TEST(CpuTest, WildJumpIntoUnmappedMemoryHalts) {
  Machine m;
  auto out = RunAsm(&m,
                    "start:\n"
                    "  mov #0x3000, r4\n"  // hole between SRAM and FRAM
                    "  mov r4, pc\n" +
                        std::string(kStop));
  EXPECT_EQ(out.result, StepResult::kHalted);
  EXPECT_EQ(m.cpu().halt_reason(), HaltReason::kBusFault);
}

TEST(CpuTest, WriteToBslRomHalts) {
  Machine m;
  auto out = RunAsm(&m,
                    "start:\n"
                    "  mov #1, &0x1000\n" +
                        std::string(kStop));
  EXPECT_EQ(out.result, StepResult::kHalted);
  EXPECT_EQ(m.cpu().halt_reason(), HaltReason::kBusFault);
}

// ---------------------------------------------------------------------------
// MPU
// ---------------------------------------------------------------------------

constexpr char kMpuRegs[] =
    ".equ MPUCTL0, 0x05A0\n"
    ".equ MPUCTL1, 0x05A2\n"
    ".equ MPUSEGB2, 0x05A4\n"
    ".equ MPUSEGB1, 0x05A6\n"
    ".equ MPUSAM, 0x05A8\n";

TEST(MpuTest, DisabledMpuAllowsEverything) {
  Machine m;
  auto out = RunAsm(&m,
                    "start:\n"
                    "  mov #0xAAAA, &0x9000\n" +
                        std::string(kStop));
  EXPECT_EQ(out.result, StepResult::kStopped);
  EXPECT_EQ(m.bus().PeekWord(0x9000), 0xAAAA);
}

TEST(MpuTest, WriteToExecuteOnlySegmentFaultsViaNmi) {
  Machine m;
  // Seg1 = [0x4400, 0x8000) X only; Seg2 = [0x8000, 0xA000) RW;
  // Seg3 = rest no access. NMI handler records and stops.
  auto out = RunAsm(&m,
                    std::string(kMpuRegs) +
                        "start:\n"
                        "  mov #0x2400, sp\n"
                        "  mov #nmi, &0xFFFC\n"
                        "  mov #0x0800, &MPUSEGB1\n"
                        "  mov #0x0A00, &MPUSEGB2\n"
                        "  mov #0x0034, &MPUSAM\n"  // seg1 X, seg2 RW, seg3 none
                        "  mov #0xA501, &MPUCTL0\n"  // password | ENA
                        "  mov #0xBEEF, &0x9000\n"   // allowed: seg2 RW
                        "  mov #0xDEAD, &0x4500\n"   // violation: write into X-only
                        "  mov #9, r11\n"            // must NOT run before NMI
                        + std::string(kStop) +
                        "nmi:\n"
                        "  mov #1, r10\n"
                        "  mov #3, &0x0710\n",  // kStopMpuFault
                    50000);
  EXPECT_EQ(out.result, StepResult::kStopped);
  EXPECT_EQ(out.stop_code, 3);
  EXPECT_EQ(m.cpu().reg(Reg::kR10), 1);
  EXPECT_EQ(m.bus().PeekWord(0x9000), 0xBEEF) << "permitted write went through";
  EXPECT_NE(m.bus().PeekWord(0x4500), 0xDEAD) << "violating write must be blocked";
  EXPECT_TRUE(m.mpu().violation_flags() & kMpuSeg1Ifg);
  EXPECT_EQ(m.mpu().last_violation_addr(), 0x4500);
}

TEST(MpuTest, ReadFromNoAccessSegmentFaults) {
  Machine m;
  auto out = RunAsm(&m,
                    std::string(kMpuRegs) +
                        "start:\n"
                        "  mov #0x2400, sp\n"
                        "  mov #nmi, &0xFFFC\n"
                        "  mov #0x0800, &MPUSEGB1\n"
                        "  mov #0x0A00, &MPUSEGB2\n"
                        "  mov #0x0034, &MPUSAM\n"
                        "  mov #0xA501, &MPUCTL0\n"
                        "  mov &0xB000, r4\n"  // seg3: no access
                        + std::string(kStop) +
                        "nmi:\n"
                        "  mov #3, &0x0710\n",
                    50000);
  EXPECT_EQ(out.stop_code, 3);
  EXPECT_TRUE(m.mpu().violation_flags() & kMpuSeg3Ifg);
}

TEST(MpuTest, ExecuteFromRwDataSegmentFaults) {
  Machine m;
  auto out = RunAsm(&m,
                    std::string(kMpuRegs) +
                        "start:\n"
                        "  mov #0x2400, sp\n"
                        "  mov #nmi, &0xFFFC\n"
                        "  mov #0x0800, &MPUSEGB1\n"
                        "  mov #0x0A00, &MPUSEGB2\n"
                        "  mov #0x0034, &MPUSAM\n"
                        "  mov #0xA501, &MPUCTL0\n"
                        "  br #0x9000\n"  // jump into the RW (non-X) segment
                        "nmi:\n"
                        "  mov #3, &0x0710\n",
                    50000);
  EXPECT_EQ(out.stop_code, 3);
  EXPECT_TRUE(m.mpu().violation_flags() & kMpuSeg2Ifg);
}

TEST(MpuTest, SramIsNeverProtected) {
  // The paper's complaint: the MPU cannot protect SRAM.
  Machine m;
  auto out = RunAsm(&m,
                    std::string(kMpuRegs) +
                        "start:\n"
                        "  mov #0x0800, &MPUSEGB1\n"
                        "  mov #0x0A00, &MPUSEGB2\n"
                        "  mov #0x0000, &MPUSAM\n"  // no access anywhere in FRAM... except
                        "  mov #0xA501, &MPUCTL0\n"
                        "  mov #0x7777, &0x1C10\n"  // SRAM write sails through
                        + std::string(kStop),
                    50000);
  // Note: instruction fetch itself is from seg1, which has no X right here,
  // so the program would fault on fetch. Give seg1 X back:
  (void)out;
  Machine m2;
  auto out2 = RunAsm(&m2,
                     std::string(kMpuRegs) +
                         "start:\n"
                         "  mov #0x0800, &MPUSEGB1\n"
                         "  mov #0x0A00, &MPUSEGB2\n"
                         "  mov #0x0004, &MPUSAM\n"  // seg1 X only; seg2/3 nothing
                         "  mov #0xA501, &MPUCTL0\n"
                         "  mov #0x7777, &0x1C10\n"
                         + std::string(kStop),
                     50000);
  EXPECT_EQ(out2.result, StepResult::kStopped);
  EXPECT_EQ(m2.bus().PeekWord(0x1C10), 0x7777);
  EXPECT_EQ(m2.mpu().violation_flags(), 0);
}

TEST(MpuTest, WrongPasswordCausesPuc) {
  Machine m;
  AssembleAndLoad(&m,
                  std::string(kMpuRegs) +
                      "start:\n"
                      "  mov #0x0001, &MPUCTL0\n"  // missing 0xA5 password
                      "  jmp start\n");
  auto out = m.Run(1000);
  EXPECT_EQ(out.result, StepResult::kOk);  // PUC handled internally, keeps running
  EXPECT_GE(m.puc_count(), 1u);
}

TEST(MpuTest, LockFreezesConfiguration) {
  Machine m;
  auto out = RunAsm(&m,
                    std::string(kMpuRegs) +
                        "start:\n"
                        "  mov #0x0800, &MPUSEGB1\n"
                        "  mov #0xA503, &MPUCTL0\n"  // ENA | LOCK
                        "  mov #0x0C00, &MPUSEGB1\n"  // ignored: locked
                        + std::string(kStop),
                    50000);
  EXPECT_EQ(out.result, StepResult::kStopped);
  EXPECT_TRUE(m.mpu().locked());
  EXPECT_EQ(m.mpu().boundary1(), 0x8000);
}

TEST(MpuTest, ViolationSelectPucReboots) {
  Machine m;
  AssembleAndLoad(&m,
                  std::string(kMpuRegs) +
                      "start:\n"
                      "  mov #1, r10\n"
                      "  mov #0x0800, &MPUSEGB1\n"
                      "  mov #0x0A00, &MPUSEGB2\n"
                      "  mov #0x0834, &MPUSAM\n"  // seg3 VS=1 -> PUC on violation
                      "  mov #0xA501, &MPUCTL0\n"
                      "  mov #1, &0xB000\n"  // violate seg3
                      "  jmp hang\n"
                      "hang:\n"
                      "  jmp hang\n");
  m.Run(2000);
  EXPECT_GE(m.puc_count(), 1u);
}

TEST(MpuTest, BoundaryGranularityIs16Bytes) {
  Machine m;
  m.bus().PokeWord(kMpuRegBase + kMpuSegB1, 0);  // direct device poke not routed; use API
  Mpu& mpu = m.mpu();
  mpu.WriteWord(kMpuCtl0, 0xA501);
  mpu.WriteWord(kMpuSegB1, 0x0441);
  EXPECT_EQ(mpu.boundary1(), 0x4410);
}

// ---------------------------------------------------------------------------
// HOSTIO + timer devices
// ---------------------------------------------------------------------------

TEST(HostIoTest, ConsoleOutput) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov.b #'H', &0x070E\n"
         "  mov.b #'i', &0x070E\n" +
             std::string(kStop));
  EXPECT_EQ(m.hostio().TakeConsoleOutput(), "Hi");
  EXPECT_EQ(m.hostio().TakeConsoleOutput(), "") << "Take drains the buffer";
}

TEST(HostIoTest, SyscallRoundTrip) {
  Machine m;
  SyscallRequest seen;
  m.hostio().SetSyscallHandler([&](const SyscallRequest& req) -> uint16_t {
    seen = req;
    return static_cast<uint16_t>(req.args[0] + req.args[1]);
  });
  RunAsm(&m,
         "start:\n"
         "  mov #7, &0x0700\n"    // syscall number
         "  mov #30, &0x0702\n"   // arg0
         "  mov #12, &0x0704\n"   // arg1
         "  mov #1, &0x070A\n"    // trigger
         "  mov &0x070C, r4\n" +  // result
             std::string(kStop));
  EXPECT_EQ(seen.number, 7);
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 42);
  EXPECT_EQ(m.hostio().syscall_count(), 1u);
}

TEST(HostIoTest, StopCodePropagates) {
  Machine m;
  auto out = RunAsm(&m,
                    "start:\n"
                    "  mov #2, &0x0710\n");
  EXPECT_EQ(out.result, StepResult::kStopped);
  EXPECT_EQ(out.stop_code, 2);
}

TEST(TimerTest, CounterTracksCycles) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov &0x0342, r4\n"  // TARLO
         "  nop\n"
         "  nop\n"
         "  mov &0x0342, r5\n" +
             std::string(kStop));
  uint16_t first = m.cpu().reg(Reg::kR4);
  uint16_t second = m.cpu().reg(Reg::kR5);
  // Two NOPs (1 cycle each) plus the second read (3 cycles to fetch).
  EXPECT_EQ(second - first, 5);
}

TEST(TimerTest, Tar16HasSixteenCyclePrecision) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov &0x0348, r4\n" +  // TAR16
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4), m.timer().now_cycles() >> 4 >= 1 ? m.cpu().reg(Reg::kR4) : 0);
  // Direct check: register equals cycles>>4 at read time (read occurs after
  // 3 cycles; 3>>4 == 0).
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 0);
}

TEST(MachineTest, RunHandlesBudget) {
  Machine m;
  AssembleAndLoad(&m,
                  "start:\n"
                  "  jmp start\n");
  auto out = m.Run(100);
  EXPECT_EQ(out.result, StepResult::kOk);
  EXPECT_GE(out.cycles, 100u);
}


// ---------------------------------------------------------------------------
// Bus data-access counting (the ARP / fleet `data_accesses` figure)
// ---------------------------------------------------------------------------

AddressSet SetOf(uint32_t lo, uint32_t hi) {
  AddressSet set;
  for (uint32_t a = lo; a < hi; ++a) {
    set.set(a);
  }
  return set;
}

// Runs `source` on a fresh machine (fast core or interpreter) while counting
// the data accesses that land in `set`; returns the count.
uint64_t CountWhileRunning(const std::string& source, const AddressSet& set, bool predecode) {
  Machine m;
  m.cpu().set_predecode(predecode);
  AssembleAndLoad(&m, source);
  m.bus().CountDataAccesses(&set);
  m.Run(50000);
  return m.bus().data_accesses();
}

TEST(BusCountTest, WordAndByteAccessesInsideSetCountOnceEach) {
  const AddressSet set = SetOf(0x7000, 0x7008);
  for (bool predecode : {true, false}) {
    EXPECT_EQ(CountWhileRunning("start:\n"
                                "  mov &0x7000, r4\n"    // word read
                                "  mov r4, &0x7002\n"    // word write
                                "  mov.b &0x7004, r5\n"  // byte read
                                "  mov.b r5, &0x7005\n"  // byte write
                                "  add #1, &0x7006\n"    // read + write
                                + std::string(kStop),
                                set, predecode),
              6u)
        << "predecode=" << predecode;
  }
}

TEST(BusCountTest, FetchesNeverCount) {
  // The set covers the whole program; only instruction fetches touch it.
  const AddressSet set = SetOf(kFramStart, kFramStart + 0x100);
  for (bool predecode : {true, false}) {
    EXPECT_EQ(CountWhileRunning("start:\n"
                                "  mov #0x1234, r4\n"
                                "  add r4, r5\n"
                                "  mov &0x7000, r6\n"  // data read outside the set
                                + std::string(kStop),
                                set, predecode),
              0u)
        << "predecode=" << predecode;
  }
}

TEST(BusCountTest, MpuRefusedReadAndWriteCount) {
  // Seg3 = [0xA000, ...) is no-access: both halves of the move are refused.
  const AddressSet set = SetOf(0xB000, 0xB004);
  for (bool predecode : {true, false}) {
    Machine m;
    m.cpu().set_predecode(predecode);
    AssembleAndLoad(&m, std::string(kMpuRegs) +
                            "start:\n"
                            "  mov #0x2400, sp\n"
                            "  mov #nmi, &0xFFFC\n"
                            "  mov #0x0800, &MPUSEGB1\n"
                            "  mov #0x0A00, &MPUSEGB2\n"
                            "  mov #0x0034, &MPUSAM\n"
                            "  mov #0xA501, &MPUCTL0\n"
                            "  mov &0xB000, &0xB002\n" +
                            std::string(kStop) +
                            "nmi:\n"
                            "  mov #3, &0x0710\n");
    m.bus().CountDataAccesses(&set);
    auto out = m.Run(50000);
    EXPECT_EQ(out.stop_code, 3);
    EXPECT_TRUE(m.mpu().violation_flags() & kMpuSeg3Ifg);
    EXPECT_EQ(m.bus().data_accesses(), 2u) << "predecode=" << predecode;
  }
}

TEST(BusCountTest, OutsideSetAndCountingOffDoNotCount) {
  const std::string program = "start:\n"
                              "  mov &0x7000, r4\n"
                              "  mov r4, &0x7002\n"
                              "  mov.b r4, &0x7004\n" +
                              std::string(kStop);
  const AddressSet elsewhere = SetOf(0x7100, 0x7200);
  EXPECT_EQ(CountWhileRunning(program, elsewhere, true), 0u);

  // Counting switched off before the run: the count does not move.
  const AddressSet set = SetOf(0x7000, 0x7008);
  Machine m;
  AssembleAndLoad(&m, program);
  m.bus().CountDataAccesses(&set);
  m.bus().CountDataAccesses(nullptr);
  m.Run(50000);
  EXPECT_EQ(m.bus().data_accesses(), 0u);
}

// ---------------------------------------------------------------------------
// Bus address decode, pinned for every address against a reference built
// from memory_map.h and the device register blocks
// ---------------------------------------------------------------------------

struct RegBlock {
  uint16_t base;
  uint16_t size;
};
// The five register blocks a Machine attaches.
constexpr RegBlock kRegBlocks[] = {
    {kWdtRegBase, 2},  {kTimerRegBase, 10}, {kMpyRegBase, 0xE},
    {kMpuRegBase, 10}, {kHostIoRegBase, 0x16},
};

bool RefIsDevice(uint32_t a) {
  for (const RegBlock& block : kRegBlocks) {
    if (InRange(a, block.base, block.base + block.size)) {
      return true;
    }
  }
  return false;
}

bool RefIsBacked(uint32_t a) {
  return InRange(a, kBslStart, kBslEnd) || IsInfoMem(a) || IsSram(a) || a >= kFramStart;
}

BusFault RefFault(uint32_t a, AccessKind kind) {
  if (RefIsDevice(a)) {
    return kind == AccessKind::kFetch ? BusFault::kFetchFromPeriph : BusFault::kNone;
  }
  if (!RefIsBacked(a)) {
    return BusFault::kUnmapped;
  }
  if (kind == AccessKind::kWrite && InRange(a, kBslStart, kBslEnd)) {
    return BusFault::kWriteToRom;
  }
  return BusFault::kNone;
}

struct BusOutcome {
  BusFault fault;
  uint64_t penalty;
};

// One architectural access at fram_wait_states = 1: the fault it raises and
// the wait-state cycles it accrues.
BusOutcome Access(Machine& m, uint16_t addr, AccessKind kind, bool byte) {
  Bus& bus = m.bus();
  bus.set_fram_wait_states(1);
  bus.ClearFault();
  bus.TakePenaltyCycles();
  if (kind == AccessKind::kWrite) {
    if (byte) {
      bus.WriteByte(addr, 0x5A);
    } else {
      bus.WriteWord(addr, 0x5A5A);
    }
  } else if (byte) {
    bus.ReadByte(addr);
  } else {
    bus.ReadWord(addr, kind);
  }
  return {bus.fault(), bus.TakePenaltyCycles()};
}

TEST(BusDecodeTest, RegBlocksMatchTheDevices) {
  Machine m;
  const BusDevice* devices[] = {&m.watchdog(), &m.timer(), &m.multiplier(), &m.mpu(),
                                &m.hostio()};
  for (size_t i = 0; i < std::size(kRegBlocks); ++i) {
    EXPECT_EQ(devices[i]->base(), kRegBlocks[i].base) << i;
    EXPECT_EQ(devices[i]->size_bytes(), kRegBlocks[i].size) << i;
  }
}

TEST(BusDecodeTest, EveryAddressMatchesTheMemoryMap) {
  Machine m;
  int mismatches = 0;
  for (uint32_t a = 0; a < 0x10000; ++a) {
    const uint16_t addr = static_cast<uint16_t>(a);
    if (m.bus().IsPlainMemory(addr) != (RefIsBacked(a) && !RefIsDevice(a)) &&
        ++mismatches <= 10) {
      ADD_FAILURE() << "IsPlainMemory(" << HexWord(addr) << ")";
    }
    for (bool byte : {false, true}) {
      // Word accesses ignore bit 0, as on the real part.
      const uint32_t target = byte ? a : (a & ~1u);
      for (AccessKind kind : {AccessKind::kRead, AccessKind::kFetch, AccessKind::kWrite}) {
        if (byte && kind == AccessKind::kFetch) {
          continue;  // the CPU fetches whole words, so the bus has no byte fetch
        }
        // Device registers get a fresh machine: a write can request a PUC
        // (WDT/MPU password) or reprogram the MPU.
        std::unique_ptr<Machine> fresh;
        Machine* on = &m;
        if (RefIsDevice(target)) {
          fresh = std::make_unique<Machine>();
          on = fresh.get();
        }
        const BusOutcome got = Access(*on, addr, kind, byte);
        const BusFault want = RefFault(target, kind);
        const uint64_t want_penalty = IsAnyFram(target) ? 1 : 0;
        if (got.fault != want || got.penalty != want_penalty) {
          if (++mismatches <= 10) {
            ADD_FAILURE() << HexWord(addr) << (byte ? " byte" : " word") << " kind "
                          << static_cast<int>(kind) << ": fault "
                          << static_cast<int>(got.fault) << " want "
                          << static_cast<int>(want) << ", penalty " << got.penalty
                          << " want " << want_penalty;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(BusDecodeTest, NamedEdges) {
  Machine m;
  // The MPU block is 10 bytes; the rest of its 16-byte line is a hole.
  EXPECT_EQ(Access(m, 0x05AA, AccessKind::kRead, false).fault, BusFault::kUnmapped);
  EXPECT_EQ(Access(m, 0x05AF, AccessKind::kRead, true).fault, BusFault::kUnmapped);
  // The WDT is one word; the words around it are holes.
  EXPECT_EQ(Access(m, kWdtRegBase - 2, AccessKind::kRead, false).fault, BusFault::kUnmapped);
  EXPECT_EQ(Access(m, kWdtRegBase + 2, AccessKind::kRead, false).fault, BusFault::kUnmapped);
  // The BSL is plain but read-only: a write faults and leaves it unchanged.
  m.bus().PokeWord(kBslStart, 0x1234);
  EXPECT_TRUE(m.bus().IsPlainMemory(kBslStart));
  EXPECT_EQ(Access(m, kBslStart, AccessKind::kWrite, false).fault, BusFault::kWriteToRom);
  EXPECT_EQ(Access(m, kBslEnd - 1, AccessKind::kWrite, true).fault, BusFault::kWriteToRom);
  EXPECT_EQ(m.bus().PeekWord(kBslStart), 0x1234);
  // The vectors are plain, writable FRAM.
  EXPECT_TRUE(m.bus().IsPlainMemory(kResetVector));
  EXPECT_EQ(Access(m, kResetVector, AccessKind::kWrite, false).fault, BusFault::kNone);
  EXPECT_EQ(m.bus().PeekWord(kResetVector), 0x5A5A);
  // A fetch from a peripheral hole is unmapped; from a register, refused.
  EXPECT_EQ(Access(m, 0x0200, AccessKind::kFetch, false).fault, BusFault::kUnmapped);
  EXPECT_EQ(Access(m, kTimerRegBase, AccessKind::kFetch, false).fault,
            BusFault::kFetchFromPeriph);
  EXPECT_FALSE(m.bus().IsPlainMemory(kTimerRegBase));
}

// ---------------------------------------------------------------------------
// Recent-PC ring (fault forensics)
// ---------------------------------------------------------------------------

TEST(TraceTest, RecordsRecentPcsOldestFirst) {
  Machine m;
  std::string program = "start:\n";
  for (int i = 0; i < 20; ++i) {
    program += "  nop\n";
  }
  RunAsm(&m, program + kStop);
  // Twenty one-word NOPs, then the STOP store at +40 is the newest entry.
  const std::vector<uint16_t> recent = m.cpu().recent_pcs();
  ASSERT_EQ(recent.size(), Cpu::kRecentPcs);
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i], kFramStart + 40 - 2 * (Cpu::kRecentPcs - 1 - i)) << i;
  }
}

TEST(TraceTest, PartialRingReportsOnlyRecorded) {
  Machine m;
  AssembleAndLoad(&m, "start:\n  nop\n  nop\n" + std::string(kStop));
  EXPECT_TRUE(m.cpu().recent_pcs().empty());
  m.cpu().Step();
  m.cpu().Step();
  EXPECT_EQ(m.cpu().recent_pcs(), (std::vector<uint16_t>{kFramStart, kFramStart + 2}));
}

TEST(TraceTest, CpuFeedsTraceAndRenderDisassembles) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #5, r4\n"
         "  add #2, r4\n" +
             std::string(kStop));
  const std::vector<uint16_t> recent = m.cpu().recent_pcs();
  ASSERT_GE(recent.size(), 3u);
  EXPECT_EQ(recent[0], kFramStart);
  std::string rendered = RenderTrace(recent, m.bus());
  EXPECT_NE(rendered.find("mov"), std::string::npos);
  EXPECT_NE(rendered.find("0x4400"), std::string::npos);
}

TEST(TraceTest, PucKeepsRecentPcs) {
  // Every second instruction requests a PUC; a ring cleared by the reset
  // would never hold more than two entries.
  Machine m;
  AssembleAndLoad(&m, std::string(kMpuRegs) +
                          "start:\n"
                          "  nop\n"
                          "  mov #0x0001, &MPUCTL0\n"  // missing password: PUC
                          "  jmp start\n");
  m.Run(1000);
  EXPECT_GE(m.puc_count(), 2u);
  EXPECT_EQ(m.cpu().recent_pcs().size(), Cpu::kRecentPcs);
}

// ---------------------------------------------------------------------------
// MPY32 hardware multiplier
// ---------------------------------------------------------------------------

TEST(MultiplierTest, UnsignedMultiply) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #1234, &0x04C0\n"   // MPY
         "  mov #56, &0x04C8\n"     // OP2 triggers
         "  mov &0x04CA, r4\n"      // RESLO
         "  mov &0x04CC, r5\n" +    // RESHI
             std::string(kStop));
  const uint32_t product = 1234u * 56u;
  EXPECT_EQ(m.cpu().reg(Reg::kR4), product & 0xFFFF);
  EXPECT_EQ(m.cpu().reg(Reg::kR5), product >> 16);
}

TEST(MultiplierTest, SignedMultiplySetsHighWordSign) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #0xFFFE, &0x04C2\n"  // MPYS: -2
         "  mov #3, &0x04C8\n"
         "  mov &0x04CA, r4\n"
         "  mov &0x04CC, r5\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 0xFFFA) << "-6 low word";
  EXPECT_EQ(m.cpu().reg(Reg::kR5), 0xFFFF) << "sign-extended high word";
}

TEST(MultiplierTest, LargeUnsignedProduct) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov #0xFFFF, &0x04C0\n"
         "  mov #0xFFFF, &0x04C8\n"
         "  mov &0x04CA, r4\n"
         "  mov &0x04CC, r5\n" +
             std::string(kStop));
  const uint32_t product = 0xFFFFu * 0xFFFFu;
  EXPECT_EQ(m.cpu().reg(Reg::kR4), product & 0xFFFF);
  EXPECT_EQ(m.cpu().reg(Reg::kR5), product >> 16);
}


// ---------------------------------------------------------------------------
// Watchdog timer
// ---------------------------------------------------------------------------

TEST(WatchdogTest, HeldByDefault) {
  Machine m;
  auto out = RunAsm(&m,
                    "start:\n"
                    "  mov #500, r6\n"
                    "spin:\n"
                    "  dec r6\n"
                    "  jnz spin\n" +
                        std::string(kStop),
                    50000);
  EXPECT_EQ(out.result, StepResult::kStopped);
  EXPECT_EQ(m.puc_count(), 0u);
  EXPECT_TRUE(m.watchdog().held());
}

TEST(WatchdogTest, ExpiryForcesPuc) {
  Machine m;
  // Enable the dog on the shortest interval (2^6 = 64 cycles) and spin.
  AssembleAndLoad(&m,
                  "start:\n"
                  "  mov #0x5A07, &0x015C\n"  // password | WDTIS=7 (64 cycles)
                  "spin:\n"
                  "  jmp spin\n");
  m.Run(2000);
  EXPECT_GE(m.watchdog().expiries(), 1u);
  EXPECT_GE(m.puc_count(), 1u);
}

TEST(WatchdogTest, KickingPreventsExpiry) {
  Machine m;
  auto out = RunAsm(&m,
                    "start:\n"
                    "  mov #0x5A07, &0x015C\n"
                    "  mov #40, r6\n"
                    "loop:\n"
                    "  mov #0x5A0F, &0x015C\n"  // password | CNTCL | WDTIS=7
                    "  dec r6\n"
                    "  jnz loop\n"
                    "  mov #0x5A87, &0x015C\n"  // hold before stopping
                    + std::string(kStop),
                    50000);
  EXPECT_EQ(out.result, StepResult::kStopped);
  EXPECT_EQ(m.watchdog().expiries(), 0u);
  EXPECT_EQ(m.puc_count(), 0u);
}

TEST(WatchdogTest, WrongPasswordForcesPuc) {
  Machine m;
  AssembleAndLoad(&m,
                  "start:\n"
                  "  mov #0x1287, &0x015C\n"  // bad password
                  "hang:\n"
                  "  jmp hang\n");
  m.Run(1000);
  EXPECT_GE(m.puc_count(), 1u);
}

TEST(WatchdogTest, ReadSignature) {
  Machine m;
  RunAsm(&m,
         "start:\n"
         "  mov &0x015C, r4\n" +
             std::string(kStop));
  EXPECT_EQ(m.cpu().reg(Reg::kR4) & 0xFF00, 0x6900);
  EXPECT_TRUE(m.cpu().reg(Reg::kR4) & 0x0080) << "HOLD visible in the low byte";
}

TEST(WatchdogTest, IntervalTable) {
  EXPECT_EQ(Watchdog::IntervalForSelect(7), 64u);
  EXPECT_EQ(Watchdog::IntervalForSelect(6), 512u);
  EXPECT_EQ(Watchdog::IntervalForSelect(4), 32768u);
  EXPECT_EQ(Watchdog::IntervalForSelect(0), 1ull << 31);
}

}  // namespace
}  // namespace amulet
