// Predecoded-instruction-cache correctness: the fast-dispatch core must be
// observationally identical to the baseline interpreter even when code
// changes under the cache — self-modifying firmware, host-side pokes,
// snapshot restores, and MPU reconfiguration — and a fleet run must produce
// the exact same digest in either mode (docs/simulator.md, "Predecoded
// instruction cache").
#include <gtest/gtest.h>

#include <string>

#include "src/fleet/fleet.h"
#include "src/mcu/code_cache.h"
#include "src/mcu/machine.h"
#include "src/mcu/memory_map.h"
#include "tests/sim_test_util.h"

namespace amulet {
namespace {

constexpr char kStop[] = "  mov #4, &0x0710\n";

constexpr char kMpuRegs[] =
    ".equ MPUCTL0, 0x05A0\n"
    ".equ MPUCTL1, 0x05A2\n"
    ".equ MPUSEGB2, 0x05A4\n"
    ".equ MPUSEGB1, 0x05A6\n"
    ".equ MPUSAM, 0x05A8\n";

// Runs `source` on a fast-dispatch machine and a baseline-interpreter
// machine and checks the outcomes and final snapshots are byte-identical.
// Returns the fast machine's outcome for semantic assertions.
struct DualRun {
  Machine fast;
  Machine slow;
  Cpu::RunOutcome outcome;
};

void RunBoth(DualRun* dual, const std::string& source, uint64_t max_cycles = 100000) {
  dual->fast.cpu().set_predecode(true);
  dual->slow.cpu().set_predecode(false);
  AssembleAndLoad(&dual->fast, source);
  AssembleAndLoad(&dual->slow, source);
  dual->outcome = dual->fast.Run(max_cycles);
  const Cpu::RunOutcome slow_outcome = dual->slow.Run(max_cycles);
  EXPECT_EQ(dual->outcome.result, slow_outcome.result);
  EXPECT_EQ(dual->outcome.stop_code, slow_outcome.stop_code);
  EXPECT_EQ(dual->outcome.cycles, slow_outcome.cycles);
  EXPECT_EQ(dual->fast.cpu().instruction_count(), dual->slow.cpu().instruction_count());
  EXPECT_EQ(CaptureSnapshot(dual->fast).bytes, CaptureSnapshot(dual->slow).bytes)
      << "fast-dispatch and interpreter snapshots diverged";
}

// Firmware that writes its own instructions: builds a tiny routine in SRAM
// (`mov #1, r4; ret`), calls it, patches first the immediate ext word and
// then the opcode word through ordinary stores, and calls it again. A stale
// predecode entry would replay the old instruction.
TEST(PredecodeTest, SelfModifyingCodeMatchesInterpreter) {
  DualRun dual;
  RunBoth(&dual,
          "start:\n"
          "  mov #0x2400, sp\n"
          "  mov #0x4034, &0x2000\n"  // mov #imm, r4
          "  mov #1, &0x2002\n"       // imm = 1
          "  mov #0x4130, &0x2004\n"  // ret
          "  call #0x2000\n"
          "  mov r4, r6\n"            // r6 = 1
          "  mov #42, &0x2002\n"      // patch the ext word: imm = 42
          "  call #0x2000\n"
          "  mov r4, r7\n"            // r7 = 42 (stale cache would leave 1)
          "  mov #0x4035, &0x2000\n"  // patch the opcode word: mov #imm, r5
          "  call #0x2000\n"          // r5 = 42
          + std::string(kStop));
  EXPECT_EQ(dual.outcome.result, StepResult::kStopped);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR6), 1);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR7), 42);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR5), 42);
}

// Same pattern, but the routine under modification lives in FRAM: the
// firmware patches one word of its own already-executed code in place,
// addressing it through a register so no hand-counted offsets are needed.
TEST(PredecodeTest, SelfModifyingFramExtWordMatchesInterpreter) {
  DualRun dual;
  RunBoth(&dual,
          "start:\n"
          "  mov #0x2400, sp\n"
          "  call #leaf\n"
          "  mov r4, r6\n"      // r6 = 5
          "  mov #leaf, r10\n"
          "  mov #99, 2(r10)\n" // patch the immediate ext word of `mov #5, r4`
          "  call #leaf\n"
          "  mov r4, r7\n"      // r7 = 99
          "  mov #0x4035, 0(r10)\n"  // patch the opcode word: mov #imm, r5
          "  call #leaf\n"      // r5 = 99
          + std::string(kStop) +
          "leaf:\n"
          "  mov #5, r4\n"
          "  ret\n");
  EXPECT_EQ(dual.outcome.result, StepResult::kStopped);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR6), 5);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR7), 99);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR5), 99);
}

// Host-side PokeWord into already-executed code must invalidate the cached
// entry, exactly like tooling that patches a running machine.
TEST(PredecodeTest, HostPokeInvalidatesCachedCode) {
  for (const bool predecode : {true, false}) {
    Machine m;
    m.cpu().set_predecode(predecode);
    const Image image = AssembleAndLoad(&m,
                                        "start:\n"
                                        "  mov #1, r4\n"
                                        "loop:\n"
                                        "  jmp loop\n");
    // Spin long enough that `loop` is fetched (and cached) many times.
    Cpu::RunOutcome out = m.Run(200);
    ASSERT_EQ(out.result, StepResult::kOk);
    // Overwrite the spin jump with `mov #4, &0x0710` (stop).
    const uint16_t loop_addr = image.SymbolOrZero("loop");
    ASSERT_NE(loop_addr, 0);
    m.bus().PokeWord(loop_addr, 0x40B2);
    m.bus().PokeWord(static_cast<uint16_t>(loop_addr + 2), 4);
    m.bus().PokeWord(static_cast<uint16_t>(loop_addr + 4), 0x0710);
    out = m.Run(1000);
    EXPECT_EQ(out.result, StepResult::kStopped)
        << (predecode ? "predecode" : "interpreter") << " kept running stale code";
    EXPECT_EQ(out.stop_code, 4);
  }
}

// Restoring a snapshot replaces all of memory; cached predecode entries from
// the pre-restore program must not survive into the restored one.
TEST(PredecodeTest, RestoreSnapshotDropsStaleEntries) {
  // Donor machine: program B loaded (never run), captured as a snapshot.
  Machine donor;
  AssembleAndLoad(&donor,
                  "start:\n"
                  "  mov #222, r4\n" +
                      std::string(kStop));
  const MachineSnapshot snapshot = CaptureSnapshot(donor);

  // Victim machine: runs program A to completion (same addresses, different
  // code), then gets the donor snapshot restored over it.
  Machine m;
  m.cpu().set_predecode(true);
  Cpu::RunOutcome out;
  AssembleAndLoad(&m,
                  "start:\n"
                  "  mov #111, r4\n" +
                      std::string(kStop));
  out = m.Run(100000);
  ASSERT_EQ(out.result, StepResult::kStopped);
  ASSERT_EQ(m.cpu().reg(Reg::kR4), 111);

  ASSERT_TRUE(RestoreSnapshot(snapshot, &m).ok());
  out = m.Run(100000);
  EXPECT_EQ(out.result, StepResult::kStopped);
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 222) << "stale predecode entries executed after restore";
}

// Two programs with one layout: B differs from A in a 1-word instruction
// (add -> sub) and in the last word of a 3-word instruction (the absolute
// destination of `mov #imm, &addr`). Each loops so its code is cached and
// replayed.
std::string LoopProgram(const char* alu, const char* dst) {
  return std::string("start:\n"
                     "  mov #0x2400, sp\n"
                     "  mov #10, r5\n"
                     "  clr r6\n"
                     "loop:\n"
                     "  ") +
         alu + " r5, r6\n" + "  mov #0x1234, &" + dst + "\n" +
         "  dec r5\n"
         "  jnz loop\n" +
         kStop;
}

MachineSnapshot LoadedSnapshot(const std::string& source) {
  Machine donor;
  AssembleAndLoad(&donor, source);
  return CaptureSnapshot(donor);
}

// A machine that ran snapshot A gets snapshot B restored over it: only the
// changed words lose their entries, and the kept ones must still replay
// exactly what the interpreter fetches.
TEST(PredecodeTest, RestoreOfDifferentSnapshotMatchesInterpreter) {
  const MachineSnapshot a = LoadedSnapshot(LoopProgram("add", "0x2000"));
  const MachineSnapshot b = LoadedSnapshot(LoopProgram("sub", "0x2002"));

  Machine fast;
  fast.cpu().set_predecode(true);
  ASSERT_TRUE(RestoreSnapshot(a, &fast).ok());
  ASSERT_EQ(fast.Run(100000).result, StepResult::kStopped);
  ASSERT_EQ(fast.cpu().reg(Reg::kR6), 55);
  ASSERT_TRUE(RestoreSnapshot(b, &fast).ok());
  const Cpu::RunOutcome fast_outcome = fast.Run(100000);

  Machine slow;
  slow.cpu().set_predecode(false);
  ASSERT_TRUE(RestoreSnapshot(b, &slow).ok());
  const Cpu::RunOutcome slow_outcome = slow.Run(100000);

  EXPECT_EQ(fast_outcome.result, slow_outcome.result);
  EXPECT_EQ(fast_outcome.stop_code, slow_outcome.stop_code);
  EXPECT_EQ(fast_outcome.cycles, slow_outcome.cycles);
  EXPECT_EQ(CaptureSnapshot(fast).bytes, CaptureSnapshot(slow).bytes)
      << "a stale entry from snapshot A ran after B was restored";
  EXPECT_EQ(fast.cpu().reg(Reg::kR6), static_cast<uint16_t>(-55));
  EXPECT_EQ(fast.bus().PeekWord(0x2002), 0x1234);
  EXPECT_EQ(fast.bus().PeekWord(0x2000), 0);
}

// Restoring the snapshot a machine already ran keeps its predecoded code:
// the program's own data writes miss the code, so the rerun never refills.
TEST(PredecodeTest, RestoringSameSnapshotKeepsEntries) {
  const MachineSnapshot a = LoadedSnapshot(LoopProgram("add", "0x2000"));
  Machine m;
  m.cpu().set_predecode(true);
  ASSERT_TRUE(RestoreSnapshot(a, &m).ok());
  ASSERT_EQ(m.Run(100000).result, StepResult::kStopped);
  const CodeCache::Stats first = m.cpu().code_cache_stats();
  ASSERT_GT(first.misses, 0u);

  ASSERT_TRUE(RestoreSnapshot(a, &m).ok());
  ASSERT_EQ(m.Run(100000).result, StepResult::kStopped);
  const CodeCache::Stats second = m.cpu().code_cache_stats();
  EXPECT_EQ(second.misses, first.misses) << "the rerun refilled code it had already run";
  EXPECT_GT(second.hits, first.hits);
  EXPECT_EQ(m.cpu().reg(Reg::kR6), 55);
}

// Every page of the paged cache fills and reads back its own entries.
TEST(CodeCacheTest, FillsOnEveryPage) {
  CodeCache cache;
  EXPECT_EQ(cache.pages_allocated(), 0);
  constexpr uint32_t kPageBytes = 2 * CodeCache::kPageEntries;
  for (uint32_t page = 0; page < CodeCache::kPages; ++page) {
    for (const uint32_t offset : {0u, 2u, kPageBytes - 2}) {
      const uint16_t addr = static_cast<uint16_t>(page * kPageBytes + offset);
      EXPECT_FALSE(cache.Slot(addr)->valid);
      CodeCache::Entry* entry = cache.SlotForFill(addr);
      entry->pd.next_pc = addr;
      entry->valid = true;
      EXPECT_EQ(cache.Slot(addr), entry);
      EXPECT_EQ(cache.Slot(static_cast<uint16_t>(addr + 1)), entry) << "bit 0 is ignored";
    }
  }
  EXPECT_EQ(cache.pages_allocated(), CodeCache::kPages);
  for (uint32_t page = 0; page < CodeCache::kPages; ++page) {
    const uint16_t addr = static_cast<uint16_t>(page * kPageBytes + 2);
    ASSERT_TRUE(cache.Slot(addr)->valid);
    EXPECT_EQ(cache.Slot(addr)->pd.next_pc, addr);
    EXPECT_FALSE(cache.Slot(static_cast<uint16_t>(addr + 2))->valid);
  }
}

// Invalidating a word on a page that was never filled touches nothing (the
// shared all-invalid page is read-only), but still kills entries on the
// previous page whose instruction could span into it.
TEST(CodeCacheTest, InvalidateWordOnUnallocatedPageIsNoOp) {
  CodeCache cache;
  cache.InvalidateWord(0x4400);
  EXPECT_EQ(cache.pages_allocated(), 0);
  EXPECT_FALSE(cache.Slot(0x4400)->valid);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // Page 0x4400 / 512 = 34 holds the last two entries; page 35 is empty.
  constexpr uint16_t kNextPage = 35 * 2 * CodeCache::kPageEntries;
  for (const uint16_t addr : {static_cast<uint16_t>(kNextPage - 6),
                              static_cast<uint16_t>(kNextPage - 4),
                              static_cast<uint16_t>(kNextPage - 2)}) {
    cache.SlotForFill(addr)->valid = true;
  }
  EXPECT_EQ(cache.pages_allocated(), 1);
  cache.InvalidateWord(kNextPage);  // kills kNextPage-2 and kNextPage-4 only
  EXPECT_EQ(cache.pages_allocated(), 1);
  EXPECT_TRUE(cache.Slot(static_cast<uint16_t>(kNextPage - 6))->valid);
  EXPECT_FALSE(cache.Slot(static_cast<uint16_t>(kNextPage - 4))->valid);
  EXPECT_FALSE(cache.Slot(static_cast<uint16_t>(kNextPage - 2))->valid);
  EXPECT_FALSE(cache.Slot(kNextPage)->valid);
}

// MPU enabled mid-program, then a fetch from a non-executable segment: the
// fast path must take the same NMI at the same cycle as the interpreter.
// Enabling the MPU after code has been cached also checks that a cached
// entry is re-asked for fetch permission on every step.
TEST(PredecodeTest, MpuFetchViolationMatchesInterpreter) {
  DualRun dual;
  RunBoth(&dual,
          std::string(kMpuRegs) +
              "start:\n"
              "  mov #0x2400, sp\n"
              "  mov #nmi, &0xFFFC\n"
              "  mov #0x0800, &MPUSEGB1\n"
              "  mov #0x0A00, &MPUSEGB2\n"
              "  mov #0x0034, &MPUSAM\n"    // seg1 X, seg2 RW, seg3 none
              "  mov #0xA501, &MPUCTL0\n"   // enable after this code was cached
              "  br #0x9000\n"              // fetch from RW segment -> violation
              "nmi:\n"
              "  mov #1, r10\n"
              "  mov #3, &0x0710\n",
          50000);
  EXPECT_EQ(dual.outcome.result, StepResult::kStopped);
  EXPECT_EQ(dual.outcome.stop_code, 3);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR10), 1);
  EXPECT_TRUE(dual.fast.mpu().violation_flags() != 0);
}

// Firmware that flips the MPU between two configurations, three rounds, with
// cached code on both sides of each flip. The routines sit in .data at
// 0x7000 so the 16-byte boundaries land where they must:
//   config A: B1 0x7000, B2 0x7020, seg2 X only, seg3 R only;
//   config B: B1 0x7000, B2 0x7010, seg2 R only, seg3 X only.
// `r2fn` runs under A and is refused under B; `r3fn` the other way round.
// `span` is a 3-word instruction at 0x701C: under A its first two words are
// executable but its last (0x7020) is not; under B all three are. Each
// refusal lands in `nmi`, which counts it in r7, ORs the latched flags into
// r8, clears them, and returns to the caller of the refused routine.
TEST(PredecodeTest, AlternatingMpuConfigsMatchInterpreter) {
  DualRun dual;
  RunBoth(&dual,
          std::string(kMpuRegs) +
              "start:\n"
              "  mov #0x2400, sp\n"
              "  mov #nmi, &0xFFFC\n"
              "  mov #0xE100, r9\n"         // 0x3F00(r9) = 0x2000, 0x3FFF(r9) = 0x20FF
              "  mov #3, r11\n"
              "round:\n"
              "  mov #0x0700, &MPUSEGB1\n"  // config A
              "  mov #0x0702, &MPUSEGB2\n"
              "  mov #0x7145, &MPUSAM\n"
              "  mov #0xA501, &MPUCTL0\n"
              "  call #r2fn\n"              // permitted
              "  call #span\n"              // last word refused
              "  call #r3fn\n"              // refused
              "  mov #0x0700, &MPUSEGB1\n"  // config B
              "  mov #0x0701, &MPUSEGB2\n"
              "  mov #0x7415, &MPUSAM\n"
              "  mov #0xA501, &MPUCTL0\n"
              "  call #r2fn\n"              // refused
              "  call #span\n"              // permitted
              "  call #r3fn\n"              // permitted
              "  dec r11\n"
              "  jnz round\n" +
              std::string(kStop) +
              "nmi:\n"
              "  add #1, r7\n"
              "  bis &MPUCTL1, r8\n"
              "  mov #0x000F, &MPUCTL1\n"
              "  add #4, sp\n"              // drop the NMI frame (SR, PC)
              "  ret\n"
              ".data\n"
              "r2fn:\n"                     // 0x7000
              "  add #1, r5\n"
              "  ret\n"
              "  .space 24\n"
              "span:\n"                     // 0x701C
              "  add #0x101, 0x3F00(r9)\n"
              "  ret\n"
              "  .space 28\n"
              "r3fn:\n"                     // 0x7040
              "  add #1, r6\n"
              "  ret\n",
          200000);
  EXPECT_EQ(dual.outcome.result, StepResult::kStopped);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR5), 3);  // r2fn ran under A only
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR6), 3);  // r3fn ran under B only
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR7), 9);  // span + r3fn under A, r2fn under B
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR8), kMpuSeg2Ifg | kMpuSeg3Ifg);
  // span completed under B; under A its refused offset word read as 0x3FFF.
  EXPECT_EQ(dual.fast.bus().PeekWord(0x2000), 3 * 0x101);
  EXPECT_EQ(dual.fast.bus().PeekWord(0x20FE), 3 * 0x101);
}

// End-to-end: a small fleet simulated with and without predecode produces
// the exact same FleetDigest (the determinism contract the CI gate enforces
// at scale with `amuletc fleet --no-predecode`).
TEST(PredecodeTest, FleetDigestIdenticalAcrossModes) {
  FleetConfig config;
  config.device_count = 4;
  config.apps = {"pedometer", "clock"};
  config.model = MemoryModel::kMpu;
  config.fleet_seed = 20180711;
  config.sim_ms = 200;
  config.jobs = 2;

  config.predecode = true;
  auto fast = RunFleet(config);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  config.predecode = false;
  config.jobs = 1;  // digest identity must also hold across thread counts
  auto slow = RunFleet(config);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();

  EXPECT_EQ(FleetDigest(*fast), FleetDigest(*slow));
  EXPECT_GT(fast->aggregate.total_instructions, 0u);
  EXPECT_EQ(fast->aggregate.total_instructions, slow->aggregate.total_instructions);
}

}  // namespace
}  // namespace amulet
