// Predecoded-instruction cache for the fast simulator core.
//
// One direct-mapped entry per 16-bit word address (32768 slots covering the
// whole address space), each holding the dense PredecodedInsn record plus
// its FRAM word count. A valid entry means every word of the instruction is
// plain memory, so the fast path may replay it; the MPU is still asked per
// step. Entries are filled lazily by Cpu::StepFast() and killed by the bus
// whenever backing memory changes: architectural writes (self-modifying
// code, OTA bank writes), host-side pokes, image loads, and snapshot restore.
// So a valid entry always matches current memory.
//
// The slots are split into 128 pages of 256 entries, allocated on a page's
// first fill. Unallocated pages alias one shared, read-only, all-invalid
// page, so a lookup stays branch-free and a device pays only for the code it
// actually runs.
//
// The cache is derived state. It is deliberately excluded from snapshot
// serialization (src/mcu/snapshot.h) so fleet cloning stays O(memcpy).
// Bus::LoadState() diffs the incoming memory image against the current one
// and invalidates only the words that differ, so restoring a snapshot into a
// machine that already ran it keeps the entries for unchanged code.
#ifndef SRC_MCU_CODE_CACHE_H_
#define SRC_MCU_CODE_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/isa/predecode.h"

namespace amulet {

class CodeCache {
 public:
  struct Entry {
    bool valid = false;
    // How many of the fetched words live in FRAM (wait-state penalties).
    uint8_t fram_words = 0;
    PredecodedInsn pd;
  };

  // Host-side effectiveness counters, maintained by Cpu::StepFast() (hits,
  // misses, slow paths) and by InvalidateWord(). Never serialized and never
  // part of any digest: they measure the host simulator, not the simulated
  // machine, and differ between the fast and interpreter cores by
  // construction.
  struct Stats {
    uint64_t hits = 0;           // valid entry found for the fetch address
    uint64_t misses = 0;         // FillEntry() runs (including failures)
    uint64_t slow_paths = 0;     // deferrals to the interpreter from StepFast
    uint64_t invalidations = 0;  // InvalidateWord() calls (changed memory words)
  };

  static constexpr int kPages = 128;
  static constexpr int kPageEntries = 256;

  CodeCache() { pages_.fill(kInvalidPage.data()); }

  // Returns the entry for `addr` (word-aligned internally). Read-only: the
  // caller checks `valid` and fills through SlotForFill() on a miss.
  const Entry* Slot(uint16_t addr) const {
    const uint16_t word = addr >> 1;
    return &pages_[word / kPageEntries][word % kPageEntries];
  }

  // Writable entry for `addr`, allocating its page on first use.
  Entry* SlotForFill(uint16_t addr) {
    const uint16_t word = addr >> 1;
    std::unique_ptr<Page>& page = owned_[word / kPageEntries];
    if (page == nullptr) {
      page = std::make_unique<Page>();
      pages_[word / kPageEntries] = page->data();
    }
    return &(*page)[word % kPageEntries];
  }

  // Kills any entry whose instruction could span the word at `addr`:
  // instructions are at most three words long, so the starting addresses
  // addr, addr-2 and addr-4 cover every possibility (with uint16 wrap).
  void InvalidateWord(uint16_t addr) {
    const uint16_t a = addr & 0xFFFE;
    Kill(a);
    Kill(static_cast<uint16_t>(a - 2));
    Kill(static_cast<uint16_t>(a - 4));
    ++stats_.invalidations;
  }

  // Pages allocated so far (each holds kPageEntries entries of host memory).
  int pages_allocated() const {
    int n = 0;
    for (const std::unique_ptr<Page>& page : owned_) {
      n += page != nullptr ? 1 : 0;
    }
    return n;
  }

  const Stats& stats() const { return stats_; }
  void CountHit() { ++stats_.hits; }
  void CountMiss() { ++stats_.misses; }
  void CountSlowPath() { ++stats_.slow_paths; }

 private:
  using Page = std::array<Entry, kPageEntries>;
  static_assert(kPages * kPageEntries == 0x10000 / 2, "pages cover every word address");

  // An unallocated page holds nothing valid, so there is nothing to kill;
  // the shared invalid page is never written.
  void Kill(uint16_t a) {
    const uint16_t word = a >> 1;
    Page* page = owned_[word / kPageEntries].get();
    if (page != nullptr) {
      (*page)[word % kPageEntries].valid = false;
    }
  }

  static const Page kInvalidPage;

  std::array<const Entry*, kPages> pages_;  // owned page, or kInvalidPage
  std::array<std::unique_ptr<Page>, kPages> owned_;
  Stats stats_;
};

inline const CodeCache::Page CodeCache::kInvalidPage{};

}  // namespace amulet

#endif  // SRC_MCU_CODE_CACHE_H_
