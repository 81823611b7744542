// Package pgtable implements x86-64 4-level page tables stored in
// simulated physical frames, including the BabelFish extensions:
//
//   - the Ownership (O) and ORPC bits in bits 10 and 9 of table entries
//     (the paper places them in the currently-unused bits of pmd_t), and
//   - sub-table sharing: an entry of one process's PMD/PUD table may point
//     at a next-level table frame that other processes also point at, with
//     frame reference counts deciding when a table may be reclaimed.
//
// The package is purely structural: it reads and writes entries in
// physmem table frames. Timing (which cache level served each walk step)
// belongs to internal/mmu; policy (what to map, CoW, MaskPages) belongs to
// internal/kernel.
package pgtable

import (
	"babelfish/internal/memdefs"
)

// Entry is one 8-byte page-table entry in the x86-64 format used by the
// simulator. Bits 12-51 hold the PPN; low and high bits hold flags.
type Entry uint64

// Flag bits. Present/Write/User/Accessed/Dirty/PS follow x86; ORPC and
// Owned occupy bits 9 and 10 as in the paper (Figure 5a); CoW uses a
// software-available bit.
const (
	FlagPresent Entry = 1 << 0
	FlagWrite   Entry = 1 << 1
	FlagUser    Entry = 1 << 2
	FlagAccess  Entry = 1 << 5
	FlagDirty   Entry = 1 << 6
	FlagPS      Entry = 1 << 7  // huge mapping at PMD (2MB) or PUD (1GB)
	FlagORPC    Entry = 1 << 9  // BabelFish: OR of the PC bitmask bits
	FlagOwned   Entry = 1 << 10 // BabelFish: O (Ownership) bit
	FlagCoW     Entry = 1 << 11 // software: copy-on-write page
	FlagNX      Entry = 1 << 63

	ppnShift      = memdefs.PageShift
	ppnMask       = Entry(0xFFFFFFFFFF) << ppnShift // bits 12..51
	flagsPreserve = ^ppnMask
)

// MakeEntry builds an entry from a frame number and flags.
func MakeEntry(ppn memdefs.PPN, flags Entry) Entry {
	return (Entry(ppn) << ppnShift & ppnMask) | (flags & flagsPreserve)
}

// PPN extracts the frame number.
func (e Entry) PPN() memdefs.PPN { return memdefs.PPN((e & ppnMask) >> ppnShift) }

// Present reports whether the entry is marked present in memory.
func (e Entry) Present() bool { return e&FlagPresent != 0 }

// Writable reports whether the entry permits writes.
func (e Entry) Writable() bool { return e&FlagWrite != 0 }

// User reports whether the entry permits user-mode access.
func (e Entry) User() bool { return e&FlagUser != 0 }

// Huge reports whether the entry maps a huge page (PS bit).
func (e Entry) Huge() bool { return e&FlagPS != 0 }

// NoExec reports whether the entry forbids instruction fetch.
func (e Entry) NoExec() bool { return e&FlagNX != 0 }

// Owned reports the BabelFish Ownership (O) bit: the page is private to
// one process (PCID must match in the TLB).
func (e Entry) Owned() bool { return e&FlagOwned != 0 }

// ORPC reports the BabelFish ORPC bit: some process in the CCID group has
// a private copy of a page under this entry, so the PC bitmask must be
// consulted.
func (e Entry) ORPC() bool { return e&FlagORPC != 0 }

// CoW reports the software copy-on-write bit.
func (e Entry) CoW() bool { return e&FlagCoW != 0 }

// Dirty reports whether the page has been written through this entry.
func (e Entry) Dirty() bool { return e&FlagDirty != 0 }

// Zero reports whether the entry is entirely empty.
func (e Entry) Zero() bool { return e == 0 }

// With returns the entry with the given flags set.
func (e Entry) With(flags Entry) Entry { return e | (flags & flagsPreserve) }

// Without returns the entry with the given flags cleared.
func (e Entry) Without(flags Entry) Entry { return e &^ (flags & flagsPreserve) }

// Perm converts permission-relevant entry bits into a memdefs.Perm.
func (e Entry) Perm() memdefs.Perm {
	var p memdefs.Perm
	if e.Present() {
		p |= memdefs.PermRead
	}
	if e.Writable() {
		p |= memdefs.PermWrite
	}
	if !e.NoExec() {
		p |= memdefs.PermExec
	}
	if e.User() {
		p |= memdefs.PermUser
	}
	return p
}
