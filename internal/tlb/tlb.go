// Package tlb models set-associative translation lookaside buffers with
// the BabelFish extensions of Section III-A of the paper:
//
//   - a CCID (Container Context Identifier) tag, so all processes of a
//     container group can hit on the same entry;
//   - the O-PC field: an Ownership (O) bit marking private entries (which
//     then require a PCID match), a 32-bit PrivateCopy (PC) bitmask with
//     one bit per CoW-writing process of the group, and the ORPC bit (the
//     OR of the PC bitmask) that lets most lookups skip the bitmask; and
//   - the Figure-8 lookup algorithm, including the "process already has a
//     private copy" miss and the CoW-write fault.
//
// A TLB runs in one of two tag modes: TagPCID reproduces a conventional
// per-process TLB (the baseline, and BabelFish's L1 under ASLR-HW, which
// does not share entries); TagCCID implements BabelFish sharing.
package tlb

import (
	"fmt"

	"babelfish/internal/memdefs"
)

// Mode selects the tagging discipline.
type Mode int

const (
	// TagPCID: conventional TLB; hits require VPN+PCID match.
	TagPCID Mode = iota
	// TagCCID: BabelFish TLB; hits require VPN+CCID match plus the O-PC
	// checks of Figure 8.
	TagCCID
)

func (m Mode) String() string {
	if m == TagCCID {
		return "CCID"
	}
	return "PCID"
}

// Entry is one TLB entry (Figure 3 of the paper).
type Entry struct {
	Valid bool
	VPN   memdefs.VPN
	PPN   memdefs.PPN
	Perm  memdefs.Perm
	CoW   bool // software CoW page: writes must fault
	PCID  memdefs.PCID
	CCID  memdefs.CCID

	// O-PC field (Figure 4).
	Owned      bool   // O bit: private entry, PCID must match
	ORPC       bool   // OR of the PC bitmask
	PCMask     uint32 // PrivateCopy bitmask (loaded only when needed)
	MaskLoaded bool

	// BroughtBy records which process filled the entry, for the paper's
	// "shared hits" accounting (Figure 10b).
	BroughtBy memdefs.PID

	Global bool // kernel-style global mapping (ignores PCID), unused by default

	lru uint64
}

// Result classifies a lookup outcome.
type Result int

const (
	// Miss: no usable entry; walk the page tables.
	Miss Result = iota
	// Hit: translation produced.
	Hit
	// HitCoWFault: a matching shared entry was found but the access is a
	// write to a CoW page; a CoW page fault must be taken (Figure 8, step 6).
	HitCoWFault
	// HitProtFault: matching entry but the permission check fails
	// (e.g. write to a read-only, non-CoW page, or exec of NX page).
	HitProtFault
)

func (r Result) String() string {
	switch r {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case HitCoWFault:
		return "cow-fault"
	case HitProtFault:
		return "prot-fault"
	}
	return fmt.Sprintf("Result(%d)", int(r))
}

// Lookup carries one probe's arguments.
type Lookup struct {
	VPN   memdefs.VPN
	Write bool
	Exec  bool
	PCID  memdefs.PCID
	CCID  memdefs.CCID
	PID   memdefs.PID
	// PCBit resolves the probing process's bit index in the PC bitmask
	// for this VPN's region (from the MaskPage pid_list). It is consulted
	// only when an entry has O==0 and ORPC==1. May be nil (no bit).
	PCBit func(memdefs.VPN) (int, bool)
}

// Stats holds per-TLB counters.
type Stats struct {
	Accesses         uint64
	Hits             uint64
	Misses           uint64
	SharedHits       uint64 // hits on entries brought in by another process
	MaskChecks       uint64 // lookups that had to read the PC bitmask
	PrivateCopySkips uint64 // matching shared entries unusable: process has private copy
	CoWFaultHits     uint64
	ProtFaultHits    uint64
	Fills            uint64
	MaskLoads        uint64 // fills that loaded the PC bitmask
	Invalidations    uint64
	Evictions        uint64
}

// Config describes one TLB structure.
type Config struct {
	Name    string
	Entries int
	Ways    int // 0 = fully associative
	Size    memdefs.PageSizeClass
	Mode    Mode
	// AccessTime is the fast access; AccessTimeMask applies when the PC
	// bitmask must be read (the L2 TLB's 10 vs 12 cycles in Table I).
	AccessTime     memdefs.Cycles
	AccessTimeMask memdefs.Cycles
}

// tagValid marks a live way in the packed tag-word array. VPNs are page
// numbers of at most 52-bit virtual addresses, so the top bit is free.
const tagValid = 1 << 63

// TLB is one set-associative TLB structure for a single page-size class.
//
// Ways are stored flat (entries[set*ways+way]), fronted by a packed
// tag-word array holding VPN|valid per way: the way scan — the hottest
// loop in the simulator — touches one contiguous word per way and only
// dereferences the full Entry for VPN-matching ways.
type TLB struct {
	cfg     Config
	tagw    []uint64
	entries []Entry
	ways    int
	numSets int
	tick    uint64
	stats   Stats
}

// New builds a TLB. Fully-associative structures use Ways == 0 or
// Ways == Entries.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 {
		panic("tlb: no entries: " + cfg.Name)
	}
	ways := cfg.Ways
	if ways <= 0 || ways > cfg.Entries {
		ways = cfg.Entries
	}
	numSets := cfg.Entries / ways
	if numSets == 0 {
		numSets = 1
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("tlb %s: sets %d not a power of two", cfg.Name, numSets))
	}
	if cfg.AccessTimeMask == 0 {
		cfg.AccessTimeMask = cfg.AccessTime
	}
	t := &TLB{cfg: cfg, numSets: numSets, ways: ways}
	t.tagw = make([]uint64, numSets*ways)
	t.entries = make([]Entry, numSets*ways)
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Stats returns a copy of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// base returns the flat index of the first way of vpn's set.
func (t *TLB) base(vpn memdefs.VPN) int {
	return (int(vpn) & (t.numSets - 1)) * t.ways
}

// permOK checks the access against entry permissions, ignoring the CoW
// special case (handled separately).
func permOK(e *Entry, q *Lookup) bool {
	if q.Exec && !e.Perm.CanExec() {
		return false
	}
	if q.Write && !e.Perm.CanWrite() && !e.CoW {
		return false
	}
	return true
}

// LookupEntry implements the Figure-8 algorithm and returns the matched
// entry (for Hit results), the latency, and the outcome.
//
// The way scan is the hottest loop in the simulator (every memory access
// probes up to three structures), so the tag mode — fixed per TLB — is
// resolved once outside the loop, and each way is rejected on the VPN
// compare before any mode logic runs.
func (t *TLB) LookupEntry(q Lookup) (Result, *Entry, memdefs.Cycles) {
	return t.lookupEntry(&q)
}

// lookupEntry is LookupEntry without the per-call Lookup copy; the group
// probe loop passes its single mutable Lookup by pointer across up to
// three size classes.
func (t *TLB) lookupEntry(q *Lookup) (Result, *Entry, memdefs.Cycles) {
	t.stats.Accesses++
	t.tick++
	lat := t.cfg.AccessTime
	vpn := q.VPN
	base := t.base(vpn)
	tags := t.tagw[base : base+t.ways]
	want := uint64(vpn) | tagValid

	if t.cfg.Mode == TagPCID {
		pcid := q.PCID
		for i, w := range tags {
			if w != want {
				continue
			}
			e := &t.entries[base+i]
			if !e.Global && e.PCID != pcid {
				continue
			}
			return t.finishHit(e, q, lat)
		}
		t.stats.Misses++
		return Miss, nil, lat
	}

	ccid := q.CCID
	for i, w := range tags {
		if w != want {
			continue
		}
		e := &t.entries[base+i]
		// TagCCID: VPN and CCID must match (step 1).
		if e.CCID != ccid {
			continue
		}
		if e.Owned {
			// Private entry: PCID must also match (steps 2, 9).
			if e.PCID != q.PCID {
				continue
			}
			return t.finishHit(e, q, lat)
		}
		// Shared entry. If ORPC is set, the process must check its own
		// bit in the PC bitmask (step 3); the check costs the long
		// access time.
		if e.ORPC {
			t.stats.MaskChecks++
			lat = t.cfg.AccessTimeMask
			if q.PCBit != nil {
				if bit, ok := q.PCBit(vpn); ok && bit < memdefs.PCBitmaskBits && e.PCMask&(1<<uint(bit)) != 0 {
					// The process has its own private copy of this page;
					// it cannot use the shared translation (step 10).
					t.stats.PrivateCopySkips++
					continue
				}
			}
		}
		// Step 5/6: write to a CoW page → CoW page fault.
		if q.Write && e.CoW {
			t.stats.CoWFaultHits++
			return HitCoWFault, e, lat
		}
		return t.finishHit(e, q, lat)
	}
	t.stats.Misses++
	return Miss, nil, lat
}

func (t *TLB) finishHit(e *Entry, q *Lookup, lat memdefs.Cycles) (Result, *Entry, memdefs.Cycles) {
	if q.Write && e.CoW {
		t.stats.CoWFaultHits++
		return HitCoWFault, e, lat
	}
	if !permOK(e, q) {
		t.stats.ProtFaultHits++
		return HitProtFault, e, lat
	}
	t.stats.Hits++
	if e.BroughtBy != q.PID {
		t.stats.SharedHits++
	}
	e.lru = t.tick
	return Hit, e, lat
}

// Insert fills an entry, evicting the LRU way of its set. Loading the PC
// bitmask (shared entry with ORPC set) is counted; per the ORPC logic of
// Figure 5(b), the mask is not loaded — and its storage cleared — when O
// is set or ORPC is clear.
func (t *TLB) Insert(e Entry) {
	t.stats.Fills++
	t.tick++
	e.Valid = true
	e.lru = t.tick
	if e.Owned || !e.ORPC {
		e.PCMask = 0
		e.MaskLoaded = false
	} else {
		e.MaskLoaded = true
		t.stats.MaskLoads++
	}
	base := t.base(e.VPN)
	tags := t.tagw[base : base+t.ways]
	victim := 0
	bestLRU := ^uint64(0)
	for i := range tags {
		if tags[i]&tagValid == 0 {
			victim = i
			break
		}
		if l := t.entries[base+i].lru; l < bestLRU {
			bestLRU = l
			victim = i
		}
	}
	if tags[victim]&tagValid != 0 {
		t.stats.Evictions++
	}
	t.entries[base+victim] = e
	tags[victim] = uint64(e.VPN) | tagValid
}

// InvalidateVPN removes every entry for vpn regardless of tags (a full
// shootdown). Returns the number removed.
func (t *TLB) InvalidateVPN(vpn memdefs.VPN) int {
	n := 0
	base := t.base(vpn)
	want := uint64(vpn) | tagValid
	for i := base; i < base+t.ways; i++ {
		if t.tagw[i] == want {
			t.tagw[i] = 0
			t.entries[i].Valid = false
			n++
		}
	}
	t.stats.Invalidations += uint64(n)
	return n
}

// InvalidateSharedVPN removes only the shared (O==0) entry for vpn in the
// given CCID group — the paper's CoW invalidation, which leaves up to 511
// sibling translations and all private (O==1) entries untouched.
func (t *TLB) InvalidateSharedVPN(vpn memdefs.VPN, ccid memdefs.CCID) int {
	n := 0
	base := t.base(vpn)
	want := uint64(vpn) | tagValid
	for i := base; i < base+t.ways; i++ {
		e := &t.entries[i]
		if t.tagw[i] == want && !e.Owned && (t.cfg.Mode == TagPCID || e.CCID == ccid) {
			t.tagw[i] = 0
			e.Valid = false
			n++
		}
	}
	t.stats.Invalidations += uint64(n)
	return n
}

// FlushPCID invalidates every entry installed by one process — used to
// model the fork-time shootdown round that revokes write permission on
// CoW pages. Shared (O==0) BabelFish entries are dropped too when they
// were brought in by that PCID; other sharers simply refill.
func (t *TLB) FlushPCID(pcid memdefs.PCID) int {
	n := 0
	for i, w := range t.tagw {
		if w&tagValid != 0 && t.entries[i].PCID == pcid {
			t.tagw[i] = 0
			t.entries[i].Valid = false
			n++
		}
	}
	t.stats.Invalidations += uint64(n)
	return n
}

// FlushAll invalidates the whole TLB.
func (t *TLB) FlushAll() {
	clear(t.tagw)
	for i := range t.entries {
		t.entries[i].Valid = false
	}
}

// ForEachValid calls fn for every valid entry (diagnostics/audits). The
// pointer is valid only for the duration of the call.
func (t *TLB) ForEachValid(fn func(*Entry)) {
	for i := range t.entries {
		if t.tagw[i]&tagValid != 0 {
			fn(&t.entries[i])
		}
	}
}

// Occupancy returns the number of valid entries (diagnostics/tests).
func (t *TLB) Occupancy() int {
	n := 0
	for _, w := range t.tagw {
		if w&tagValid != 0 {
			n++
		}
	}
	return n
}
