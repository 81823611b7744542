package xlatpolicy

import "babelfish/internal/tlb"

// builtin is the shared shape of the built-in policies: fixed tag modes
// plus an optional per-core structure factory.
type builtin struct {
	name    string
	opc     bool // BabelFish TLB behaviour (CCID L2 tags, O-PC fills)
	shared  bool // BabelFish kernel (shared PTE tables, CCID groups)
	newCore func(CoreConfig) Core
}

func (b *builtin) Name() string { return b.name }

func (b *builtin) TagModes(aslrHW bool) (l1, l2 tlb.Mode) {
	if !b.opc {
		return tlb.TagPCID, tlb.TagPCID
	}
	if aslrHW {
		// ASLR-HW: the L1 TLBs stay conventional per-process structures;
		// sharing begins at the L2 (the paper's evaluated default).
		return tlb.TagPCID, tlb.TagCCID
	}
	return tlb.TagCCID, tlb.TagCCID
}

func (b *builtin) OPC() bool { return b.opc }

func (b *builtin) SharedKernel() bool { return b.shared }

func (b *builtin) NewCore(c CoreConfig) Core {
	if b.newCore == nil {
		return nil
	}
	return b.newCore(c)
}

func storeMode(babelfish bool) tlb.Mode {
	if babelfish {
		return tlb.TagCCID
	}
	return tlb.TagPCID
}

func victimaFactory(babelfish bool) func(CoreConfig) Core {
	return func(CoreConfig) Core {
		return NewVictimaCore(VictimaConfig{Mode: storeMode(babelfish)})
	}
}

func coalescedFactory(babelfish bool) func(CoreConfig) Core {
	return func(c CoreConfig) Core {
		return NewCoalescedCore(CoalescedConfig{Mode: storeMode(babelfish)}, c.Mem)
	}
}

func init() {
	Register(Arch{
		Name:   "baseline",
		Desc:   "conventional server: per-process TLB entries and private page tables",
		Policy: &builtin{name: "baseline"},
	})
	Register(Arch{
		Name:   "babelfish",
		Desc:   "BabelFish: CCID-shared L2 TLB (O-PC) over shared page tables",
		Policy: &builtin{name: "babelfish", opc: true, shared: true},
	})
	Register(Arch{
		Name: "victima",
		Desc: "baseline + TLB-miss PTEs parked in repurposed L2 cache lines",
		Policy: &builtin{
			name:    "victima",
			newCore: victimaFactory(false),
		},
	})
	Register(Arch{
		Name: "coalesced",
		Desc: "baseline + coalesced TLB entries over contiguous VPN-to-PPN runs",
		Policy: &builtin{
			name:    "coalesced",
			newCore: coalescedFactory(false),
		},
	})
	Register(Arch{
		Name: "babelfish+victima",
		Desc: "BabelFish sharing plus CCID-tagged parked PTEs in L2 cache lines",
		Policy: &builtin{
			name:    "babelfish+victima",
			opc:     true,
			shared:  true,
			newCore: victimaFactory(true),
		},
	})
	Register(Arch{
		Name: "babelfish+coalesced",
		Desc: "BabelFish sharing plus coalesced runs of shared clean pages",
		Policy: &builtin{
			name:    "babelfish+coalesced",
			opc:     true,
			shared:  true,
			newCore: coalescedFactory(true),
		},
	})
}
