package kvstore

import (
	"fmt"
)

// LSM models a leveled log-structured merge tree in the RocksDB style:
// level L0 holds a few overlapping runs; levels 1..k hold non-overlapping
// runs growing by a size factor. Each run has a bloom-filter page, an
// index page, and data pages. A point lookup probes runs newest-first:
// the bloom page of every candidate run, then index+data pages of the
// run that holds the key.
type LSM struct {
	Keys        int
	KeysPerPage int
	Levels      []lsmLevel
	totalPages  int
}

type lsmLevel struct {
	runs      []lsmRun
	keysStart int // inclusive key coverage (levels cover whole space)
}

type lsmRun struct {
	bloom PageID
	index PageID
	data  PageID // first data page
	dataN int
	keyLo int // inclusive
	keyHi int // exclusive
}

// NewLSM builds an LSM over [0, keys): l0Runs overlapping runs in L0 and
// `levels` leveled tiers below it, each `factor` times larger than the
// previous, together covering the keyspace.
func NewLSM(keys, keysPerPage, l0Runs, levels, factor int) (*LSM, error) {
	if keys < 1 || keysPerPage < 1 || l0Runs < 0 || levels < 1 || factor < 2 {
		return nil, fmt.Errorf("kvstore: invalid lsm parameters")
	}
	t := &LSM{Keys: keys, KeysPerPage: keysPerPage}
	next := PageID(0)
	alloc := func(pages int) PageID {
		p := next
		next += PageID(pages)
		return p
	}

	// Weights: level i holds share factor^i of the keyspace's data.
	weights := make([]int, levels)
	total := 0
	w := 1
	for i := range weights {
		weights[i] = w
		total += w
		w *= factor
	}
	covered := 0
	for i := 0; i < levels; i++ {
		share := keys * weights[i] / total
		if i == levels-1 {
			share = keys - covered
		}
		if share < 1 {
			share = 1
		}
		lv := lsmLevel{keysStart: covered}
		// Runs per level: L1.. have ~4 runs each (non-overlapping ranges).
		runs := 4
		per := (share + runs - 1) / runs
		lo := covered
		for r := 0; r < runs && lo < covered+share; r++ {
			hi := lo + per
			if hi > covered+share {
				hi = covered + share
			}
			dataN := ((hi - lo) + keysPerPage - 1) / keysPerPage
			if dataN < 1 {
				dataN = 1
			}
			lv.runs = append(lv.runs, lsmRun{
				bloom: alloc(1), index: alloc(1), data: alloc(dataN), dataN: dataN,
				keyLo: lo, keyHi: hi,
			})
			lo = hi
		}
		covered += share
		t.Levels = append(t.Levels, lv)
	}
	// L0: small overlapping runs over the whole keyspace (most recent
	// writes), probed first.
	if l0Runs > 0 {
		l0 := lsmLevel{}
		dataN := (keys/keysPerPage)/64 + 1
		for r := 0; r < l0Runs; r++ {
			l0.runs = append(l0.runs, lsmRun{
				bloom: alloc(1), index: alloc(1), data: alloc(dataN), dataN: dataN,
				keyLo: 0, keyHi: keys,
			})
		}
		t.Levels = append([]lsmLevel{l0}, t.Levels...)
	}
	t.totalPages = int(next)
	return t, nil
}

// Pages returns the store's total page count.
func (t *LSM) Pages() int { return t.totalPages }

// Lookup returns the pages a point read touches, newest level first:
// bloom pages of candidate runs, and index+data pages of the owning run.
// ownerSalt perturbs which L0 run "contains" the key (recent writes),
// with 0 meaning the key lives in the leveled tiers only.
func (t *LSM) Lookup(key int, ownerSalt uint64) []PageID {
	return t.AppendLookup(nil, key, ownerSalt)
}

// AppendLookup appends the pages of Lookup(key, ownerSalt) to dst and
// returns the extended slice; reusing dst keeps a lookup free of
// allocations.
func (t *LSM) AppendLookup(dst []PageID, key int, ownerSalt uint64) []PageID {
	if key < 0 {
		key = 0
	}
	if key >= t.Keys {
		key = t.Keys - 1
	}
	pages := dst
	for li, lv := range t.Levels {
		for ri, run := range lv.runs {
			if key < run.keyLo || key >= run.keyHi {
				continue
			}
			pages = append(pages, run.bloom)
			owns := false
			if run.keyHi-run.keyLo == t.Keys && li == 0 {
				// L0 runs overlap; a run owns the key only if the salt
				// says the key was recently written into it.
				owns = ownerSalt != 0 && int(ownerSalt%uint64(len(lv.runs))) == ri
			} else {
				owns = true
			}
			if owns {
				pages = append(pages, run.index)
				off := (key - run.keyLo) / t.KeysPerPage
				if off >= run.dataN {
					off = run.dataN - 1
				}
				pages = append(pages, run.data+PageID(off))
				return pages
			}
		}
	}
	return pages
}
